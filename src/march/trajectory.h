// Robot trajectories: timed piecewise-linear paths with obstacle detours.
//
// The harmonic map gives each robot a straight-line path (Eqn. (2)); when
// the line crosses a hole, "the robot goes along the boundary until it can
// follow its computed moving path again" (paper Sec. III-D-3). We realize
// that as a polyline hugging the shorter boundary arc, traversed at
// constant speed so the robot still arrives at time t1.
#pragma once

#include <vector>

#include "geom/polygon.h"
#include "geom/vec2.h"

namespace anr {

/// Timed piecewise-linear path. Waypoint times are nondecreasing;
/// position(t) clamps outside [start_time, end_time].
class Trajectory {
 public:
  /// Appends a waypoint; `t` must be >= the last waypoint's time.
  void append(Vec2 p, double t);

  Vec2 position(double t) const;
  Vec2 start() const;
  Vec2 end() const;
  double start_time() const;
  double end_time() const;

  /// Total geometric length of the polyline.
  double length() const;

  /// Length of the portion traversed within [t0, t1].
  double length_between(double t0, double t1) const;

  std::size_t num_waypoints() const { return pts_.size(); }
  bool empty() const { return pts_.empty(); }

  const std::vector<Vec2>& waypoints() const { return pts_; }
  const std::vector<double>& times() const { return times_; }

  /// Prefix of this trajectory up to time t (ends exactly at position(t)).
  Trajectory truncated_at(double t) const;

  /// Appends all of `tail`'s waypoints (tail must start no earlier than
  /// this trajectory ends; a duplicated joint point is skipped).
  void extend(const Trajectory& tail);

 private:
  std::vector<Vec2> pts_;
  std::vector<double> times_;
};

/// Waypoints (exclusive of a and b) routing a->b around the obstacle
/// polygons; empty when the straight segment is clear. Obstacles must be
/// disjoint; a and b must lie outside every obstacle.
std::vector<Vec2> route_around(Vec2 a, Vec2 b,
                               const std::vector<Polygon>& obstacles);

/// Builds a constant-speed trajectory from p (at t0) to q (at t1) that
/// detours around `obstacles`.
Trajectory make_timed_path(Vec2 p, Vec2 q, double t0, double t1,
                           const std::vector<Polygon>& obstacles);

/// Bounding boxes of `obstacles`, each grown by 1e-7. No point of a
/// segment whose box misses an obstacle's grown box lies strictly inside
/// that obstacle, so route_around leaves such a segment straight.
std::vector<BBox> obstacle_boxes(const std::vector<Polygon>& obstacles);

/// Appends the step p -> q over [t0, t1] to `path`, which ends at p: the
/// waypoints and times of make_timed_path(p, q, t0, t1, obstacles) after
/// its first. A step whose box misses every box of `boxes`
/// (obstacle_boxes(obstacles)) is appended straight, without routing.
void append_timed_step(Trajectory& path, Vec2 p, Vec2 q, double t0, double t1,
                       const std::vector<Polygon>& obstacles,
                       const std::vector<BBox>& boxes);

/// Builds a constant-speed trajectory through `via` (first point at t0,
/// last at t1), detouring each leg around `obstacles`. With a two-point
/// polyline this is exactly make_timed_path. Used for terrain geodesics,
/// whose waypoints still honor FoI hole detours per leg.
Trajectory make_timed_path_via(const std::vector<Vec2>& via, double t0,
                               double t1,
                               const std::vector<Polygon>& obstacles);

}  // namespace anr
