// Terrain-aware routing for the marching layer.
//
// Wraps the fast-marching solver (terrain/fast_marching.h) behind the
// interface plan_impl needs: one ToA field per robot start (solved in
// parallel over robots — each solve is sequential and writes only its own
// output, so the fields are byte-identical at any thread count), travel
// times and path-length bounds for the rotation search, keep-out-aware
// target snapping, and geodesic waypoint extraction with a typed
// straight-line degradation path (also parallel over robots, tallied in
// robot order afterwards).
//
// Uniform-field contract: when the rasterized cost field is uniform (no
// keep-out cells, a single cost value), geodesics ARE straight lines and
// travel times are proportional to Euclidean distance. The planner
// detects that case and runs the unmodified straight-line pipeline, so
// kTerrainGeodesic plans over a uniform field are byte-identical to
// kStraight plans by construction.
#pragma once

#include <vector>

#include "geom/polygon.h"
#include "geom/vec2.h"
#include "terrain/fast_marching.h"
#include "terrain/height_field.h"

namespace anr {

/// Step-7 motion model (paper Eqn. (2) vs terrain geodesics).
enum class MotionModel {
  kStraight,         ///< straight lines with hole detours (the paper)
  kTerrainGeodesic,  ///< geodesics in the terrain cost metric
};

/// Stable lowercase name ("straight", "terrain_geodesic").
const char* motion_model_name(MotionModel m);

/// Cost-field knobs for kTerrainGeodesic (see CostFieldSpec).
struct TerrainCostOptions {
  HeightField terrain;          ///< flat by default
  double slope_weight = 0.0;    ///< cost = 1 + slope_weight * |∇z|
  double uphill_penalty = 0.0;  ///< asymmetric uphill slowness
  int max_cells = 96;           ///< grid resolution along the longer axis
  double padding_cr = 1.0;      ///< domain padding in multiples of r_c
  std::vector<MudPatch> mud;
  std::vector<Polygon> keep_out;
};

/// Trajectory-generation options carried by PlannerOptions.
struct TrajectoryOptions {
  MotionModel motion = MotionModel::kStraight;
  TerrainCostOptions terrain;
};

/// Routing tallies for plan diagnostics / anr_fmm_* counters.
struct RouterStats {
  int solves = 0;        ///< fast-marching solves run
  int goal_snapped = 0;  ///< targets moved out of keep-out cells
  int fallbacks = 0;     ///< routes degraded to straight lines (total)
  int fb_blocked_start = 0;
  int fb_unreachable = 0;
  int fb_stuck_descent = 0;
  int fb_out_of_domain = 0;
};

/// One routed leg. `points` always starts at the robot's start position
/// and ends at the goal; `fallback` names the degradation reason when the
/// route is a straight line because geodesic extraction was impossible.
struct TerrainRoute {
  std::vector<Vec2> points;
  bool geodesic = false;
  const char* fallback = nullptr;  ///< "blocked_start", "unreachable",
                                   ///< "stuck_descent", "out_of_domain"
};

class TerrainRouter {
 public:
  /// Rasterizes the cost field over `domain` padded by padding_cr * r_c.
  TerrainRouter(const TrajectoryOptions& options, const BBox& domain,
                double r_c);

  const CostField& field() const { return field_; }
  /// True when routing degenerates to straight-line motion exactly.
  bool uniform() const { return field_.uniform(); }

  /// Runs one fast-marching solve per start position (parallel over
  /// robots). Must be called before travel_time / route. No-op on a
  /// uniform field.
  void solve(const std::vector<Vec2>& starts);

  /// Cost-metric travel time from robot r's start to `goal`. Falls back
  /// to the min-cost straight-line bound when the goal is outside the
  /// field or unreached.
  double travel_time(int r, Vec2 goal) const;

  /// Upper bound on the Euclidean length of robot r's routed path
  /// (travel_time / min_cost; exactly the straight distance on fallback).
  double path_length_bound(int r, Vec2 goal) const;

  /// Nearest unblocked cell center when `goal` lies in a keep-out cell
  /// (deterministic ring scan); `goal` unchanged otherwise.
  Vec2 unblocked_target(Vec2 goal, bool* snapped);

  /// Geodesic waypoints for robot r, or a straight fallback with a typed
  /// reason. Tallies into stats().
  TerrainRoute route(int r, Vec2 goal);

  /// route(r, goals[r]) for every robot, extracted in parallel over
  /// robots and tallied into stats() in robot order: the same routes and
  /// stats as the serial loop, at any thread count. Requires one goal per
  /// start.
  std::vector<TerrainRoute> route_all(const std::vector<Vec2>& goals);

  /// True when segment a->b crosses a keep-out cell (false when either
  /// endpoint is outside the field — nothing to assess there).
  bool segment_blocked(Vec2 a, Vec2 b) const;

  const RouterStats& stats() const { return stats_; }
  const std::vector<FastMarchResult>& fields() const { return fields_; }

 private:
  TerrainRoute extract(int r, Vec2 goal) const;  // route() without the tally
  void tally(const TerrainRoute& route);

  CostField field_;
  std::vector<Vec2> starts_;
  std::vector<FastMarchResult> fields_;
  RouterStats stats_;
};

}  // namespace anr
