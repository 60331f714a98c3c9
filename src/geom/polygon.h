// Simple polygons: area, centroid, containment, sampling, resampling.
//
// FoI boundaries and holes are simple polygons (possibly concave). All
// loops are stored counter-clockwise for outer boundaries; hole loops are
// also stored CCW and interpreted by the FoI layer.
#pragma once

#include <algorithm>
#include <vector>

#include "geom/segment.h"
#include "geom/vec2.h"

namespace anr {

/// Axis-aligned bounding box.
struct BBox {
  Vec2 lo{1e300, 1e300};
  Vec2 hi{-1e300, -1e300};

  void expand(Vec2 p);
  void expand(const BBox& o);
  bool contains(Vec2 p) const;
  Vec2 center() const { return (lo + hi) * 0.5; }
  double width() const { return hi.x - lo.x; }
  double height() const { return hi.y - lo.y; }
  bool valid() const { return lo.x <= hi.x && lo.y <= hi.y; }
};

/// Boundary tolerance of Polygon::contains: a point closer than this to
/// an edge counts as inside.
inline constexpr double kBoundaryTolerance = 1e-9;

/// Pad of the edge boxes that gate the tolerance test. A point outside an
/// edge's bounding box grown by this much is farther than the tolerance
/// from the edge (for coordinates whose rounding is far below 1e-9), so
/// its distance to that edge is never computed.
inline constexpr double kEdgeBoxPad = 2e-9;

/// Bounding box of edge (a, b) grown by `pad` on every side.
inline BBox padded_edge_box(Vec2 a, Vec2 b, double pad) {
  BBox box;
  box.lo = {std::min(a.x, b.x) - pad, std::min(a.y, b.y) - pad};
  box.hi = {std::max(a.x, b.x) + pad, std::max(a.y, b.y) + pad};
  return box;
}

/// x at which edge (a, b) meets the horizontal line at height y, for an
/// edge that straddles it ((a.y > y) != (b.y > y)). The crossing-number
/// test of Polygon::contains and the lattice scanline of
/// FieldOfInterest::lattice_points both use this one expression, so their
/// parities agree bit for bit.
inline double edge_crossing_x(Vec2 a, Vec2 b, double y) {
  return b.x + (y - b.y) * (a.x - b.x) / (a.y - b.y);
}

/// Simple (non-self-intersecting) polygon given by its vertex loop.
/// Closing edge from back() to front() is implicit.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Vec2> pts) : pts_(std::move(pts)) {}

  const std::vector<Vec2>& points() const { return pts_; }
  std::size_t size() const { return pts_.size(); }
  bool empty() const { return pts_.empty(); }
  Vec2 operator[](std::size_t i) const { return pts_[i]; }

  /// Signed area; positive when counter-clockwise.
  double signed_area() const;
  double area() const;

  /// Area centroid (not vertex average). Requires non-zero area.
  Vec2 centroid() const;

  /// Total boundary length.
  double perimeter() const;

  BBox bbox() const;

  /// Even-odd (crossing-number) point containment. Boundary points count
  /// as inside within kBoundaryTolerance.
  bool contains(Vec2 p) const;

  /// True when p is inside and farther than kBoundaryTolerance from the
  /// boundary: the points a FoI hole forbids.
  bool strictly_contains(Vec2 p) const;

  /// Distance from p to the polygon boundary (0 on the boundary).
  double boundary_distance(Vec2 p) const;

  /// Point on the boundary closest to p.
  Vec2 closest_boundary_point(Vec2 p) const;

  /// Perimeter parameter (cumulative boundary length from vertex 0, in
  /// [0, perimeter())) of the boundary point closest to p.
  double perimeter_param(Vec2 p) const;

  /// Boundary point at perimeter parameter s (taken modulo perimeter()).
  Vec2 point_at_param(double s) const;

  /// True when the open segment (a,b) crosses the boundary (touching an
  /// endpoint vertex does not count as crossing).
  bool segment_crosses_boundary(Vec2 a, Vec2 b) const;

  /// All boundary edges as segments.
  std::vector<Segment> edges() const;

  /// Re-orients to counter-clockwise (no-op when already CCW).
  void make_ccw();

  /// Returns a copy whose vertices are spaced at most `max_spacing` apart
  /// (extra vertices inserted along long edges). Shape is unchanged.
  Polygon densified(double max_spacing) const;

  /// Uniformly scales about `about` by factor s.
  Polygon scaled(double s, Vec2 about) const;

  /// Translates by d.
  Polygon translated(Vec2 d) const;

  /// Rotates by `angle` radians about `about`.
  Polygon rotated(double angle, Vec2 about) const;

  /// Returns a copy scaled so that its area equals `target_area`
  /// (scaled about its centroid).
  Polygon with_area(double target_area) const;

 private:
  // One pass over the edges for p: the even-odd (crossing-number) parity,
  // and the minimum boundary distance over the edges whose padded box
  // holds p (1e300 when none does).
  struct Probe {
    bool parity = false;
    double near_distance = 1e300;
  };
  Probe probe(Vec2 p) const;

  std::vector<Vec2> pts_;
};

/// Regular n-gon approximation of a circle.
Polygon make_circle(Vec2 center, double radius, int segments = 64);

/// Axis-aligned rectangle polygon (CCW).
Polygon make_rect(Vec2 lo, Vec2 hi);

}  // namespace anr
