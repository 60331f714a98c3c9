// Unit + property tests: Polygon operations and half-plane clipping.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "foi/shapes.h"
#include "geom/polygon.h"
#include "geom/polygon_clip.h"
#include "geom/segment.h"
#include "test_util.h"

namespace anr {
namespace {

TEST(Polygon, SquareBasics) {
  Polygon sq = make_rect({0, 0}, {2, 3});
  EXPECT_DOUBLE_EQ(sq.area(), 6.0);
  EXPECT_GT(sq.signed_area(), 0.0);
  EXPECT_EQ(sq.centroid(), (Vec2{1.0, 1.5}));
  EXPECT_DOUBLE_EQ(sq.perimeter(), 10.0);
  auto bb = sq.bbox();
  EXPECT_EQ(bb.lo, (Vec2{0, 0}));
  EXPECT_EQ(bb.hi, (Vec2{2, 3}));
}

TEST(Polygon, Containment) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  EXPECT_TRUE(sq.contains({5, 5}));
  EXPECT_TRUE(sq.contains({0, 5}));    // boundary
  EXPECT_TRUE(sq.contains({10, 10}));  // corner
  EXPECT_FALSE(sq.contains({11, 5}));
  EXPECT_FALSE(sq.contains({-0.1, 5}));
}

TEST(Polygon, ConcaveContainment) {
  // L-shape: the notch is outside.
  Polygon l({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  EXPECT_TRUE(l.contains({1, 3}));
  EXPECT_TRUE(l.contains({3, 1}));
  EXPECT_FALSE(l.contains({3, 3}));  // notch
  EXPECT_DOUBLE_EQ(l.area(), 12.0);
}

TEST(Polygon, MakeCcw) {
  Polygon cw({{0, 0}, {0, 1}, {1, 1}, {1, 0}});
  EXPECT_LT(cw.signed_area(), 0.0);
  cw.make_ccw();
  EXPECT_GT(cw.signed_area(), 0.0);
}

TEST(Polygon, BoundaryDistanceAndClosestPoint) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  EXPECT_DOUBLE_EQ(sq.boundary_distance({5, 5}), 5.0);
  EXPECT_DOUBLE_EQ(sq.boundary_distance({5, 12}), 2.0);
  EXPECT_EQ(sq.closest_boundary_point({5, 12}), (Vec2{5, 10}));
}

TEST(Polygon, SegmentCrossesBoundary) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  EXPECT_TRUE(sq.segment_crosses_boundary({5, 5}, {15, 5}));
  EXPECT_FALSE(sq.segment_crosses_boundary({2, 2}, {8, 8}));   // inside
  EXPECT_FALSE(sq.segment_crosses_boundary({12, 0}, {12, 10}));  // outside
}

TEST(Polygon, Densified) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  Polygon d = sq.densified(1.0);
  EXPECT_EQ(d.size(), 40u);
  EXPECT_NEAR(d.area(), sq.area(), 1e-9);
  EXPECT_NEAR(d.perimeter(), sq.perimeter(), 1e-9);
}

TEST(Polygon, Transforms) {
  Polygon sq = make_rect({0, 0}, {2, 2});
  Polygon t = sq.translated({5, 7});
  EXPECT_EQ(t.centroid(), (Vec2{6, 8}));
  Polygon s = sq.scaled(3.0, sq.centroid());
  EXPECT_NEAR(s.area(), 36.0, 1e-9);
  EXPECT_EQ(s.centroid(), sq.centroid());
  Polygon r = sq.rotated(M_PI / 2.0, sq.centroid());
  EXPECT_NEAR(r.area(), 4.0, 1e-9);
}

TEST(Polygon, WithArea) {
  Polygon c = make_circle({3, 4}, 10.0);
  Polygon scaled = c.with_area(1234.5);
  EXPECT_NEAR(scaled.area(), 1234.5, 1e-6);
  EXPECT_NEAR(scaled.centroid().x, 3.0, 1e-9);
}

TEST(Polygon, CircleAreaConverges) {
  Polygon c = make_circle({0, 0}, 1.0, 256);
  EXPECT_NEAR(c.area(), M_PI, 1e-3);
  EXPECT_NEAR(c.perimeter(), 2.0 * M_PI, 1e-3);
}

TEST(Polygon, PerimeterParamAndPointAtParam) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  // Vertex 0 is (0,0); walking CCW: (10,0) at s=10, (10,10) at s=20...
  EXPECT_DOUBLE_EQ(sq.perimeter_param({5, 0}), 5.0);
  EXPECT_DOUBLE_EQ(sq.perimeter_param({10, 5}), 15.0);
  Vec2 p = sq.point_at_param(25.0);
  EXPECT_EQ(p, (Vec2{5, 10}));
  // Wraps modulo perimeter, including negatives.
  EXPECT_EQ(sq.point_at_param(45.0), (Vec2{5, 0}));
  EXPECT_EQ(sq.point_at_param(-5.0), (Vec2{0, 5}));
}

TEST(Polygon, ParamRoundTrip) {
  Polygon c = make_circle({3, -2}, 20.0, 48);
  for (double s : {0.0, 13.7, 55.5, 101.2}) {
    Vec2 p = c.point_at_param(s);
    EXPECT_NEAR(c.perimeter_param(p), std::fmod(s, c.perimeter()), 1e-6);
  }
}

// --- contains() against the formula without the edge-box reject -----------

// Polygon::contains as it read before the edge-box reject: the boundary
// distance test runs on every edge.
bool contains_every_edge(const Polygon& poly, Vec2 p) {
  const std::vector<Vec2>& pts = poly.points();
  if (pts.size() < 3) return false;
  const std::size_t n = pts.size();
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    Vec2 a = pts[j], b = pts[i];
    if (point_segment_distance(p, Segment{a, b}) < 1e-9) return true;
    bool straddles = (b.y > p.y) != (a.y > p.y);
    if (straddles) {
      double x_cross = b.x + (p.y - b.y) * (a.x - b.x) / (a.y - b.y);
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

class ContainsEdgeBox : public ::testing::TestWithParam<int> {
 protected:
  Polygon shape() const {
    switch (GetParam()) {
      case 0:
        return make_blob({0.0, 0.0}, 320.0, {{2, 0.12, 0.4}, {3, 0.07, 1.3}});
      case 1:
        return make_flower({20.0, -15.0}, 95.0, 5, 0.35);
      default:
        return make_circle({3.0, -7.0}, 40.0, 64);
    }
  }
};

TEST_P(ContainsEdgeBox, AgreesOnVerticesEdgesAndOffsets) {
  const Polygon poly = shape();
  const std::vector<Vec2>& pts = poly.points();
  Rng rng(17);
  int checked = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Vec2 a = pts[i], b = pts[(i + 1) % pts.size()];
    const Vec2 normal = (b - a).perp().normalized();
    std::vector<Vec2> probes{a, lerp(a, b, 0.5), lerp(a, b, rng.uniform(0.0, 1.0))};
    for (double off : {1e-9, -1e-9, 0.5e-9, -0.5e-9, 2e-9, -2e-9, 3e-9,
                       -3e-9}) {
      probes.push_back(lerp(a, b, 0.5) + normal * off);
      probes.push_back(a + normal * off);
      probes.push_back(a + (b - a).normalized() * off);
    }
    for (Vec2 p : probes) {
      ASSERT_EQ(poly.contains(p), contains_every_edge(poly, p))
          << "edge " << i << " at (" << p.x << ", " << p.y << ")";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST_P(ContainsEdgeBox, AgreesOnRandomPoints) {
  const Polygon poly = shape();
  const BBox box = poly.bbox();
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 3);
  int inside = 0;
  for (int k = 0; k < 20000; ++k) {
    const Vec2 p{rng.uniform(box.lo.x - 10.0, box.hi.x + 10.0),
                 rng.uniform(box.lo.y - 10.0, box.hi.y + 10.0)};
    const bool want = contains_every_edge(poly, p);
    ASSERT_EQ(poly.contains(p), want) << "(" << p.x << ", " << p.y << ")";
    inside += want ? 1 : 0;
  }
  EXPECT_GT(inside, 1000);
  EXPECT_LT(inside, 19000);
}

INSTANTIATE_TEST_SUITE_P(BlobFlowerCircle, ContainsEdgeBox,
                         ::testing::Values(0, 1, 2));

TEST(Clip, HalfPlaneSquare) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  // Keep x <= 4.
  HalfPlane hp{{4, 0}, {1, 0}};
  Polygon clipped = clip(sq, hp);
  EXPECT_NEAR(clipped.area(), 40.0, 1e-9);
  for (Vec2 p : clipped.points()) {
    EXPECT_LE(p.x, 4.0 + 1e-9);
  }
}

TEST(Clip, BisectorKeepsCloserSide) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  Vec2 a{2, 5}, b{8, 5};
  Polygon cell = clip(sq, bisector_half_plane(a, b));
  EXPECT_NEAR(cell.area(), 50.0, 1e-9);
  EXPECT_TRUE(cell.contains({1, 5}));
  EXPECT_FALSE(cell.contains({9, 5}));
}

TEST(Clip, EmptyResult) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  HalfPlane hp{{-5, 0}, {1, 0}};  // keep x <= -5: nothing
  EXPECT_LT(clip(sq, hp).size(), 3u);
}

TEST(Clip, MultipleHalfPlanes) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  std::vector<HalfPlane> hps{{{4, 0}, {1, 0}}, {{0, 6}, {0, 1}}};
  Polygon c = clip(sq, hps);
  EXPECT_NEAR(c.area(), 24.0, 1e-9);
}

// Property: clipping a random convex polygon halves along a bisector
// conserves total area across the two sides.
class ClipProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClipProperty, BisectorPartitionsArea) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Polygon c = make_circle({0, 0}, 5.0 + rng.uniform(0.0, 5.0), 48);
  Vec2 a{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
  Vec2 b{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
  if (distance(a, b) < 1e-6) b = a + Vec2{1.0, 0.0};
  Polygon left = clip(c, bisector_half_plane(a, b));
  Polygon right = clip(c, bisector_half_plane(b, a));
  EXPECT_NEAR(left.area() + right.area(), c.area(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClipProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace anr
