// Trajectories: timing, lengths, obstacle detours.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "foi/shapes.h"
#include "march/trajectory.h"
#include "test_util.h"

namespace anr {
namespace {

TEST(Trajectory, LinearInterpolation) {
  Trajectory t;
  t.append({0, 0}, 0.0);
  t.append({10, 0}, 1.0);
  EXPECT_EQ(t.position(0.5), (Vec2{5, 0}));
  EXPECT_EQ(t.position(-1.0), (Vec2{0, 0}));  // clamped
  EXPECT_EQ(t.position(2.0), (Vec2{10, 0}));
  EXPECT_DOUBLE_EQ(t.length(), 10.0);
}

TEST(Trajectory, MultiSegmentLengths) {
  Trajectory t;
  t.append({0, 0}, 0.0);
  t.append({3, 0}, 1.0);
  t.append({3, 4}, 2.0);
  EXPECT_DOUBLE_EQ(t.length(), 7.0);
  EXPECT_DOUBLE_EQ(t.length_between(0.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(t.length_between(1.0, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(t.length_between(0.5, 1.5), 3.5);
}

TEST(Trajectory, RejectsTimeTravel) {
  Trajectory t;
  t.append({0, 0}, 1.0);
  EXPECT_THROW(t.append({1, 1}, 0.5), ContractViolation);
}

TEST(TimedPath, StraightWhenClear) {
  Trajectory t = make_timed_path({0, 0}, {10, 10}, 0.0, 1.0, {});
  EXPECT_EQ(t.num_waypoints(), 2u);
  EXPECT_NEAR(t.length(), distance({0, 0}, {10, 10}), 1e-12);
  EXPECT_DOUBLE_EQ(t.start_time(), 0.0);
  EXPECT_DOUBLE_EQ(t.end_time(), 1.0);
}

TEST(TimedPath, DetoursAroundSquareObstacle) {
  Polygon ob = make_rect({4, -2}, {6, 2});
  Trajectory t = make_timed_path({0, 0}, {10, 0}, 0.0, 1.0, {ob});
  EXPECT_GT(t.num_waypoints(), 2u);
  EXPECT_GT(t.length(), 10.0);
  // The path must not pass strictly inside the obstacle.
  for (int k = 0; k <= 200; ++k) {
    Vec2 p = t.position(k / 200.0);
    EXPECT_FALSE(ob.contains(p) && ob.boundary_distance(p) > 1e-6)
        << "entered obstacle at t=" << k / 200.0;
  }
  // Endpoints and arrival time preserved.
  EXPECT_EQ(t.position(0.0), (Vec2{0, 0}));
  EXPECT_EQ(t.position(1.0), (Vec2{10, 0}));
}

TEST(TimedPath, TakesShorterArc) {
  // Obstacle offset below the line: going over the top is shorter.
  Polygon ob({{4, -5}, {6, -5}, {6, 1}, {4, 1}});
  Trajectory t = make_timed_path({0, 0}, {10, 0}, 0.0, 1.0, {ob});
  // Max detour should go through y ~ 1 (top), not y ~ -5 (bottom).
  double min_y = 1e300, max_y = -1e300;
  for (int k = 0; k <= 100; ++k) {
    Vec2 p = t.position(k / 100.0);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  EXPECT_GE(min_y, -1.0);
  EXPECT_NEAR(max_y, 1.0, 0.1);
}

TEST(TimedPath, CircleObstacle) {
  Polygon ob = make_circle({5, 0}, 2.0, 32);
  Trajectory t = make_timed_path({0, 0}, {10, 0}, 0.0, 2.0, {ob});
  EXPECT_GT(t.length(), 10.0);
  EXPECT_LT(t.length(), 10.0 + 2.0 * M_PI * 2.0);  // less than full circle
  for (int k = 0; k <= 300; ++k) {
    Vec2 p = t.position(2.0 * k / 300.0);
    EXPECT_GE(distance(p, Vec2(5, 0)), 2.0 - 0.05);
  }
}

TEST(TimedPath, MultipleObstacles) {
  std::vector<Polygon> obs{make_circle({3, 0}, 1.0, 24),
                           make_circle({7, 0}, 1.0, 24)};
  Trajectory t = make_timed_path({0, 0}, {10, 0}, 0.0, 1.0, obs);
  for (int k = 0; k <= 300; ++k) {
    Vec2 p = t.position(k / 300.0);
    EXPECT_GE(distance(p, Vec2(3, 0)), 0.95);
    EXPECT_GE(distance(p, Vec2(7, 0)), 0.95);
  }
}

TEST(TimedPath, UntouchedObstacleIgnored) {
  Polygon ob = make_circle({50, 50}, 5.0, 16);
  Trajectory t = make_timed_path({0, 0}, {10, 0}, 0.0, 1.0, {ob});
  EXPECT_EQ(t.num_waypoints(), 2u);
}

TEST(TimedPath, ZeroLengthPath) {
  Trajectory t = make_timed_path({5, 5}, {5, 5}, 0.0, 1.0, {});
  EXPECT_EQ(t.position(0.5), (Vec2{5, 5}));
  EXPECT_DOUBLE_EQ(t.length(), 0.0);
}

TEST(TimedPath, ConstantSpeed) {
  Polygon ob = make_rect({4, -2}, {6, 2});
  Trajectory t = make_timed_path({0, 0}, {10, 0}, 0.0, 1.0, {ob});
  double total = t.length();
  // Arc length traversed grows linearly in time.
  for (int k = 1; k <= 10; ++k) {
    double frac = k / 10.0;
    EXPECT_NEAR(t.length_between(0.0, frac), total * frac, total * 0.02);
  }
}

TEST(RouteAround, EmptyWhenClear) {
  EXPECT_TRUE(route_around({0, 0}, {1, 1}, {}).empty());
  EXPECT_TRUE(
      route_around({0, 0}, {1, 1}, {make_circle({10, 10}, 1.0, 8)}).empty());
}

TEST(TimedPath, ConcaveFlowerObstacle) {
  // The paper's pond is concave; the wall-following detour must still
  // stay out of every petal notch.
  Polygon flower = make_blob({5.0, 0.0}, 2.0, {{5, 0.35, 0.0}}, 60);
  Trajectory t = make_timed_path({0, 0}, {10, 0}, 0.0, 1.0, {flower});
  EXPECT_GT(t.num_waypoints(), 2u);
  for (int k = 0; k <= 400; ++k) {
    Vec2 p = t.position(k / 400.0);
    bool strictly_in =
        flower.contains(p) && flower.boundary_distance(p) > 1e-6;
    EXPECT_FALSE(strictly_in) << "entered flower at t=" << k / 400.0;
  }
}

// Fuzz: random segments against random circle obstacles — the routed path
// never enters an obstacle interior and always reaches the goal on time.
class RouteFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RouteFuzz, NeverEntersObstacles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131u);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Polygon> obstacles;
    std::vector<Vec2> centers;
    std::vector<double> radii;
    int count = rng.uniform_int(1, 3);
    for (int o = 0; o < count; ++o) {
      Vec2 c{rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)};
      double r = rng.uniform(2.0, 5.0);
      // Keep obstacles disjoint (the detour contract assumes it).
      bool overlaps = false;
      for (std::size_t j = 0; j < centers.size(); ++j) {
        if (distance(c, centers[j]) < r + radii[j] + 1.0) overlaps = true;
      }
      if (overlaps) continue;
      centers.push_back(c);
      radii.push_back(r);
      obstacles.push_back(make_circle(c, r, 24));
    }
    Vec2 a{rng.uniform(-40.0, -30.0), rng.uniform(-40.0, 40.0)};
    Vec2 b{rng.uniform(30.0, 40.0), rng.uniform(-40.0, 40.0)};
    Trajectory t = make_timed_path(a, b, 0.0, 1.0, obstacles);
    EXPECT_EQ(t.position(0.0), a);
    EXPECT_EQ(t.position(1.0), b);
    for (int k = 0; k <= 300; ++k) {
      Vec2 p = t.position(k / 300.0);
      for (std::size_t o = 0; o < centers.size(); ++o) {
        EXPECT_GE(distance(p, centers[o]), radii[o] * 0.97)
            << "trial " << trial << " obstacle " << o;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteFuzz, ::testing::Values(1, 2, 3, 4));

// --- append_timed_step: the no-hole fast path -------------------------------

// A step appended by append_timed_step must carry exactly the waypoints and
// times of make_timed_path, whether it took the fast path or routed.
void expect_step_matches(const std::vector<Polygon>& holes,
                         const std::vector<BBox>& boxes, Vec2 p, Vec2 q,
                         double t0, double t1) {
  Trajectory fast;
  fast.append(p, t0);
  append_timed_step(fast, p, q, t0, t1, holes, boxes);
  const Trajectory ref = make_timed_path(p, q, t0, t1, holes);
  ASSERT_EQ(fast.num_waypoints(), ref.num_waypoints());
  for (std::size_t w = 0; w < ref.num_waypoints(); ++w) {
    ASSERT_EQ(fast.waypoints()[w].x, ref.waypoints()[w].x) << "waypoint " << w;
    ASSERT_EQ(fast.waypoints()[w].y, ref.waypoints()[w].y) << "waypoint " << w;
    ASSERT_EQ(fast.times()[w], ref.times()[w]) << "waypoint " << w;
  }
}

bool strictly_in_any(const std::vector<Polygon>& holes, Vec2 p) {
  for (const Polygon& h : holes) {
    if (h.contains(p) && h.boundary_distance(p) > 1e-9) return true;
  }
  return false;
}

TEST(TimedStep, NoHoleFastPathMatchesMakeTimedPath) {
  const Polygon flower = make_flower({0.0, 0.0}, 40.0, 5, 0.35);
  const Polygon pond =
      make_blob({150.0, 20.0}, 35.0, {{2, 0.12, 0.4}, {5, 0.3, 1.3}}, 90);
  const Polygon rect = make_rect({60.0, -90.0}, {110.0, -50.0});
  const std::vector<std::vector<Polygon>> layouts{
      {flower}, {pond}, {rect}, {flower, pond, rect}};
  Rng rng(41);
  int fast_steps = 0, grazing_fast = 0, routed = 0;
  for (const std::vector<Polygon>& holes : layouts) {
    const std::vector<BBox> boxes = obstacle_boxes(holes);
    BBox area;
    for (const BBox& b : boxes) area.expand(b);
    auto misses_all = [&](Vec2 p, Vec2 q) {
      for (const BBox& b : boxes) {
        if (std::max(p.x, q.x) >= b.lo.x && std::min(p.x, q.x) <= b.hi.x &&
            std::max(p.y, q.y) >= b.lo.y && std::min(p.y, q.y) <= b.hi.y) {
          return false;
        }
      }
      return true;
    };
    for (int trial = 0; trial < 3000; ++trial) {
      const double t0 = rng.uniform(0.0, 200.0);
      const double t1 = t0 + rng.uniform(1e-6, 20.0);
      const double a = rng.uniform(0.0, 6.283185307179586);
      const Vec2 dir{std::cos(a), std::sin(a)};
      Vec2 p{rng.uniform(area.lo.x - 30.0, area.hi.x + 30.0),
             rng.uniform(area.lo.y - 30.0, area.hi.y + 30.0)};
      Vec2 q;
      bool grazing = false;
      switch (trial % 5) {
        case 0:  // short step
          q = p + dir * rng.uniform(0.0, 3.0);
          break;
        case 1:  // long step, often across a hole
          q = p + dir * rng.uniform(10.0, 150.0);
          break;
        case 2: {  // parallel to a box side, just outside or inside its pad
          const BBox& b = boxes[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(boxes.size()) - 1))];
          const double off = std::vector<double>{-1e-9, 0.0, 1e-12, 1e-9,
                                                 3e-8}[trial / 5 % 5];
          const double y0 = rng.uniform(b.lo.y - 5.0, b.hi.y + 5.0);
          p = {b.lo.x - off, y0};
          q = {b.lo.x - off - rng.uniform(0.0, 1e-6),
               y0 + rng.uniform(-20.0, 20.0)};
          grazing = true;
          break;
        }
        case 3: {  // ends on a hole boundary
          const Polygon& h = holes[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(holes.size()) - 1))];
          const std::size_t i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(h.size()) - 1));
          q = lerp(h[i], h[(i + 1) % h.size()], rng.uniform(0.0, 1.0));
          p = q + dir * rng.uniform(0.0, 30.0);
          break;
        }
        default:  // zero-length step
          q = p;
          break;
      }
      if (strictly_in_any(holes, p) || strictly_in_any(holes, q)) continue;
      SCOPED_TRACE(testing::Message() << "trial " << trial);
      expect_step_matches(holes, boxes, p, q, t0, t1);
      if (HasFatalFailure()) return;
      if (misses_all(p, q)) {
        ++fast_steps;
        if (grazing) ++grazing_fast;
      } else if (make_timed_path(p, q, t0, t1, holes).num_waypoints() > 2) {
        ++routed;
      }
    }
  }
  // Every kind of step was exercised: fast, fast within a hair of a box
  // pad, and detoured.
  EXPECT_GT(fast_steps, 3000);
  EXPECT_GT(grazing_fast, 200);
  EXPECT_GT(routed, 200);
}

}  // namespace
}  // namespace anr
