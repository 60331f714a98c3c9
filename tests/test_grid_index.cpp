// Property tests: GridIndex vs brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geom/grid_index.h"
#include "test_util.h"

namespace anr {
namespace {

TEST(GridIndex, RadiusQueryMatchesBruteForce) {
  auto pts = testutil::random_points(400, 0.0, 100.0, 42);
  GridIndex idx(pts, 10.0);
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Vec2 q{rng.uniform(-10.0, 110.0), rng.uniform(-10.0, 110.0)};
    double r = rng.uniform(1.0, 30.0);
    auto got = idx.query_radius(q, r);
    std::sort(got.begin(), got.end());
    std::vector<int> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (distance(pts[i], q) <= r + 1e-12) want.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(GridIndex, NearestMatchesBruteForce) {
  auto pts = testutil::random_points(300, -50.0, 50.0, 11);
  GridIndex idx(pts, 7.0);
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    Vec2 q{rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)};
    int got = idx.nearest(q);
    int want = 0;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (distance2(pts[i], q) < distance2(pts[static_cast<std::size_t>(want)], q)) {
        want = static_cast<int>(i);
      }
    }
    ASSERT_GE(got, 0);
    EXPECT_NEAR(distance(pts[static_cast<std::size_t>(got)], q),
                distance(pts[static_cast<std::size_t>(want)], q), 1e-12)
        << "trial " << trial;
  }
}

TEST(GridIndex, KNearestSortedAndCorrect) {
  auto pts = testutil::random_points(200, 0.0, 10.0, 99);
  GridIndex idx(pts, 1.0);
  Vec2 q{5.0, 5.0};
  auto got = idx.k_nearest(q, 10);
  ASSERT_EQ(got.size(), 10u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(distance(pts[static_cast<std::size_t>(got[i - 1])], q),
              distance(pts[static_cast<std::size_t>(got[i])], q));
  }
  // The 10th-nearest via brute force matches.
  std::vector<double> dists;
  for (Vec2 p : pts) dists.push_back(distance(p, q));
  std::sort(dists.begin(), dists.end());
  EXPECT_NEAR(distance(pts[static_cast<std::size_t>(got.back())], q), dists[9],
              1e-12);
}

TEST(GridIndex, KNearestClampsToSize) {
  auto pts = testutil::random_points(5, 0.0, 1.0, 1);
  GridIndex idx(pts, 0.5);
  EXPECT_EQ(idx.k_nearest({0.5, 0.5}, 10).size(), 5u);
  EXPECT_TRUE(idx.k_nearest({0.5, 0.5}, 0).empty());
}

TEST(GridIndex, SinglePoint) {
  GridIndex idx({{3.0, 4.0}}, 1.0);
  EXPECT_EQ(idx.nearest({100.0, 100.0}), 0);
  EXPECT_EQ(idx.query_radius({3.0, 4.0}, 0.1).size(), 1u);
}

TEST(GridIndex, FarQueryStillFindsNearest) {
  auto pts = testutil::random_points(50, 0.0, 1.0, 5);
  GridIndex idx(pts, 0.1);
  EXPECT_GE(idx.nearest({1000.0, -500.0}), 0);
}

TEST(GridIndex, RadiusBoundaryIsInclusive) {
  // Points exactly at distance r must be reported (<= r semantics), even
  // when they sit on a cell border.
  std::vector<Vec2> pts = {{0.0, 0.0}, {5.0, 0.0}, {0.0, 5.0}, {3.0, 4.0},
                           {5.0 + 1e-6, 0.0}};
  GridIndex idx(pts, 5.0);
  auto got = idx.query_radius({0.0, 0.0}, 5.0);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(GridIndex, InclusiveSlackReachesAcrossCellBorder) {
  // The inclusive test accepts pairs up to sqrt(r^2 + 1e-12) apart. With
  // the query point just below a cell border, such a partner lies one cell
  // past q + r and must still be reported, from either end.
  const double r = 1.0;
  const double reach = std::sqrt(r * r + 0.5e-12);
  const Vec2 q{r - 0.5 * (reach - r), 0.0};
  const Vec2 p{q.x + reach, 0.0};
  ASSERT_LT(std::floor((q.x + r) / r), std::floor(p.x / r));
  ASSERT_LE(distance2(p, q), r * r + 1e-12);
  GridIndex idx(std::vector<Vec2>{q, p}, r);
  EXPECT_EQ(idx.query_radius(q, r), (std::vector<int>{0, 1}));
  EXPECT_EQ(idx.query_radius(p, r), (std::vector<int>{0, 1}));
}

TEST(GridIndex, EmptyIndexAndEmptyCells) {
  GridIndex empty;
  EXPECT_EQ(empty.nearest({0.0, 0.0}), -1);
  EXPECT_TRUE(empty.query_radius({0.0, 0.0}, 10.0).empty());
  EXPECT_TRUE(empty.k_nearest({0.0, 0.0}, 3).empty());

  // Sparse data: most cells in the bounding box are empty; queries landing
  // in them must scan cleanly and still find out-of-cell neighbors.
  std::vector<Vec2> pts = {{0.0, 0.0}, {100.0, 100.0}};
  GridIndex idx(pts, 1.0);
  EXPECT_TRUE(idx.query_radius({50.0, 50.0}, 5.0).empty());
  EXPECT_EQ(idx.nearest({49.0, 49.0}), 0);
  EXPECT_EQ(idx.nearest({51.0, 51.0}), 1);
}

TEST(GridIndex, VisitorMatchesVectorOverloads) {
  auto pts = testutil::random_points(300, 0.0, 50.0, 17);
  GridIndex idx(pts, 4.0);
  Rng rng(23);
  std::vector<int> buf;
  for (int trial = 0; trial < 40; ++trial) {
    Vec2 q{rng.uniform(-5.0, 55.0), rng.uniform(-5.0, 55.0)};
    double r = rng.uniform(0.5, 20.0);
    auto vec = idx.query_radius(q, r);
    idx.query_radius_into(q, r, buf);
    std::vector<int> visited;
    idx.visit_radius(q, r, [&](int i) { visited.push_back(i); });
    // Same ids in the same order across all three access paths.
    EXPECT_EQ(vec, visited) << "trial " << trial;
    EXPECT_EQ(vec, buf) << "trial " << trial;
  }
}

TEST(GridIndex, RebuildMatchesFreshIndex) {
  Rng rng(31);
  GridIndex reused;
  for (int round = 0; round < 5; ++round) {
    auto pts = testutil::random_points(200 + 30 * round, -20.0, 20.0,
                                       100 + round);
    double cell = rng.uniform(1.0, 8.0);
    reused.rebuild(pts, cell);
    GridIndex fresh(pts, cell);
    EXPECT_EQ(reused.size(), fresh.size());
    for (int trial = 0; trial < 20; ++trial) {
      Vec2 q{rng.uniform(-25.0, 25.0), rng.uniform(-25.0, 25.0)};
      double r = rng.uniform(1.0, 15.0);
      EXPECT_EQ(reused.query_radius(q, r), fresh.query_radius(q, r));
      EXPECT_EQ(reused.nearest(q), fresh.nearest(q));
    }
  }
}

}  // namespace
}  // namespace anr
