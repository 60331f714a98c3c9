// Hungarian / Jonker–Volgenant assignment: exactness vs brute force,
// structure properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "common/check.h"
#include "matching/hungarian.h"
#include "test_util.h"

namespace anr {
namespace {

double brute_force_min_cost(const std::vector<std::vector<double>>& cost) {
  const std::size_t n = cost.size();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = 1e300;
  do {
    double c = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      c += cost[i][static_cast<std::size_t>(perm[i])];
    }
    best = std::min(best, c);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Hungarian, KnownSmallMatrix) {
  // Classic example: optimum is 5 (1 + 4) ... verify by hand: rows pick
  // (0,1)=2, (1,0)=3 -> 5 vs (0,0)=4,(1,1)=6 -> 10.
  auto res = solve_assignment({{4.0, 2.0}, {3.0, 6.0}});
  EXPECT_DOUBLE_EQ(res.total_cost, 5.0);
  EXPECT_EQ(res.row_to_col, (std::vector<int>{1, 0}));
}

TEST(Hungarian, Identity) {
  auto res = solve_assignment({{0.0, 9.0, 9.0}, {9.0, 0.0, 9.0}, {9.0, 9.0, 0.0}});
  EXPECT_DOUBLE_EQ(res.total_cost, 0.0);
  EXPECT_EQ(res.row_to_col, (std::vector<int>{0, 1, 2}));
}

TEST(Hungarian, SingleElement) {
  auto res = solve_assignment({{7.5}});
  EXPECT_DOUBLE_EQ(res.total_cost, 7.5);
}

TEST(Hungarian, IsPermutation) {
  auto from = testutil::random_points(40, 0.0, 100.0, 5);
  auto to = testutil::random_points(40, 0.0, 100.0, 6);
  auto res = min_distance_assignment(from, to);
  std::set<int> cols(res.row_to_col.begin(), res.row_to_col.end());
  EXPECT_EQ(cols.size(), from.size());  // perfect matching
}

TEST(Hungarian, RejectsNonSquare) {
  EXPECT_THROW(solve_assignment({{1.0, 2.0}, {3.0}}), ContractViolation);
}

TEST(Hungarian, RejectsNonFiniteCostsInsteadOfLooping) {
  // A row of infinite costs gives the augmenting search no finite step.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(solve_assignment({{1.0, 2.0}, {inf, inf}}), ContractViolation);
  EXPECT_THROW(solve_assignment({{std::nan(""), 2.0}, {3.0, 4.0}}),
               ContractViolation);
  // Finite coordinates whose distance overflows to infinity.
  EXPECT_THROW(min_distance_assignment({{1.7e308, 1.7e308}}, {{0.0, 0.0}}),
               ContractViolation);
}

// Property: matches brute force on random instances up to n=7.
class HungarianProperty : public ::testing::TestWithParam<int> {};

TEST_P(HungarianProperty, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  int n = 3 + GetParam() % 5;
  std::vector<std::vector<double>> cost(static_cast<std::size_t>(n),
                                        std::vector<double>(static_cast<std::size_t>(n)));
  for (auto& row : cost) {
    for (double& c : row) c = rng.uniform(0.0, 100.0);
  }
  auto res = solve_assignment(cost);
  EXPECT_NEAR(res.total_cost, brute_force_min_cost(cost), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(Hungarian, DistanceAssignmentBeatsIdentityAndRandom) {
  auto from = testutil::random_points(60, 0.0, 100.0, 50);
  auto to = testutil::random_points(60, 0.0, 100.0, 51);
  auto res = min_distance_assignment(from, to);
  double identity = 0.0;
  for (std::size_t i = 0; i < from.size(); ++i) identity += distance(from[i], to[i]);
  EXPECT_LE(res.total_cost, identity + 1e-9);
}

TEST(Hungarian, OptimalMatchingIsNonCrossing) {
  // In the plane, a min-cost Euclidean matching never crosses itself: for
  // matched pairs (a->x, b->y), swapping would not improve.
  auto from = testutil::random_points(30, 0.0, 50.0, 77);
  auto to = testutil::random_points(30, 0.0, 50.0, 78);
  auto res = min_distance_assignment(from, to);
  for (std::size_t i = 0; i < from.size(); ++i) {
    for (std::size_t j = i + 1; j < from.size(); ++j) {
      Vec2 xi = to[static_cast<std::size_t>(res.row_to_col[i])];
      Vec2 xj = to[static_cast<std::size_t>(res.row_to_col[j])];
      double keep = distance(from[i], xi) + distance(from[j], xj);
      double swap = distance(from[i], xj) + distance(from[j], xi);
      EXPECT_LE(keep, swap + 1e-9) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace anr
