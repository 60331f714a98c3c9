#include "matching/hungarian.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace anr {

AssignmentResult solve_assignment(const std::vector<std::vector<double>>& cost) {
  const int n = static_cast<int>(cost.size());
  ANR_CHECK(n > 0);
  for (const auto& row : cost) {
    ANR_CHECK_MSG(static_cast<int>(row.size()) == n, "cost matrix not square");
    // An infinite row never yields a finite delta, so the augmenting
    // search below would loop forever.
    for (double c : row) {
      ANR_CHECK_MSG(std::isfinite(c), "non-finite assignment cost");
    }
  }
  const double kInf = std::numeric_limits<double>::infinity();

  // Jonker–Volgenant with 1-based potentials; standard O(n^3) formulation.
  std::vector<double> u(static_cast<std::size_t>(n) + 1, 0.0);
  std::vector<double> v(static_cast<std::size_t>(n) + 1, 0.0);
  std::vector<int> p(static_cast<std::size_t>(n) + 1, 0);    // col -> row match
  std::vector<int> way(static_cast<std::size_t>(n) + 1, 0);  // col -> prev col

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(static_cast<std::size_t>(n) + 1, kInf);
    std::vector<char> used(static_cast<std::size_t>(n) + 1, 0);
    do {
      used[static_cast<std::size_t>(j0)] = 1;
      int i0 = p[static_cast<std::size_t>(j0)];
      double delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)]) continue;
        double cur = cost[static_cast<std::size_t>(i0 - 1)]
                         [static_cast<std::size_t>(j - 1)] -
                     u[static_cast<std::size_t>(i0)] -
                     v[static_cast<std::size_t>(j)];
        if (cur < minv[static_cast<std::size_t>(j)]) {
          minv[static_cast<std::size_t>(j)] = cur;
          way[static_cast<std::size_t>(j)] = j0;
        }
        if (minv[static_cast<std::size_t>(j)] < delta) {
          delta = minv[static_cast<std::size_t>(j)];
          j1 = j;
        }
      }
      for (int j = 0; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)]) {
          u[static_cast<std::size_t>(p[static_cast<std::size_t>(j)])] += delta;
          v[static_cast<std::size_t>(j)] -= delta;
        } else {
          minv[static_cast<std::size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (p[static_cast<std::size_t>(j0)] != 0);
    do {
      int j1 = way[static_cast<std::size_t>(j0)];
      p[static_cast<std::size_t>(j0)] = p[static_cast<std::size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult out;
  out.row_to_col.assign(static_cast<std::size_t>(n), -1);
  for (int j = 1; j <= n; ++j) {
    out.row_to_col[static_cast<std::size_t>(p[static_cast<std::size_t>(j)] - 1)] =
        j - 1;
  }
  for (int i = 0; i < n; ++i) {
    out.total_cost += cost[static_cast<std::size_t>(i)][static_cast<std::size_t>(
        out.row_to_col[static_cast<std::size_t>(i)])];
  }
  return out;
}

AssignmentResult min_distance_assignment(const std::vector<Vec2>& from,
                                         const std::vector<Vec2>& to) {
  ANR_CHECK_MSG(from.size() == to.size(), "assignment needs equal sizes");
  const std::size_t n = from.size();
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cost[i][j] = distance(from[i], to[j]);
    }
  }
  return solve_assignment(cost);
}

}  // namespace anr
