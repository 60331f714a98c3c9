#include "harmonic/direct_solve.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"

namespace anr {

namespace {

using Index = std::size_t;

// Reverse Cuthill–McKee order of the pattern graph: new index -> unknown.
// Each component starts at a George–Liu pseudo-peripheral vertex found
// from its smallest-(degree, index) vertex; Cuthill–McKee then appends
// each vertex's unplaced neighbours by (degree, index). Every choice is a
// pure function of the pattern.
std::vector<Index> rcm_order(const std::vector<int>& astart,
                             const std::vector<int>& acol) {
  const Index n = astart.size() - 1;
  auto degree = [&](Index v) { return astart[v + 1] - astart[v]; };
  auto before = [&](Index a, Index b) {
    return degree(a) != degree(b) ? degree(a) < degree(b) : a < b;
  };
  auto neighbours = [&](Index v, auto&& visit) {
    for (int k = astart[v]; k < astart[v + 1]; ++k) {
      visit(static_cast<Index>(acol[static_cast<Index>(k)]));
    }
  };
  std::vector<char> placed(n, 0);
  std::vector<int> level(n, -1);
  std::vector<Index> bfs;
  // Level structure of `root`'s unplaced component into `bfs` / `level`;
  // returns its depth.
  auto levels_from = [&](Index root) {
    for (Index v : bfs) level[v] = -1;
    bfs.assign(1, root);
    level[root] = 0;
    for (Index h = 0; h < bfs.size(); ++h) {
      neighbours(bfs[h], [&](Index u) {
        if (placed[u] || level[u] >= 0) return;
        level[u] = level[bfs[h]] + 1;
        bfs.push_back(u);
      });
    }
    return level[bfs.back()];
  };

  std::vector<Index> order;
  order.reserve(n);
  std::vector<Index> fresh;
  for (Index seed = 0; seed < n; ++seed) {
    if (placed[seed]) continue;
    levels_from(seed);
    Index root = *std::min_element(bfs.begin(), bfs.end(), before);
    int depth = levels_from(root);
    for (;;) {
      Index far = root;
      for (Index v : bfs) {
        if (level[v] == depth && (far == root || before(v, far))) far = v;
      }
      const int far_depth = levels_from(far);
      if (far_depth <= depth) break;
      root = far;
      depth = far_depth;
    }
    order.push_back(root);
    placed[root] = 1;
    for (Index head = order.size() - 1; head < order.size(); ++head) {
      fresh.clear();
      neighbours(order[head], [&](Index u) {
        if (placed[u]) return;
        placed[u] = 1;
        fresh.push_back(u);
      });
      std::sort(fresh.begin(), fresh.end(), before);
      order.insert(order.end(), fresh.begin(), fresh.end());
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace

Status direct_solve(const std::vector<int>& astart,
                    const std::vector<int>& acol,
                    const std::vector<double>& aoff,
                    const std::vector<double>& adiag,
                    const std::vector<Vec2>& b, std::vector<Vec2>& x) {
  const Index n = adiag.size();
  ANR_CHECK(astart.size() == n + 1 && b.size() == n);
  ANR_CHECK(acol.size() == aoff.size() &&
            static_cast<Index>(astart.back()) == acol.size());

  const std::vector<Index> perm = rcm_order(astart, acol);
  std::vector<Index> inv(n);
  for (Index i = 0; i < n; ++i) inv[perm[i]] = i;

  // Envelope: row i of L and column i of U both span [first[i], i), the
  // union of the row's and the column's pattern, so elimination fills
  // nothing outside it. lower[env[i] + (k - first[i])] = L(i, k) and
  // upper[env[i] + (k - first[i])] = U(k, i).
  std::vector<Index> first(n);
  for (Index i = 0; i < n; ++i) first[i] = i;
  for (Index r = 0; r < n; ++r) {
    for (int k = astart[r]; k < astart[r + 1]; ++k) {
      const int c = acol[static_cast<Index>(k)];
      ANR_CHECK(c >= 0 && static_cast<Index>(c) < n &&
                static_cast<Index>(c) != r);
      const Index i = inv[r], j = inv[static_cast<Index>(c)];
      Index& f = first[std::max(i, j)];
      f = std::min(f, std::min(i, j));
    }
  }
  std::vector<Index> env(n + 1, 0);
  for (Index i = 0; i < n; ++i) env[i + 1] = env[i] + (i - first[i]);
  std::vector<double> lower(env[n], 0.0), upper(env[n], 0.0);
  std::vector<double> pivot(n);
  for (Index r = 0; r < n; ++r) {
    const Index i = inv[r];
    pivot[i] = adiag[r];
    for (int k = astart[r]; k < astart[r + 1]; ++k) {
      const Index j = inv[static_cast<Index>(acol[static_cast<Index>(k)])];
      const double a = aoff[static_cast<Index>(k)];
      if (j < i) {
        lower[env[i] + (j - first[i])] = a;
      } else {
        upper[env[j] + (i - first[j])] = a;
      }
    }
  }

  // Doolittle elimination, row i of L and column i of U together:
  //   U(j, i) = A(j, i) - sum_k L(j, k) U(k, i)
  //   L(i, j) = (A(i, j) - sum_k L(i, k) U(k, j)) / U(j, j)
  // over the k both envelopes hold, then the pivot U(i, i).
  for (Index i = 0; i < n; ++i) {
    const Index fi = first[i];
    double* li = lower.data() + env[i];
    double* ui = upper.data() + env[i];
    for (Index j = fi; j < i; ++j) {
      const Index fj = first[j];
      const double* lj = lower.data() + env[j];
      const double* uj = upper.data() + env[j];
      double su = 0.0, sl = 0.0;
      for (Index k = std::max(fi, fj); k < j; ++k) {
        su += lj[k - fj] * ui[k - fi];
        sl += li[k - fi] * uj[k - fj];
      }
      ui[j - fi] -= su;
      li[j - fi] = (li[j - fi] - sl) / pivot[j];
    }
    double s = 0.0;
    for (Index k = fi; k < i; ++k) s += li[k - fi] * ui[k - fi];
    pivot[i] -= s;
    if (!(std::isfinite(pivot[i]) && pivot[i] > 0.0)) {
      return Status::FailedPrecondition(
          "harmonic direct solve failed: pivot " + std::to_string(pivot[i]) +
          " of unknown " + std::to_string(i) + "/" + std::to_string(n) +
          " is not finite and positive");
    }
  }

  // Forward (L y = b) then backward (U x = y) substitution, both
  // coordinates at once, in place in y.
  std::vector<Vec2> y(n);
  for (Index i = 0; i < n; ++i) {
    const double* li = lower.data() + env[i];
    Vec2 acc = b[perm[i]];
    for (Index k = first[i]; k < i; ++k) acc -= y[k] * li[k - first[i]];
    y[i] = acc;
  }
  for (Index i = n; i-- > 0;) {
    const double* ui = upper.data() + env[i];
    const Vec2 xi = y[i] / pivot[i];
    y[i] = xi;
    for (Index k = first[i]; k < i; ++k) y[k] -= xi * ui[k - first[i]];
  }
  x.resize(n);
  for (Index i = 0; i < n; ++i) {
    if (!std::isfinite(y[i].x) || !std::isfinite(y[i].y)) {
      return Status::FailedPrecondition(
          "harmonic direct solve failed: non-finite solution");
    }
    x[perm[i]] = y[i];
  }
  return Status::Ok();
}

}  // namespace anr
