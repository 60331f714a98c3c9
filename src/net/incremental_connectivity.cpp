#include "net/incremental_connectivity.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/check.h"

namespace anr::net {

IncrementalConnectivity::IncrementalConnectivity(double r) : r_(r) {
  ANR_CHECK(r_ > 0.0);
}

bool IncrementalConnectivity::check(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  if (n == 0) return true;
  if (tree_n_ == n && certificate_holds(pts)) {
    ++certificate_hits_;
    return true;
  }
  ++full_checks_;

  bool rebuild = !have_prev_ || n != prev_n_ || base_.size() != n;
  double dmax = 0.0;
  if (!rebuild) {
    drift_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      drift_[i] = distance(pts[i], base_[i]);
      dmax = std::max(dmax, drift_[i]);
    }
    // A widely drifted snapshot makes the widened queries scan too many
    // cells; re-anchor the index instead.
    rebuild = dmax > 0.5 * r_;
  }
  if (rebuild) {
    base_.assign(pts.begin(), pts.end());
    index_.rebuild(pts, r_);
    drift_.assign(n, 0.0);
    dmax = 0.0;
  }

  std::swap(adj_start_, prev_adj_start_);
  std::swap(adj_, prev_adj_);

  // Pass 1: degrees under the exact link rule on current positions.
  deg_.assign(n, 0);
  const double r2 = r_ * r_;
  for (std::size_t i = 0; i < n; ++i) {
    // Candidates from the (possibly stale) index: a pair linked now has
    // base distance <= r + drift_i + drift_j; bound drift_j by dmax.
    double rq = r_ + drift_[i] + dmax + 1e-9;
    index_.visit_radius(pts[i], rq, [&](int j) {
      if (static_cast<std::size_t>(j) == i) return;
      if (distance2(pts[i], pts[static_cast<std::size_t>(j)]) <= r2 + 1e-12) {
        ++deg_[i];
      }
    });
  }
  adj_start_.resize(n + 1);
  adj_start_[0] = 0;
  for (std::size_t i = 0; i < n; ++i) adj_start_[i + 1] = adj_start_[i] + deg_[i];
  adj_.resize(static_cast<std::size_t>(adj_start_[n]));
  deg_.assign(n, 0);  // reuse as fill cursor
  for (std::size_t i = 0; i < n; ++i) {
    double rq = r_ + drift_[i] + dmax + 1e-9;
    index_.visit_radius(pts[i], rq, [&](int j) {
      if (static_cast<std::size_t>(j) == i) return;
      if (distance2(pts[i], pts[static_cast<std::size_t>(j)]) <= r2 + 1e-12) {
        adj_[static_cast<std::size_t>(adj_start_[i] + deg_[i]++)] = j;
      }
    });
  }

  // Same edge set as the previous full probe => same verdict, skip the BFS.
  if (!(have_prev_ && n == prev_n_ && adj_start_ == prev_adj_start_ &&
        adj_ == prev_adj_)) {
    prev_connected_ = bfs_connected(n);
    prev_n_ = n;
    have_prev_ = true;
  }
  if (prev_connected_) {
    build_spanning_tree(pts);
  } else {
    tree_n_ = 0;
  }
  return prev_connected_;
}

bool IncrementalConnectivity::certificate_holds(
    const std::vector<Vec2>& pts) const {
  const double r2 = r_ * r_;
  for (const auto& [a, b] : tree_) {
    if (distance2(pts[static_cast<std::size_t>(a)],
                  pts[static_cast<std::size_t>(b)]) > r2 + 1e-12) {
      return false;
    }
  }
  return true;
}

int IncrementalConnectivity::find_root(int v) {
  while (parent_[static_cast<std::size_t>(v)] != v) {
    int& p = parent_[static_cast<std::size_t>(v)];
    p = parent_[static_cast<std::size_t>(p)];  // path halving
    v = p;
  }
  return v;
}

void IncrementalConnectivity::build_spanning_tree(
    const std::vector<Vec2>& pts) {
  // Kruskal over the CSR edge set (each undirected edge once, i < j) by
  // squared length; ties break on the endpoints so the tree is
  // deterministic.
  const std::size_t n = pts.size();
  edges_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = adj_start_[i]; k < adj_start_[i + 1]; ++k) {
      const int j = adj_[static_cast<std::size_t>(k)];
      if (static_cast<std::size_t>(j) > i) {
        edges_.push_back({distance2(pts[i], pts[static_cast<std::size_t>(j)]),
                          static_cast<int>(i), j});
      }
    }
  }
  std::sort(edges_.begin(), edges_.end(), [](const Edge& x, const Edge& y) {
    return std::tie(x.d2, x.a, x.b) < std::tie(y.d2, y.a, y.b);
  });
  parent_.resize(n);
  for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  tree_.clear();
  for (const Edge& e : edges_) {
    const int ra = find_root(e.a), rb = find_root(e.b);
    if (ra == rb) continue;
    parent_[static_cast<std::size_t>(ra)] = rb;
    tree_.emplace_back(e.a, e.b);
    if (tree_.size() + 1 == n) break;
  }
  ANR_CHECK(tree_.size() + 1 == n);
  tree_n_ = n;
}

bool IncrementalConnectivity::bfs_connected(std::size_t n) {
  visited_.assign(n, 0);
  queue_.clear();
  queue_.push_back(0);
  visited_[0] = 1;
  std::size_t head = 0, seen = 1;
  while (head < queue_.size()) {
    int v = queue_[head++];
    for (int k = adj_start_[static_cast<std::size_t>(v)];
         k < adj_start_[static_cast<std::size_t>(v) + 1]; ++k) {
      int u = adj_[static_cast<std::size_t>(k)];
      if (!visited_[static_cast<std::size_t>(u)]) {
        visited_[static_cast<std::size_t>(u)] = 1;
        ++seen;
        queue_.push_back(u);
      }
    }
  }
  return seen == n;
}

}  // namespace anr::net
