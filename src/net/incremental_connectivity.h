// Incremental unit-disk connectivity for sequences of nearby configurations.
//
// Two callers probe many slightly-different configurations: the planner's
// connectivity-safe adjustment (Sec. III-D-1: the full Lloyd move, then
// collectively halved retries while the trial would split the network) and
// the sampled transition guard (consecutive instants 1/256 of the march
// apart). Building a fresh spatial index + adjacency + BFS per probe
// dominated both. This checker keeps its state alive across probes:
//
//   - Spanning-tree certificate. After every connected verdict it stores a
//     minimum spanning tree (n - 1 links, Kruskal by squared length) of
//     the edges it just built. The next call first re-tests only those
//     links; if every one is still in range the configuration is
//     connected — a spanning tree whose links are all unit-disk edges
//     proves it — and the call returns without touching the index, the
//     adjacency or the BFS. A minimum tree keeps the shortest links, so it
//     outlives a BFS tree under small motion. A disconnected verdict or a
//     change of n drops the certificate.
//   - Otherwise the full path runs: the GridIndex is rebuilt only when
//     positions have drifted more than half a communication range from the
//     indexed snapshot; in between, candidate pairs are enumerated from
//     the stale index with the query radius widened by the per-endpoint
//     displacement bound (a pair whose base distance exceeds
//     r + d_i + d_max cannot be linked now);
//   - the exact link test runs on the current positions, so the edge set
//     is exactly the unit-disk graph's;
//   - when the edge set is unchanged from the previous full probe the
//     cached verdict is returned without re-running BFS.
//
// Both paths use one link rule, distance2(a, b) <= r*r + 1e-12 — the
// inclusive test of GridIndex::visit_radius and unit_disk_adjacency — so a
// certificate hit can only say "connected" when the unit-disk graph is
// connected, and a miss falls through to the exact path. Verdicts are
// bit-for-bit the same booleans net::is_connected(pts, r) returns, just
// without the per-call allocations.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geom/grid_index.h"
#include "geom/vec2.h"

namespace anr::net {

class IncrementalConnectivity {
 public:
  explicit IncrementalConnectivity(double r);

  /// Connectivity of the unit-disk graph over `pts` with range r.
  /// Equivalent to net::is_connected(pts, r); amortized allocation-free.
  bool check(const std::vector<Vec2>& pts);

  /// Calls answered by the spanning-tree certificate alone.
  std::uint64_t certificate_hits() const { return certificate_hits_; }
  /// Calls that built the adjacency (every non-empty call that missed the
  /// certificate).
  std::uint64_t full_checks() const { return full_checks_; }

 private:
  bool certificate_holds(const std::vector<Vec2>& pts) const;
  bool bfs_connected(std::size_t n);
  void build_spanning_tree(const std::vector<Vec2>& pts);
  int find_root(int v);

  double r_;
  GridIndex index_;          // over base_
  std::vector<Vec2> base_;   // positions at the last index rebuild
  std::vector<double> drift_;

  // CSR adjacency of the latest full probe and the one before it (swapped).
  std::vector<int> deg_;
  std::vector<int> adj_start_, adj_;
  std::vector<int> prev_adj_start_, prev_adj_;

  std::vector<int> queue_;
  std::vector<char> visited_;

  bool have_prev_ = false;
  bool prev_connected_ = false;
  std::size_t prev_n_ = 0;

  // Certificate: the links of a spanning tree over tree_n_ points, valid
  // only when tree_n_ > 0; Kruskal scratch (candidate edges by squared
  // length, union-find parents) kept for allocation-free rebuilds.
  std::vector<std::pair<int, int>> tree_;
  std::size_t tree_n_ = 0;
  struct Edge {
    double d2 = 0.0;
    int a = 0, b = 0;
  };
  std::vector<Edge> edges_;
  std::vector<int> parent_;

  std::uint64_t certificate_hits_ = 0;
  std::uint64_t full_checks_ = 0;
};

}  // namespace anr::net
