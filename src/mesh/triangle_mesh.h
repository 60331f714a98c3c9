// Indexed triangle mesh with adjacency queries.
//
// This is the shared mesh representation for (1) the triangulation T
// extracted from the robots' connectivity graph in M1 and (2) the gridded
// triangulation of the target FoI M2. Both get harmonic-mapped to the unit
// disk, so the mesh must expose boundary structure and vertex neighborhoods.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "geom/vec2.h"

namespace anr {

/// Vertex index into a TriangleMesh.
using VertexId = int;

/// Triangle as a CCW triple of vertex indices.
using Tri = std::array<VertexId, 3>;

/// Undirected edge with ordered endpoints (a < b).
struct EdgeKey {
  VertexId a;
  VertexId b;

  EdgeKey(VertexId u, VertexId v) : a(u < v ? u : v), b(u < v ? v : u) {}
  auto operator<=>(const EdgeKey&) const = default;
};

/// Edge -> triangle incidence of a triangle list in CSR form: the unique
/// undirected edges in ascending EdgeKey order, each with the ascending ids
/// of the triangles that use it. Built by counting sort, O(V + F).
struct EdgeIncidence {
  std::vector<EdgeKey> edges;
  std::vector<int> offsets;    ///< edge e's triangles: tris[offsets[e], offsets[e+1])
  std::vector<int> tris;
  std::vector<int> tri_edges;  ///< 3 per triangle: edge id of (t[k], t[k+1])

  int count(int e) const {
    return offsets[static_cast<std::size_t>(e) + 1] - offsets[static_cast<std::size_t>(e)];
  }
  std::span<const int> triangles(int e) const {
    return {tris.data() + offsets[static_cast<std::size_t>(e)],
            static_cast<std::size_t>(count(e))};
  }
};

/// Incidence of `tris`, whose vertex ids are below `num_vertices`.
EdgeIncidence edge_incidence(const std::vector<Tri>& tris, std::size_t num_vertices);

/// Vertex -> triangle incidence in CSR form: vertex v's triangles are
/// tris[offsets[v], offsets[v+1]), ascending (a triangle that repeats v is
/// listed once per occurrence).
struct VertexIncidence {
  std::vector<int> offsets;
  std::vector<int> tris;

  std::span<const int> triangles(VertexId v) const {
    const auto i = static_cast<std::size_t>(v);
    return {tris.data() + offsets[i], static_cast<std::size_t>(offsets[i + 1] - offsets[i])};
  }
};

/// Incidence of `tris`, whose vertex ids are below `num_vertices`.
VertexIncidence vertex_incidence(const std::vector<Tri>& tris, std::size_t num_vertices);

/// Splits the triangles around one vertex into fans: two triangles at v
/// are in one fan when a chain of triangles sharing an edge through v links
/// them. Linear in the number of triangles at v.
class FanSplitter {
 public:
  explicit FanSplitter(std::size_t num_vertices)
      : seen_(num_vertices, 0), first_(num_vertices, 0) {}

  /// `inc` lists v's triangles (ids into `tris`, ascending, each with three
  /// distinct vertices). Writes each one's fan id to `fan` (fans numbered in
  /// order of their smallest triangle) and returns the number of fans.
  int split(const std::vector<Tri>& tris, VertexId v, std::span<const int> inc,
            std::vector<int>& fan);

 private:
  int find(int i);

  std::vector<int> seen_;     // per vertex w: the split() call that last saw w
  std::vector<int> first_;    // per vertex w: index in inc of the first triangle holding w
  std::vector<int> parent_;   // union-find over the triangles at v
  std::vector<int> label_;    // per fan root: its fan id
  int round_ = 0;
};

/// Indexed triangle mesh. Vertices carry 2D positions; triangles index
/// into the vertex array. Adjacency (vertex neighbors, vertex->triangle and
/// edge incidence, all CSR) is rebuilt lazily after structural edits.
///
/// Thread safety: const queries (including the lazy adjacency build they
/// trigger) are safe to call concurrently on a shared mesh — the runtime
/// layer plans from one cached planner on many worker threads. Structural
/// edits still require external synchronization against all other access.
class TriangleMesh {
 public:
  TriangleMesh() = default;
  TriangleMesh(std::vector<Vec2> vertices, std::vector<Tri> triangles);

  // The adjacency cache carries a mutex, so copies/moves are spelled out
  // (they transfer the geometry and any built cache, never the lock).
  TriangleMesh(const TriangleMesh& other);
  TriangleMesh& operator=(const TriangleMesh& other);
  TriangleMesh(TriangleMesh&& other) noexcept;
  TriangleMesh& operator=(TriangleMesh&& other) noexcept;

  // --- structure -----------------------------------------------------------

  VertexId add_vertex(Vec2 p);
  void add_triangle(Tri t);
  void set_triangles(std::vector<Tri> tris);

  std::size_t num_vertices() const { return verts_.size(); }
  std::size_t num_triangles() const { return tris_.size(); }

  Vec2 position(VertexId v) const { return verts_[static_cast<std::size_t>(v)]; }
  void set_position(VertexId v, Vec2 p) { verts_[static_cast<std::size_t>(v)] = p; }
  const std::vector<Vec2>& positions() const { return verts_; }
  const std::vector<Tri>& triangles() const { return tris_; }

  // --- adjacency (valid after build_adjacency; rebuilt automatically) ------

  /// Recomputes neighbor lists and edge incidence. Called automatically by
  /// the queries below when the mesh changed since the last build.
  void build_adjacency() const;

  /// Sorted unique neighbor vertex ids of v (vertices sharing an edge).
  /// Valid until the next structural edit.
  std::span<const VertexId> neighbors(VertexId v) const;

  /// All undirected edges, ascending.
  std::vector<EdgeKey> edges() const;

  /// Number of triangles incident to edge (u, v); 0 when no such edge.
  int edge_triangle_count(VertexId u, VertexId v) const;

  /// Edges incident to exactly one triangle, ascending.
  std::vector<EdgeKey> boundary_edges() const;

  /// True when v lies on some boundary edge.
  bool is_boundary_vertex(VertexId v) const;

  /// Triangle indices incident to vertex v, ascending. Valid until the
  /// next structural edit.
  std::span<const int> vertex_triangles(VertexId v) const;

  // --- validation ----------------------------------------------------------

  /// True when every edge has at most two incident triangles.
  bool edge_manifold() const;

  /// True when each vertex's incident triangles form a single fan
  /// (no bowtie vertices). Implies edge_manifold over those triangles.
  bool vertex_manifold() const;

  /// Euler characteristic V - E + F.
  int euler_characteristic() const;

  /// True when every triangle has positive signed area (consistent CCW).
  bool all_ccw() const;

  /// Orients every triangle CCW by its vertex positions.
  void make_ccw();

 private:
  void invalidate() { adjacency_valid_.store(false, std::memory_order_release); }

  // Edge id of (u, v), or -1. Adjacency must be built.
  int edge_id(VertexId u, VertexId v) const;

  struct Adjacency {
    VertexIncidence vert_tris;
    std::vector<int> nbr_offsets;  // vertex v's neighbours: nbr[nbr_offsets[v], ...)
    std::vector<VertexId> nbr;
    std::vector<int> nbr_edges;    // edge id of (v, nbr[i]), parallel to nbr
    std::vector<EdgeKey> edges;
    std::vector<int> edge_counts;  // triangles per edge
  };

  std::vector<Vec2> verts_;
  std::vector<Tri> tris_;

  // Lazily-built adjacency caches. Double-checked: the atomic flag makes
  // the fast path lock-free once built; the mutex serializes the build so
  // concurrent const queries never race on the cache vectors.
  mutable std::atomic<bool> adjacency_valid_{false};
  mutable std::mutex adjacency_mutex_;
  mutable Adjacency adj_;
};

/// A mesh renumbered to the vertices its triangles reference.
struct CompactedMesh {
  TriangleMesh mesh;
  std::vector<int> old_to_new;       ///< -1 for unreferenced vertices
  std::vector<VertexId> new_to_old;
};

/// Drops the vertices no triangle references and renumbers the rest in
/// order of first appearance in the triangle list (same triangle order).
CompactedMesh compact_vertices(const TriangleMesh& mesh);

}  // namespace anr
