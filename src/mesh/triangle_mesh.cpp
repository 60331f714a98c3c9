#include "mesh/triangle_mesh.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "geom/predicates.h"

namespace anr {

EdgeIncidence edge_incidence(const std::vector<Tri>& tris, std::size_t num_vertices) {
  // Bucket each triangle side by its smaller endpoint (counting sort, in
  // triangle order), order each bucket by the larger endpoint, and number
  // the runs of equal endpoints as edges.
  struct Side {
    VertexId b;
    int slot;  // 3 * triangle + k
  };
  std::vector<int> start(num_vertices + 1, 0);
  for (const Tri& t : tris) {
    for (int k = 0; k < 3; ++k) {
      ++start[static_cast<std::size_t>(std::min(t[static_cast<std::size_t>(k)],
                                                 t[static_cast<std::size_t>((k + 1) % 3)])) + 1];
    }
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<Side> sides(3 * tris.size());
  std::vector<int> fill(start.begin(), start.end() - 1);
  for (std::size_t ti = 0; ti < tris.size(); ++ti) {
    const Tri& t = tris[ti];
    for (int k = 0; k < 3; ++k) {
      const EdgeKey e(t[static_cast<std::size_t>(k)], t[static_cast<std::size_t>((k + 1) % 3)]);
      sides[static_cast<std::size_t>(fill[static_cast<std::size_t>(e.a)]++)] =
          Side{e.b, static_cast<int>(3 * ti) + k};
    }
  }

  EdgeIncidence out;
  out.tri_edges.resize(3 * tris.size());
  out.tris.reserve(sides.size());
  out.offsets.push_back(0);
  for (std::size_t a = 0; a < num_vertices; ++a) {
    auto first = sides.begin() + start[a];
    auto last = sides.begin() + start[a + 1];
    // Slots grow with the triangle id, so each edge's triangles come out
    // ascending.
    std::sort(first, last, [](const Side& x, const Side& y) {
      return x.b != y.b ? x.b < y.b : x.slot < y.slot;
    });
    for (auto it = first; it != last; ++it) {
      if (it == first || it->b != (it - 1)->b) {
        if (it != first) out.offsets.push_back(static_cast<int>(out.tris.size()));
        out.edges.emplace_back(static_cast<VertexId>(a), it->b);
      }
      out.tris.push_back(it->slot / 3);
      out.tri_edges[static_cast<std::size_t>(it->slot)] = static_cast<int>(out.edges.size()) - 1;
    }
    if (first != last) out.offsets.push_back(static_cast<int>(out.tris.size()));
  }
  return out;
}

VertexIncidence vertex_incidence(const std::vector<Tri>& tris, std::size_t num_vertices) {
  VertexIncidence out;
  out.offsets.assign(num_vertices + 1, 0);
  for (const Tri& t : tris) {
    for (VertexId v : t) ++out.offsets[static_cast<std::size_t>(v) + 1];
  }
  std::partial_sum(out.offsets.begin(), out.offsets.end(), out.offsets.begin());
  out.tris.resize(static_cast<std::size_t>(out.offsets.back()));
  std::vector<int> fill(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t ti = 0; ti < tris.size(); ++ti) {
    for (VertexId v : tris[ti]) {
      out.tris[static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++)] =
          static_cast<int>(ti);
    }
  }
  return out;
}

int FanSplitter::find(int i) {
  while (parent_[static_cast<std::size_t>(i)] != i) {
    int& p = parent_[static_cast<std::size_t>(i)];
    p = parent_[static_cast<std::size_t>(p)];
    i = p;
  }
  return i;
}

int FanSplitter::split(const std::vector<Tri>& tris, VertexId v, std::span<const int> inc,
                       std::vector<int>& fan) {
  // Union the triangles that hold the same second vertex w: they share the
  // edge (v, w).
  ++round_;
  const std::size_t m = inc.size();
  parent_.resize(m);
  std::iota(parent_.begin(), parent_.end(), 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (VertexId w : tris[static_cast<std::size_t>(inc[i])]) {
      if (w == v) continue;
      const auto wi = static_cast<std::size_t>(w);
      if (seen_[wi] != round_) {
        seen_[wi] = round_;
        first_[wi] = static_cast<int>(i);
      } else {
        parent_[static_cast<std::size_t>(find(static_cast<int>(i)))] = find(first_[wi]);
      }
    }
  }
  label_.assign(m, -1);
  fan.resize(m);
  int fans = 0;
  for (std::size_t i = 0; i < m; ++i) {
    int& id = label_[static_cast<std::size_t>(find(static_cast<int>(i)))];
    if (id < 0) id = fans++;
    fan[i] = id;
  }
  return fans;
}

TriangleMesh::TriangleMesh(std::vector<Vec2> vertices, std::vector<Tri> triangles)
    : verts_(std::move(vertices)), tris_(std::move(triangles)) {
  for (const Tri& t : tris_) {
    for (VertexId v : t) {
      ANR_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < verts_.size(),
                    "triangle references missing vertex");
    }
  }
}

TriangleMesh::TriangleMesh(const TriangleMesh& other) {
  std::lock_guard<std::mutex> lock(other.adjacency_mutex_);
  verts_ = other.verts_;
  tris_ = other.tris_;
  if (other.adjacency_valid_.load(std::memory_order_acquire)) {
    adj_ = other.adj_;
    adjacency_valid_.store(true, std::memory_order_release);
  }
}

TriangleMesh& TriangleMesh::operator=(const TriangleMesh& other) {
  if (this == &other) return *this;
  TriangleMesh copy(other);
  *this = std::move(copy);
  return *this;
}

TriangleMesh::TriangleMesh(TriangleMesh&& other) noexcept
    : verts_(std::move(other.verts_)), tris_(std::move(other.tris_)) {
  // Moving from a mesh concurrently queried elsewhere is a caller bug
  // (same contract as std containers); no lock needed.
  if (other.adjacency_valid_.load(std::memory_order_acquire)) {
    adj_ = std::move(other.adj_);
    adjacency_valid_.store(true, std::memory_order_release);
  }
  other.adjacency_valid_.store(false, std::memory_order_release);
}

TriangleMesh& TriangleMesh::operator=(TriangleMesh&& other) noexcept {
  if (this == &other) return *this;
  verts_ = std::move(other.verts_);
  tris_ = std::move(other.tris_);
  if (other.adjacency_valid_.load(std::memory_order_acquire)) {
    adj_ = std::move(other.adj_);
    adjacency_valid_.store(true, std::memory_order_release);
  } else {
    adjacency_valid_.store(false, std::memory_order_release);
  }
  other.adjacency_valid_.store(false, std::memory_order_release);
  return *this;
}

VertexId TriangleMesh::add_vertex(Vec2 p) {
  invalidate();
  verts_.push_back(p);
  return static_cast<VertexId>(verts_.size() - 1);
}

void TriangleMesh::add_triangle(Tri t) {
  for (VertexId v : t) {
    ANR_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < verts_.size(),
                  "triangle references missing vertex");
  }
  invalidate();
  tris_.push_back(t);
}

void TriangleMesh::set_triangles(std::vector<Tri> tris) {
  invalidate();
  tris_ = std::move(tris);
}

void TriangleMesh::build_adjacency() const {
  if (adjacency_valid_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(adjacency_mutex_);
  if (adjacency_valid_.load(std::memory_order_relaxed)) return;
  const std::size_t nv = verts_.size();
  Adjacency adj;
  adj.vert_tris = vertex_incidence(tris_, nv);
  EdgeIncidence inc = edge_incidence(tris_, nv);
  adj.edges = std::move(inc.edges);
  adj.edge_counts.resize(adj.edges.size());
  for (std::size_t e = 0; e < adj.edges.size(); ++e) {
    adj.edge_counts[e] = inc.count(static_cast<int>(e));
  }

  // Neighbours from the sorted edges: every (a, v) edge has a <= v and
  // every (v, b) edge has b > v, so filling the smaller endpoints first,
  // then the larger ones, leaves each list sorted.
  adj.nbr_offsets.assign(nv + 1, 0);
  for (const EdgeKey& e : adj.edges) {
    ++adj.nbr_offsets[static_cast<std::size_t>(e.b) + 1];
    if (e.a != e.b) ++adj.nbr_offsets[static_cast<std::size_t>(e.a) + 1];
  }
  std::partial_sum(adj.nbr_offsets.begin(), adj.nbr_offsets.end(), adj.nbr_offsets.begin());
  adj.nbr.resize(static_cast<std::size_t>(adj.nbr_offsets.back()));
  adj.nbr_edges.resize(adj.nbr.size());
  std::vector<int> fill(adj.nbr_offsets.begin(), adj.nbr_offsets.end() - 1);
  auto push = [&](VertexId v, VertexId u, std::size_t e) {
    const auto slot = static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++);
    adj.nbr[slot] = u;
    adj.nbr_edges[slot] = static_cast<int>(e);
  };
  for (std::size_t e = 0; e < adj.edges.size(); ++e) push(adj.edges[e].b, adj.edges[e].a, e);
  for (std::size_t e = 0; e < adj.edges.size(); ++e) {
    if (adj.edges[e].a != adj.edges[e].b) push(adj.edges[e].a, adj.edges[e].b, e);
  }
  adj_ = std::move(adj);
  adjacency_valid_.store(true, std::memory_order_release);
}

std::span<const VertexId> TriangleMesh::neighbors(VertexId v) const {
  build_adjacency();
  const auto i = static_cast<std::size_t>(v);
  return {adj_.nbr.data() + adj_.nbr_offsets[i],
          static_cast<std::size_t>(adj_.nbr_offsets[i + 1] - adj_.nbr_offsets[i])};
}

int TriangleMesh::edge_id(VertexId u, VertexId v) const {
  const auto i = static_cast<std::size_t>(u);
  const auto first = adj_.nbr.begin() + adj_.nbr_offsets[i];
  const auto last = adj_.nbr.begin() + adj_.nbr_offsets[i + 1];
  const auto it = std::lower_bound(first, last, v);
  if (it == last || *it != v) return -1;
  return adj_.nbr_edges[static_cast<std::size_t>(it - adj_.nbr.begin())];
}

std::vector<EdgeKey> TriangleMesh::edges() const {
  build_adjacency();
  return adj_.edges;
}

int TriangleMesh::edge_triangle_count(VertexId u, VertexId v) const {
  build_adjacency();
  const int e = edge_id(u, v);
  return e < 0 ? 0 : adj_.edge_counts[static_cast<std::size_t>(e)];
}

std::vector<EdgeKey> TriangleMesh::boundary_edges() const {
  build_adjacency();
  std::vector<EdgeKey> out;
  for (std::size_t e = 0; e < adj_.edges.size(); ++e) {
    if (adj_.edge_counts[e] == 1) out.push_back(adj_.edges[e]);
  }
  return out;
}

bool TriangleMesh::is_boundary_vertex(VertexId v) const {
  build_adjacency();
  const auto i = static_cast<std::size_t>(v);
  for (int s = adj_.nbr_offsets[i]; s < adj_.nbr_offsets[i + 1]; ++s) {
    if (adj_.edge_counts[static_cast<std::size_t>(adj_.nbr_edges[static_cast<std::size_t>(s)])] == 1) {
      return true;
    }
  }
  return false;
}

std::span<const int> TriangleMesh::vertex_triangles(VertexId v) const {
  build_adjacency();
  return adj_.vert_tris.triangles(v);
}

bool TriangleMesh::edge_manifold() const {
  build_adjacency();
  for (int cnt : adj_.edge_counts) {
    if (cnt > 2) return false;
  }
  return true;
}

bool TriangleMesh::vertex_manifold() const {
  build_adjacency();
  if (!edge_manifold()) return false;
  // A vertex is manifold when its incident triangles form one fan. A
  // triangle listed twice at v repeats v and is never manifold.
  FanSplitter splitter(verts_.size());
  std::vector<int> fan;
  for (std::size_t v = 0; v < verts_.size(); ++v) {
    const std::span<const int> inc = adj_.vert_tris.triangles(static_cast<VertexId>(v));
    if (inc.empty()) continue;
    if (std::adjacent_find(inc.begin(), inc.end()) != inc.end()) return false;
    if (splitter.split(tris_, static_cast<VertexId>(v), inc, fan) != 1) return false;
  }
  return true;
}

int TriangleMesh::euler_characteristic() const {
  build_adjacency();
  // Count only vertices referenced by at least one triangle; free vertices
  // are bookkeeping, not topology.
  int used = 0;
  for (std::size_t v = 0; v < verts_.size(); ++v) {
    if (!adj_.vert_tris.triangles(static_cast<VertexId>(v)).empty()) ++used;
  }
  return used - static_cast<int>(adj_.edges.size()) +
         static_cast<int>(tris_.size());
}

bool TriangleMesh::all_ccw() const {
  for (const Tri& t : tris_) {
    if (signed_area2(position(t[0]), position(t[1]), position(t[2])) <= 0.0) {
      return false;
    }
  }
  return true;
}

void TriangleMesh::make_ccw() {
  bool changed = false;
  for (Tri& t : tris_) {
    if (signed_area2(position(t[0]), position(t[1]), position(t[2])) < 0.0) {
      std::swap(t[1], t[2]);
      changed = true;
    }
  }
  if (changed) invalidate();
}

CompactedMesh compact_vertices(const TriangleMesh& mesh) {
  CompactedMesh out;
  out.old_to_new.assign(mesh.num_vertices(), -1);
  std::vector<Vec2> verts;
  std::vector<Tri> tris;
  tris.reserve(mesh.num_triangles());
  for (const Tri& t : mesh.triangles()) {
    Tri nt{};
    for (std::size_t k = 0; k < 3; ++k) {
      int& slot = out.old_to_new[static_cast<std::size_t>(t[k])];
      if (slot < 0) {
        slot = static_cast<int>(verts.size());
        verts.push_back(mesh.position(t[k]));
        out.new_to_old.push_back(t[k]);
      }
      nt[k] = slot;
    }
    tris.push_back(nt);
  }
  out.mesh = TriangleMesh(std::move(verts), std::move(tris));
  return out;
}

}  // namespace anr
