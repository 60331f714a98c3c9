#include "mesh/boundary.h"

#include <array>

#include "common/check.h"
#include "geom/polygon.h"

namespace anr {

double BoundaryLoop::length(const TriangleMesh& mesh) const {
  double len = 0.0;
  for (std::size_t i = 0, n = vertices.size(); i < n; ++i) {
    len += distance(mesh.position(vertices[i]),
                    mesh.position(vertices[(i + 1) % n]));
  }
  return len;
}

std::vector<BoundaryLoop> boundary_loops(const TriangleMesh& mesh) {
  // Adjacency restricted to boundary edges. On a vertex-manifold mesh every
  // boundary vertex has exactly two incident boundary edges, so the chains
  // close into simple cycles. The edges come sorted, so each vertex's two
  // boundary neighbours land in ascending order.
  const std::size_t nv = mesh.num_vertices();
  std::vector<std::array<VertexId, 2>> adj(nv, {-1, -1});
  std::vector<int> degree(nv, 0);
  auto link = [&](VertexId v, VertexId u) {
    int& d = degree[static_cast<std::size_t>(v)];
    if (d < 2) adj[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)] = u;
    ++d;
  };
  for (const EdgeKey& e : mesh.boundary_edges()) {
    link(e.a, e.b);
    link(e.b, e.a);
  }
  for (int d : degree) {
    ANR_CHECK_MSG(d == 0 || d == 2,
                  "boundary vertex without exactly two boundary edges "
                  "(non-manifold mesh?)");
  }

  // Each loop starts at its smallest vertex and steps first to that
  // vertex's smaller boundary neighbour.
  std::vector<BoundaryLoop> loops;
  std::vector<char> visited(nv, 0);
  for (std::size_t s = 0; s < nv; ++s) {
    if (degree[s] == 0 || visited[s]) continue;
    const auto start = static_cast<VertexId>(s);
    BoundaryLoop loop;
    VertexId prev = -1;
    VertexId cur = start;
    do {
      loop.vertices.push_back(cur);
      visited[static_cast<std::size_t>(cur)] = 1;
      const auto& candidates = adj[static_cast<std::size_t>(cur)];
      VertexId next = (candidates[0] == prev) ? candidates[1] : candidates[0];
      prev = cur;
      cur = next;
    } while (cur != start);
    ANR_CHECK(loop.vertices.size() >= 3);
    loops.push_back(std::move(loop));
  }
  return loops;
}

std::size_t outer_loop_index(const TriangleMesh& mesh,
                             const std::vector<BoundaryLoop>& loops) {
  ANR_CHECK(!loops.empty());
  std::size_t best = 0;
  double best_area = -1.0;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    BBox bb;
    for (VertexId v : loops[i].vertices) bb.expand(mesh.position(v));
    double area = bb.width() * bb.height();
    if (area > best_area) {
      best_area = area;
      best = i;
    }
  }
  return best;
}

}  // namespace anr
