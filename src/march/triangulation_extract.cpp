#include "march/triangulation_extract.h"

#include <algorithm>

#include "common/check.h"
#include "mesh/delaunay.h"
#include "net/unit_disk_graph.h"

namespace anr {

namespace {

// Triangles = 3-cliques of the kept links (each robot can form these from
// its own and its neighbors' keep lists), cleaned to a manifold. `links`
// is ascending and unique.
ExtractionResult mesh_from_links(const std::vector<Vec2>& positions,
                                 const std::vector<EdgeKey>& links,
                                 std::size_t messages) {
  // Ascending links append each vertex's smaller neighbors, then its larger
  // ones, in order: every list comes out sorted.
  std::vector<std::vector<int>> kept_adj(positions.size());
  for (const EdgeKey& e : links) {
    kept_adj[static_cast<std::size_t>(e.a)].push_back(e.b);
    kept_adj[static_cast<std::size_t>(e.b)].push_back(e.a);
  }
  // Each triangle once, from its smallest edge: merge the common
  // neighbors w > b of a and b.
  std::vector<Tri> tris;
  for (const EdgeKey& e : links) {
    const auto& na = kept_adj[static_cast<std::size_t>(e.a)];
    const auto& nbb = kept_adj[static_cast<std::size_t>(e.b)];
    auto ia = std::upper_bound(na.begin(), na.end(), e.b);
    auto ib = std::upper_bound(nbb.begin(), nbb.end(), e.b);
    while (ia != na.end() && ib != nbb.end()) {
      if (*ia < *ib) {
        ++ia;
      } else if (*ib < *ia) {
        ++ib;
      } else {
        tris.push_back(Tri{e.a, e.b, *ia});
        ++ia;
        ++ib;
      }
    }
  }
  auto cleaned = clean_to_manifold(TriangleMesh(positions, std::move(tris)));
  ExtractionResult out;
  out.mesh = std::move(cleaned.mesh);
  out.unmeshed = std::move(cleaned.unmeshed);
  out.messages = messages;
  return out;
}

}  // namespace

ExtractionResult extract_triangulation(const std::vector<Vec2>& positions,
                                       double r_c) {
  auto ex = alpha_extract(positions, r_c);
  ExtractionResult out;
  out.mesh = std::move(ex.mesh);
  out.unmeshed = std::move(ex.unmeshed);
  out.messages = 0;
  return out;
}

ExtractionResult extract_triangulation_gabriel(
    const std::vector<Vec2>& positions, double r_c) {
  const int n = static_cast<int>(positions.size());
  auto adj = net::unit_disk_adjacency(positions, r_c);

  // One beacon round gives each robot its neighbors' positions; the
  // Gabriel test for edge (u, v) only consults common neighbors (any
  // witness inside the diameter disk is within r_c of both ends).
  std::size_t messages = 0;
  for (const auto& nb : adj) messages += nb.size();

  // Rows are sorted, so the kept edges come out ascending.
  std::vector<EdgeKey> kept_edges;
  for (int u = 0; u < n; ++u) {
    for (int v : adj[static_cast<std::size_t>(u)]) {
      if (v <= u) continue;
      Vec2 mid = (positions[static_cast<std::size_t>(u)] +
                  positions[static_cast<std::size_t>(v)]) *
                 0.5;
      double rad2 = distance2(positions[static_cast<std::size_t>(u)], mid);
      bool witness = false;
      for (int w : adj[static_cast<std::size_t>(u)]) {
        if (w == v) continue;
        if (distance2(positions[static_cast<std::size_t>(w)], mid) <
            rad2 - 1e-12) {
          witness = true;
          break;
        }
      }
      if (!witness) kept_edges.emplace_back(u, v);
    }
  }

  return mesh_from_links(positions, kept_edges, messages);
}

ExtractionResult extract_triangulation_distributed(
    const std::vector<Vec2>& positions, double r_c) {
  const int n = static_cast<int>(positions.size());
  auto adj = net::unit_disk_adjacency(positions, r_c);

  // Beacon round: every robot broadcasts its position (1 message per
  // directed link).
  std::size_t messages = 0;
  for (const auto& nb : adj) messages += nb.size();

  // Each robot computes the Delaunay triangulation of {self} + neighbors
  // and keeps incident edges (<= r_c). This uses only local knowledge.
  std::vector<std::vector<int>> keeps(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto& nb = adj[static_cast<std::size_t>(v)];
    if (nb.size() < 2) continue;  // cannot form a local triangle
    std::vector<Vec2> local;
    std::vector<int> ids;
    local.push_back(positions[static_cast<std::size_t>(v)]);
    ids.push_back(v);
    for (int u : nb) {
      local.push_back(positions[static_cast<std::size_t>(u)]);
      ids.push_back(u);
    }
    TriangleMesh dt;
    try {
      dt = delaunay(local);
    } catch (const ContractViolation&) {
      continue;  // collinear local neighborhood: keep nothing
    }
    auto& keep = keeps[static_cast<std::size_t>(v)];
    for (VertexId j : dt.neighbors(0)) {  // edges incident to self
      keep.push_back(ids[static_cast<std::size_t>(j)]);
    }
    std::sort(keep.begin(), keep.end());
  }

  // Agreement round: robots exchange keep-lists with neighbors (1 message
  // per directed link); a link survives iff both ends keep it.
  for (const auto& nb : adj) messages += nb.size();
  std::vector<EdgeKey> kept_edges;  // ascending: v, then u, ascending
  for (int v = 0; v < n; ++v) {
    for (int u : keeps[static_cast<std::size_t>(v)]) {
      const auto& back = keeps[static_cast<std::size_t>(u)];
      if (u > v && std::binary_search(back.begin(), back.end(), v)) {
        kept_edges.emplace_back(v, u);
      }
    }
  }

  return mesh_from_links(positions, kept_edges, messages);
}

}  // namespace anr
