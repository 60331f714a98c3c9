#include "mesh/alpha_extract.h"

#include <algorithm>

#include "common/check.h"
#include "mesh/delaunay.h"

namespace anr {

namespace {

// Edge-connected components of `tris`, numbered in order of their smallest
// triangle. Returns the component of each triangle and each one's size.
std::pair<std::vector<int>, std::vector<int>> triangle_components(
    const std::vector<Tri>& tris, std::size_t num_vertices) {
  const EdgeIncidence inc = edge_incidence(tris, num_vertices);
  std::vector<int> comp(tris.size(), -1);
  std::vector<int> sizes;
  std::vector<int> stack;
  for (std::size_t seed = 0; seed < tris.size(); ++seed) {
    if (comp[seed] >= 0) continue;
    const int id = static_cast<int>(sizes.size());
    sizes.push_back(0);
    stack.assign(1, static_cast<int>(seed));
    comp[seed] = id;
    while (!stack.empty()) {
      const int ti = stack.back();
      stack.pop_back();
      ++sizes[static_cast<std::size_t>(id)];
      for (int k = 0; k < 3; ++k) {
        for (int tj : inc.triangles(inc.tri_edges[static_cast<std::size_t>(3 * ti + k)])) {
          if (comp[static_cast<std::size_t>(tj)] < 0) {
            comp[static_cast<std::size_t>(tj)] = id;
            stack.push_back(tj);
          }
        }
      }
    }
  }
  return {std::move(comp), std::move(sizes)};
}

}  // namespace

AlphaExtraction clean_to_manifold(TriangleMesh mesh) {
  // Iterate: keep the largest edge-connected component, then break bowties
  // by dropping all but the largest fan at each non-manifold vertex (fans
  // and components ordered by their smallest triangle, ties to the first).
  // Each pass strictly removes triangles, so this terminates.
  const std::size_t nv = mesh.num_vertices();
  std::vector<Tri> tris = mesh.triangles();
  FanSplitter splitter(nv);
  std::vector<int> fan;
  std::vector<int> fan_sizes;
  for (int pass = 0; pass < 64 && !tris.empty(); ++pass) {
    auto [comp, sizes] = triangle_components(tris, nv);
    const int largest = static_cast<int>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
    std::vector<Tri> kept;
    kept.reserve(tris.size());
    for (std::size_t ti = 0; ti < tris.size(); ++ti) {
      if (comp[ti] == largest) kept.push_back(tris[ti]);
    }
    tris = std::move(kept);

    // Bowtie fans, all judged on the same triangle set.
    const VertexIncidence vinc = vertex_incidence(tris, nv);
    std::vector<char> drop(tris.size(), 0);
    bool dropped_fan = false;
    for (std::size_t v = 0; v < nv; ++v) {
      const std::span<const int> at_v = vinc.triangles(static_cast<VertexId>(v));
      if (at_v.size() < 2) continue;
      const int fans = splitter.split(tris, static_cast<VertexId>(v), at_v, fan);
      if (fans <= 1) continue;
      fan_sizes.assign(static_cast<std::size_t>(fans), 0);
      for (int f : fan) ++fan_sizes[static_cast<std::size_t>(f)];
      const int best = static_cast<int>(
          std::max_element(fan_sizes.begin(), fan_sizes.end()) - fan_sizes.begin());
      for (std::size_t i = 0; i < at_v.size(); ++i) {
        if (fan[i] != best) drop[static_cast<std::size_t>(at_v[i])] = 1;
      }
      dropped_fan = true;
    }
    // One component without bowties: a further pass would change nothing.
    if (!dropped_fan) break;
    std::size_t out = 0;
    for (std::size_t ti = 0; ti < tris.size(); ++ti) {
      if (!drop[ti]) tris[out++] = tris[ti];
    }
    tris.resize(out);
  }
  mesh.set_triangles(std::move(tris));
  ANR_CHECK_MSG(mesh.vertex_manifold(), "cleanup failed to reach manifold");
  mesh.make_ccw();

  AlphaExtraction out;
  out.mesh = std::move(mesh);
  for (std::size_t v = 0; v < out.mesh.num_vertices(); ++v) {
    if (out.mesh.vertex_triangles(static_cast<VertexId>(v)).empty()) {
      out.unmeshed.push_back(static_cast<VertexId>(v));
    }
  }
  return out;
}

AlphaExtraction alpha_extract(const std::vector<Vec2>& pts, double alpha) {
  ANR_CHECK(alpha > 0.0);
  TriangleMesh dt = delaunay(pts);
  std::vector<Tri> kept;
  double a2 = alpha * alpha;
  for (const Tri& t : dt.triangles()) {
    Vec2 a = pts[static_cast<std::size_t>(t[0])];
    Vec2 b = pts[static_cast<std::size_t>(t[1])];
    Vec2 c = pts[static_cast<std::size_t>(t[2])];
    if (distance2(a, b) <= a2 && distance2(b, c) <= a2 && distance2(c, a) <= a2) {
      kept.push_back(t);
    }
  }
  return clean_to_manifold(TriangleMesh(pts, std::move(kept)));
}

}  // namespace anr
