#include "foi/foi_mesher.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "geom/predicates.h"
#include "mesh/alpha_extract.h"
#include "mesh/delaunay.h"

namespace anr {

FoiMesh mesh_foi(const FieldOfInterest& foi, const MesherOptions& opt) {
  ANR_CHECK(opt.target_grid_points >= 16);
  double area = foi.area();
  ANR_CHECK_MSG(area > 0.0, "cannot mesh zero-area FoI");
  // Triangular lattice: each point "owns" (sqrt(3)/2) h^2 of area.
  double h = std::sqrt(2.0 * area /
                       (std::sqrt(3.0) * static_cast<double>(opt.target_grid_points)));

  std::vector<Vec2> pts;
  std::vector<char> on_boundary;
  auto add_loop = [&](const Polygon& loop) {
    Polygon dense = loop.densified(h);
    for (Vec2 p : dense.points()) {
      pts.push_back(p);
      on_boundary.push_back(1);
    }
  };
  add_loop(foi.outer());
  for (const Polygon& hole : foi.holes()) add_loop(hole);

  Rng rng(opt.seed);
  for (Vec2 p : foi.lattice_points(h, 0.45 * h)) {
    double j = opt.jitter_frac * h;
    pts.push_back(p + Vec2{rng.uniform(-j, j), rng.uniform(-j, j)});
    on_boundary.push_back(0);
  }
  ANR_CHECK_MSG(pts.size() >= 16, "FoI too small for requested grid");

  TriangleMesh dt = delaunay(pts);
  std::vector<Tri> kept;
  double max_edge2 = (2.5 * h) * (2.5 * h);
  for (const Tri& t : dt.triangles()) {
    Vec2 a = pts[static_cast<std::size_t>(t[0])];
    Vec2 b = pts[static_cast<std::size_t>(t[1])];
    Vec2 c = pts[static_cast<std::size_t>(t[2])];
    if (distance2(a, b) > max_edge2 || distance2(b, c) > max_edge2 ||
        distance2(c, a) > max_edge2) {
      continue;
    }
    // Drop (near-)zero-area slivers that exactly collinear boundary chains
    // can leave behind; they carry no area and would break manifold checks.
    if (std::abs(signed_area2(a, b, c)) < 2e-6 * h * h) continue;
    if (!foi.contains((a + b + c) / 3.0)) continue;
    kept.push_back(t);
  }
  AlphaExtraction cleaned = clean_to_manifold(TriangleMesh(pts, std::move(kept)));

  // Keep only the vertices the cleaned triangles reference.
  CompactedMesh compact = compact_vertices(cleaned.mesh);
  FoiMesh out;
  out.mesh = std::move(compact.mesh);
  for (VertexId v : compact.new_to_old) {
    out.on_boundary.push_back(on_boundary[static_cast<std::size_t>(v)]);
  }
  out.spacing = h;
  out.mesh.make_ccw();
  out.vertex_index =
      std::make_shared<GridIndex>(out.mesh.positions(), std::max(h, 1e-9));
  return out;
}

}  // namespace anr
