#include "harmonic/disk_map.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "geom/predicates.h"
#include "harmonic/direct_solve.h"
#include "harmonic/multigrid.h"
#include "mesh/boundary.h"

namespace anr {

namespace {

// Mean-value weight for directed edge i->j given the two triangles
// flanking it. w_ij = (tan(a/2) + tan(b/2)) / |ij| where a, b are the
// angles at vertex i in those triangles, adjacent to edge ij.
double mean_value_weight(const TriangleMesh& mesh, VertexId i, VertexId j) {
  Vec2 pi = mesh.position(i), pj = mesh.position(j);
  double r = distance(pi, pj);
  ANR_CHECK(r > 0.0);
  double w = 0.0;
  for (int ti : mesh.vertex_triangles(i)) {
    const Tri& t = mesh.triangles()[static_cast<std::size_t>(ti)];
    // Find the third vertex of a triangle containing both i and j.
    bool has_j = t[0] == j || t[1] == j || t[2] == j;
    if (!has_j) continue;
    VertexId k = -1;
    for (VertexId v : t) {
      if (v != i && v != j) k = v;
    }
    Vec2 pk = mesh.position(k);
    Vec2 u = (pj - pi).normalized();
    Vec2 v2 = (pk - pi).normalized();
    double ang = std::acos(std::clamp(u.dot(v2), -1.0, 1.0));
    w += std::tan(ang / 2.0);
  }
  return w / r;
}

// The interior system A x = b over the interior vertices in index order:
// A = diag(W_v) - [w_vu] with W_v the sum of v's weights, b the weighted
// pinned boundary positions. Row v's entries follow mesh.neighbors(v).
struct InteriorSystem {
  std::vector<int> ivert;  ///< mesh vertex of each unknown
  std::vector<int> astart, acol;
  std::vector<double> aoff, adiag;
  std::vector<Vec2> rhs;
};

InteriorSystem interior_system(const TriangleMesh& mesh,
                               const DiskMapOptions& opt,
                               const std::vector<char>& on_boundary,
                               const std::vector<Vec2>& boundary_pos) {
  const std::size_t n = mesh.num_vertices();
  InteriorSystem sys;
  std::vector<int> iidx(n, -1);
  std::size_t links = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (on_boundary[v]) continue;
    iidx[v] = static_cast<int>(sys.ivert.size());
    sys.ivert.push_back(static_cast<int>(v));
    links += mesh.neighbors(static_cast<VertexId>(v)).size();
  }
  sys.astart.reserve(sys.ivert.size() + 1);
  sys.acol.reserve(links);
  sys.aoff.reserve(links);
  sys.adiag.reserve(sys.ivert.size());
  sys.rhs.reserve(sys.ivert.size());
  sys.astart.push_back(0);
  for (int vi : sys.ivert) {
    const VertexId v = static_cast<VertexId>(vi);
    Vec2 rhs{0.0, 0.0};
    double wsum = 0.0;
    for (VertexId u : mesh.neighbors(v)) {
      double w;
      if (opt.custom_weight) {
        w = opt.custom_weight(mesh, v, u);
        ANR_CHECK_MSG(w > 0.0, "custom harmonic weight must be positive");
      } else {
        w = opt.weights == HarmonicWeights::kUniform
                ? 1.0
                : mean_value_weight(mesh, v, u);
      }
      wsum += w;
      const int ju = iidx[static_cast<std::size_t>(u)];
      if (ju >= 0) {
        sys.acol.push_back(ju);
        sys.aoff.push_back(-w);
      } else {
        rhs += boundary_pos[static_cast<std::size_t>(u)] * w;
      }
    }
    ANR_CHECK(wsum > 0.0);
    sys.astart.push_back(static_cast<int>(sys.acol.size()));
    sys.adiag.push_back(wsum);
    sys.rhs.push_back(rhs);
  }
  return sys;
}

}  // namespace

double DiskMap::embedding_quality(const TriangleMesh& mesh) const {
  if (mesh.num_triangles() == 0) return 1.0;
  std::size_t good = 0;
  for (const Tri& t : mesh.triangles()) {
    double a = signed_area2(disk_pos[static_cast<std::size_t>(t[0])],
                            disk_pos[static_cast<std::size_t>(t[1])],
                            disk_pos[static_cast<std::size_t>(t[2])]);
    if (a > 0.0) ++good;
  }
  return static_cast<double>(good) / static_cast<double>(mesh.num_triangles());
}

DiskMap harmonic_disk_map(const TriangleMesh& mesh, const DiskMapOptions& opt) {
  const std::size_t n = mesh.num_vertices();
  ANR_CHECK_MSG(mesh.vertex_manifold(), "harmonic map needs a manifold mesh");
  auto loops = boundary_loops(mesh);
  ANR_CHECK_MSG(loops.size() == 1,
                "harmonic map needs disk topology (fill holes first)");
  for (std::size_t v = 0; v < n; ++v) {
    ANR_CHECK_MSG(!mesh.vertex_triangles(static_cast<VertexId>(v)).empty(),
                  "harmonic map: unreferenced vertex (compact the mesh)");
  }

  const auto& loop = loops[0].vertices;
  DiskMap out;
  out.disk_pos.assign(n, Vec2{0.0, 0.0});
  out.on_boundary.assign(n, 0);

  // Pin boundary to the circle. Orientation: walk the loop in whichever
  // order boundary_loops returned; the map is equivariant under circle
  // reflection, and the rotation search absorbs the phase. For consistency
  // across runs, start angles at the smallest-id loop vertex and orient so
  // the loop is CCW in the disk.
  std::vector<VertexId> walk = loop;
  {
    // Orient the loop CCW in source coordinates so the disk map preserves
    // triangle orientation.
    double area2 = 0.0;
    for (std::size_t i = 0; i < walk.size(); ++i) {
      area2 += mesh.position(walk[i]).cross(
          mesh.position(walk[(i + 1) % walk.size()]));
    }
    if (area2 < 0.0) std::reverse(walk.begin(), walk.end());
  }
  std::size_t start = 0;
  for (std::size_t i = 0; i < walk.size(); ++i) {
    if (walk[i] < walk[start]) start = i;
  }
  std::vector<VertexId> ordered;
  ordered.reserve(walk.size());
  for (std::size_t i = 0; i < walk.size(); ++i) {
    ordered.push_back(walk[(start + i) % walk.size()]);
  }

  const std::size_t b = ordered.size();
  double total_len = 0.0;
  std::vector<double> cumulative(b, 0.0);
  for (std::size_t i = 0; i < b; ++i) {
    cumulative[i] = total_len;
    total_len += distance(mesh.position(ordered[i]),
                          mesh.position(ordered[(i + 1) % b]));
  }
  for (std::size_t i = 0; i < b; ++i) {
    double frac = opt.spacing == BoundarySpacing::kUniformHops
                      ? static_cast<double>(i) / static_cast<double>(b)
                      : cumulative[i] / total_len;
    double ang = 2.0 * M_PI * frac;
    out.disk_pos[static_cast<std::size_t>(ordered[i])] =
        Vec2{std::cos(ang), std::sin(ang)};
    out.on_boundary[static_cast<std::size_t>(ordered[i])] = 1;
  }

  InteriorSystem sys =
      interior_system(mesh, opt, out.on_boundary, out.disk_pos);
  const int interior_count = static_cast<int>(sys.adiag.size());
  const bool use_multigrid =
      opt.solver == HarmonicSolver::kMultigrid ||
      (opt.solver == HarmonicSolver::kAuto &&
       interior_count >= opt.multigrid_threshold);

  std::vector<Vec2> x(static_cast<std::size_t>(interior_count), Vec2{0.0, 0.0});
  bool converged = false;
  if (use_multigrid && interior_count > 0) {
    MultigridOptions mg_opt;
    mg_opt.tol = opt.tol;
    mg_opt.over_relax = opt.over_relax;
    MultigridResult mg_res;
    {
      MultigridSolver mg(std::move(sys.astart), std::move(sys.acol),
                         std::move(sys.aoff), std::move(sys.adiag), mg_opt);
      mg_res = mg.solve(x, sys.rhs);
    }
    out.used_multigrid = true;
    out.cycles = mg_res.cycles;
    out.sweeps = mg_res.fine_sweeps;
    // The smoother's max-move test skips NaN moves, so a diverged iterate
    // can pass it.
    converged = mg_res.converged &&
                std::all_of(x.begin(), x.end(), [](Vec2 p) {
                  return std::isfinite(p.x) && std::isfinite(p.y);
                });
    // The hierarchy took the operator; rebuild it for the direct fallback
    // (non-symmetric custom weights can defeat the Galerkin hierarchy).
    if (!converged) {
      sys = interior_system(mesh, opt, out.on_boundary, out.disk_pos);
    }
  }
  if (!converged) {
    out.status = direct_solve(sys.astart, sys.acol, sys.aoff, sys.adiag,
                              sys.rhs, x);
    converged = out.status.ok();
  }
  if (converged) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      out.disk_pos[static_cast<std::size_t>(sys.ivert[i])] = x[i];
    }
  }
  out.converged = converged;
  return out;
}

}  // namespace anr
