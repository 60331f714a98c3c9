// Mesh kernels behind steps 1-2 (Delaunay, TriangleMesh adjacency,
// manifold cleanup, boundary loops, T compaction): byte goldens on five
// point sets, and brute-force oracles over random triangle soups.
//
// The goldens pin the exact triangle lists, so any change to insertion
// order, tie-breaks or cleanup order shows up as a diff. Each golden holds
// the delaunay() triangle list, the alpha_extract result (as ranges of
// kept Delaunay triangles: the cleanup only ever drops triangles), its
// unmeshed vertices, mesh_stats, boundary loops and the compact_t ring.
//
// Regenerate (only when an intentional change to T lands) with
//   ANR_REGEN_GOLDEN=1 ./test_mesh_kernels
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "foi/foi_mesher.h"
#include "foi/scenario.h"
#include "march/stages.h"
#include "mesh/alpha_extract.h"
#include "mesh/boundary.h"
#include "mesh/delaunay.h"
#include "mesh/mesh_quality.h"
#include "test_util.h"

namespace anr {
namespace {

#ifndef ANR_GOLDEN_DIR
#define ANR_GOLDEN_DIR "golden"
#endif

// ---------------------------------------------------------------------------
// Inputs

// Exact 70 x 70 square lattice, spacing 10: every cell is cocircular.
std::vector<Vec2> square_lattice_points() {
  std::vector<Vec2> pts;
  for (int y = 0; y < 70; ++y) {
    for (int x = 0; x < 70; ++x) pts.push_back({10.0 * x, 10.0 * y});
  }
  return pts;
}

// The point set mesh_foi triangulates for scenario 3's M2 at the planner's
// default mesher options: densified boundary chains (exactly collinear
// runs) followed by jittered interior lattice points. Returns the lattice
// spacing through `h_out`.
std::vector<Vec2> scenario3_foi_points(double& h_out) {
  const FieldOfInterest foi = scenario(3).m2_shape;
  const MesherOptions opt;
  const double h = std::sqrt(
      2.0 * foi.area() /
      (std::sqrt(3.0) * static_cast<double>(opt.target_grid_points)));
  std::vector<Vec2> pts;
  auto add_loop = [&](const Polygon& loop) {
    const Polygon dense = loop.densified(h);
    for (Vec2 p : dense.points()) pts.push_back(p);
  };
  add_loop(foi.outer());
  for (const Polygon& hole : foi.holes()) add_loop(hole);
  Rng rng(opt.seed);
  for (Vec2 p : foi.lattice_points(h, 0.45 * h)) {
    const double j = opt.jitter_frac * h;
    pts.push_back(p + Vec2{rng.uniform(-j, j), rng.uniform(-j, j)});
  }
  h_out = h;
  return pts;
}

// Nearly collinear chain: 300 points within 1e-3 of a 1000-long line
// (every third exactly on it up to 1e-7), closed by two far apexes. Its
// borderline conflict tests pinch the insertion cavity: this seed goes
// through the Delaunay pinch repair five times, and the four inputs above
// never do.
std::vector<Vec2> near_collinear_chain() {
  Rng rng(5);
  std::vector<Vec2> pts;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0.0, 1000.0);
    const double y = 1e-7 * rng.uniform(-1.0, 1.0);
    const double lift = (i % 3) * rng.uniform(0.0, 1e-3);
    pts.push_back({x, y + lift});
  }
  pts.push_back({500.0, 300.0});
  pts.push_back({500.0, -300.0});
  return pts;
}

// ---------------------------------------------------------------------------
// Report

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

void write_tris(std::ostringstream& os, const std::vector<Tri>& tris) {
  for (const Tri& t : tris) os << t[0] << ' ' << t[1] << ' ' << t[2] << '\n';
}

template <typename Ints>
void write_ints(std::ostringstream& os, const Ints& v) {
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? " " : "") << v[i];
  os << '\n';
}

std::string kernel_report(const std::vector<Vec2>& pts, double alpha) {
  std::ostringstream os;
  const TriangleMesh dt = delaunay(pts);
  os << "points " << pts.size() << '\n';
  os << "delaunay " << dt.num_triangles() << '\n';
  write_tris(os, dt.triangles());

  // The kept triangles, as ranges over the Delaunay list; the test fails
  // if they are not an in-order subsequence of it.
  const AlphaExtraction ex = alpha_extract(pts, alpha);
  const auto& all = dt.triangles();
  const auto& kept = ex.mesh.triangles();
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t di = 0;
  for (const Tri& t : kept) {
    while (di < all.size() && all[di] != t) ++di;
    EXPECT_LT(di, all.size()) << "alpha triangle not in the Delaunay order";
    if (di >= all.size()) break;
    if (!ranges.empty() && ranges.back().second + 1 == di) {
      ranges.back().second = di;
    } else {
      ranges.emplace_back(di, di);
    }
    ++di;
  }
  os << "alpha " << num(alpha) << " kept " << kept.size() << '\n';
  for (const auto& [lo, hi] : ranges) os << lo << '-' << hi << '\n';
  os << "unmeshed " << ex.unmeshed.size() << '\n';
  write_ints(os, ex.unmeshed);

  const MeshStats s = mesh_stats(ex.mesh);
  os << "stats V=" << s.vertices << " F=" << s.triangles << " E=" << s.edges
     << " bE=" << s.boundary_edges << " loops=" << s.boundary_loops
     << " chi=" << s.euler << " angle=[" << num(s.min_angle_deg) << ", "
     << num(s.max_angle_deg) << "] edge=[" << num(s.min_edge) << ", "
     << num(s.max_edge) << "] mean_edge=" << num(s.mean_edge)
     << " area=" << num(s.total_area) << '\n';

  const auto loops = boundary_loops(ex.mesh);
  os << "loops " << loops.size() << '\n';
  for (const BoundaryLoop& loop : loops) {
    os << loop.vertices.size() << ':';
    for (VertexId v : loop.vertices) os << ' ' << v;
    os << '\n';
  }

  const CompactT t = compact_t(ex.mesh);
  os << "ring " << t.ring.size() << '\n';
  write_ints(os, t.ring);
  return os.str();
}

void expect_kernel_golden(const std::string& name,
                          const std::vector<Vec2>& pts, double alpha) {
  testutil::expect_golden(
      std::string(ANR_GOLDEN_DIR) + "/mesh_kernels_" + name + ".txt",
      kernel_report(pts, alpha));
}

TEST(MeshKernelGolden, Swarm4kJitteredLattice) {
  expect_kernel_golden("swarm4k", testutil::swarm_4k_points(),
                       scenario(1).comm_range);
}

TEST(MeshKernelGolden, ExactSquareLattice70) {
  // 1.5 x spacing keeps the cell diagonals.
  expect_kernel_golden("square70", square_lattice_points(), 15.0);
}

TEST(MeshKernelGolden, Scenario3FoiPoints) {
  double h = 0.0;
  std::vector<Vec2> pts = scenario3_foi_points(h);
  // mesh_foi's edge-length filter.
  expect_kernel_golden("scenario3_foi", pts, 2.5 * h);
}

TEST(MeshKernelGolden, Random5000) {
  // Mean spacing ~14 over [0, 1000]^2: alpha 30 leaves holes.
  expect_kernel_golden("random5000",
                       testutil::random_points(5000, 0.0, 1000.0, 2024), 30.0);
}

TEST(MeshKernelGolden, NearCollinearChainPinch) {
  // Alpha above the span keeps every Delaunay triangle.
  expect_kernel_golden("chain_pinch", near_collinear_chain(), 1e4);
}

// ---------------------------------------------------------------------------
// Brute-force oracles over random triangle soups

// A soup with shared edges, bowties, edges with three triangles and
// isolated vertices: a Delaunay triangulation of a few random points,
// with random triangles dropped and random extra triangles over the same
// vertices added. Vertices n..n+2 are never referenced.
TriangleMesh random_soup(std::uint64_t seed) {
  Rng rng(seed);
  const int n = rng.uniform_int(6, 28);
  std::vector<Vec2> pts = testutil::random_points(n, 0.0, 100.0, seed + 1000);
  std::vector<Tri> tris;
  const TriangleMesh dt = delaunay(pts);
  for (const Tri& t : dt.triangles()) {
    if (!rng.chance(0.15)) tris.push_back(t);
  }
  const int extra = rng.uniform_int(0, n / 3);
  for (int k = 0; k < extra; ++k) {
    const int a = rng.uniform_int(0, n - 1);
    int b = rng.uniform_int(0, n - 1);
    int c = rng.uniform_int(0, n - 1);
    if (a == b || b == c || a == c) continue;
    tris.push_back(Tri{a, b, c});
  }
  // Shuffle so triangle ids are not in Delaunay order.
  for (std::size_t i = tris.size(); i > 1; --i) {
    std::swap(tris[i - 1],
              tris[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1))]);
  }
  for (int k = 0; k < 3; ++k) pts.push_back({200.0 + k, 200.0});
  return TriangleMesh(std::move(pts), std::move(tris));
}

bool has_vertex(const Tri& t, VertexId v) {
  return t[0] == v || t[1] == v || t[2] == v;
}

bool has_edge(const Tri& t, VertexId u, VertexId v) {
  return has_vertex(t, u) && has_vertex(t, v);
}

std::vector<EdgeKey> brute_edges(const std::vector<Tri>& tris) {
  std::set<EdgeKey> es;
  for (const Tri& t : tris) {
    for (int k = 0; k < 3; ++k) es.insert(EdgeKey(t[k], t[(k + 1) % 3]));
  }
  return {es.begin(), es.end()};
}

int brute_count(const std::vector<Tri>& tris, VertexId u, VertexId v) {
  int c = 0;
  for (const Tri& t : tris) c += has_edge(t, u, v) ? 1 : 0;
  return c;
}

// The O(deg^2) fan rule: triangles at v are in one fan when they are
// linked by a chain of pairs sharing at least two vertices.
std::vector<std::vector<int>> brute_fans(const std::vector<Tri>& tris,
                                         VertexId v) {
  std::set<int> left;
  for (std::size_t ti = 0; ti < tris.size(); ++ti) {
    if (has_vertex(tris[ti], v)) left.insert(static_cast<int>(ti));
  }
  std::vector<std::vector<int>> fans;
  while (!left.empty()) {
    std::vector<int> fan{*left.begin()};
    left.erase(left.begin());
    for (std::size_t head = 0; head < fan.size(); ++head) {
      const Tri& t = tris[static_cast<std::size_t>(fan[head])];
      for (auto it = left.begin(); it != left.end();) {
        const Tri& s = tris[static_cast<std::size_t>(*it)];
        int common = 0;
        for (VertexId a : t) {
          for (VertexId b : s) common += a == b ? 1 : 0;
        }
        if (common >= 2) {
          fan.push_back(*it);
          it = left.erase(it);
        } else {
          ++it;
        }
      }
    }
    fans.push_back(std::move(fan));
  }
  return fans;
}

bool brute_edge_manifold(const std::vector<Tri>& tris) {
  for (const EdgeKey& e : brute_edges(tris)) {
    if (brute_count(tris, e.a, e.b) > 2) return false;
  }
  return true;
}

bool brute_vertex_manifold(const TriangleMesh& m) {
  if (!brute_edge_manifold(m.triangles())) return false;
  for (std::size_t v = 0; v < m.num_vertices(); ++v) {
    if (brute_fans(m.triangles(), static_cast<VertexId>(v)).size() > 1) {
      return false;
    }
  }
  return true;
}

// Reference cleanup: keep the first-largest edge-connected component
// (components numbered by their smallest triangle), drop every fan but
// the first-largest at each bowtie vertex, repeat until nothing changes.
std::vector<Tri> brute_clean(std::vector<Tri> tris) {
  for (int pass = 0; pass < 64 && !tris.empty(); ++pass) {
    std::vector<int> comp(tris.size(), -1);
    std::vector<std::size_t> sizes;
    for (std::size_t seed = 0; seed < tris.size(); ++seed) {
      if (comp[seed] >= 0) continue;
      const int id = static_cast<int>(sizes.size());
      std::vector<std::size_t> members{seed};
      comp[seed] = id;
      for (std::size_t head = 0; head < members.size(); ++head) {
        const Tri& t = tris[members[head]];
        for (std::size_t tj = 0; tj < tris.size(); ++tj) {
          if (comp[tj] >= 0) continue;
          for (int k = 0; k < 3; ++k) {
            if (has_edge(tris[tj], t[k], t[(k + 1) % 3])) {
              comp[tj] = id;
              members.push_back(tj);
              break;
            }
          }
        }
      }
      sizes.push_back(members.size());
    }
    const int largest = static_cast<int>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
    std::vector<Tri> kept;
    for (std::size_t ti = 0; ti < tris.size(); ++ti) {
      if (comp[ti] == largest) kept.push_back(tris[ti]);
    }
    const bool dropped_component = kept.size() != tris.size();
    tris = std::move(kept);

    std::set<int> drop;
    VertexId max_v = 0;
    for (const Tri& t : tris) max_v = std::max({max_v, t[0], t[1], t[2]});
    for (VertexId v = 0; v <= max_v; ++v) {
      auto fans = brute_fans(tris, v);
      if (fans.size() <= 1) continue;
      std::size_t best = 0;
      for (std::size_t f = 1; f < fans.size(); ++f) {
        if (fans[f].size() > fans[best].size()) best = f;
      }
      for (std::size_t f = 0; f < fans.size(); ++f) {
        if (f != best) drop.insert(fans[f].begin(), fans[f].end());
      }
    }
    if (drop.empty() && !dropped_component) break;
    std::vector<Tri> pruned;
    for (std::size_t ti = 0; ti < tris.size(); ++ti) {
      if (!drop.count(static_cast<int>(ti))) pruned.push_back(tris[ti]);
    }
    tris = std::move(pruned);
  }
  return tris;
}

class MeshOracle : public ::testing::TestWithParam<int> {};

TEST_P(MeshOracle, AdjacencyMatchesBruteForce) {
  for (int rep = 0; rep < 25; ++rep) {
    const TriangleMesh m =
        random_soup(static_cast<std::uint64_t>(GetParam() * 100 + rep));
    const auto& tris = m.triangles();
    const std::vector<EdgeKey> edges = brute_edges(tris);
    ASSERT_EQ(m.edges(), edges);

    std::vector<EdgeKey> bnd;
    for (const EdgeKey& e : edges) {
      if (brute_count(tris, e.a, e.b) == 1) bnd.push_back(e);
    }
    EXPECT_EQ(m.boundary_edges(), bnd);

    const auto nv = static_cast<VertexId>(m.num_vertices());
    for (VertexId u = 0; u < nv; ++u) {
      std::vector<VertexId> nbr;
      std::vector<int> inc;
      for (std::size_t ti = 0; ti < tris.size(); ++ti) {
        if (!has_vertex(tris[ti], u)) continue;
        inc.push_back(static_cast<int>(ti));
        for (VertexId w : tris[ti]) {
          if (w != u) nbr.push_back(w);
        }
      }
      std::sort(nbr.begin(), nbr.end());
      nbr.erase(std::unique(nbr.begin(), nbr.end()), nbr.end());
      const auto got_nbr = m.neighbors(u);
      EXPECT_EQ(std::vector<VertexId>(got_nbr.begin(), got_nbr.end()), nbr);
      const auto got_inc = m.vertex_triangles(u);
      EXPECT_EQ(std::vector<int>(got_inc.begin(), got_inc.end()), inc);

      bool on_boundary = false;
      for (VertexId v = 0; v < nv; ++v) {
        if (v == u) continue;
        const int c = brute_count(tris, u, v);
        EXPECT_EQ(m.edge_triangle_count(u, v), c) << u << '-' << v;
        on_boundary = on_boundary || c == 1;
      }
      EXPECT_EQ(m.is_boundary_vertex(u), on_boundary) << u;
    }

    int used = 0;
    for (VertexId u = 0; u < nv; ++u) {
      used += m.vertex_triangles(u).empty() ? 0 : 1;
    }
    EXPECT_EQ(m.euler_characteristic(),
              used - static_cast<int>(edges.size()) +
                  static_cast<int>(tris.size()));
    EXPECT_EQ(m.edge_manifold(), brute_edge_manifold(tris));
    EXPECT_EQ(m.vertex_manifold(), brute_vertex_manifold(m));
  }
}

TEST_P(MeshOracle, CleanupMatchesBruteForce) {
  int cleaned = 0;
  for (int rep = 0; rep < 25; ++rep) {
    const TriangleMesh m =
        random_soup(static_cast<std::uint64_t>(GetParam() * 100 + rep));
    std::vector<Tri> want = brute_clean(m.triangles());
    const bool want_ok =
        brute_vertex_manifold(TriangleMesh(m.positions(), want));
    TriangleMesh ref_ccw(m.positions(), std::move(want));
    ref_ccw.make_ccw();
    if (!want_ok) {
      // An edge with three triangles in one fan survives the cleanup, and
      // the cleanup refuses to return a non-manifold mesh.
      EXPECT_THROW(clean_to_manifold(m), ContractViolation);
      continue;
    }
    const AlphaExtraction got = clean_to_manifold(m);
    EXPECT_EQ(got.mesh.triangles(), ref_ccw.triangles());
    std::vector<VertexId> unmeshed;
    for (VertexId v = 0; v < static_cast<VertexId>(m.num_vertices()); ++v) {
      bool used = false;
      for (const Tri& t : ref_ccw.triangles()) used = used || has_vertex(t, v);
      if (!used) unmeshed.push_back(v);
    }
    EXPECT_EQ(got.unmeshed, unmeshed);
    ++cleaned;
  }
  EXPECT_GT(cleaned, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshOracle, ::testing::Range(1, 9));

TEST(MeshOracle, SoupsCoverEveryDefect) {
  // The soups must actually contain what the oracles are meant to catch.
  int bowtie = 0, triple_edge = 0, isolated = 0;
  for (int seed = 1; seed < 9; ++seed) {
    for (int rep = 0; rep < 25; ++rep) {
      const TriangleMesh m =
          random_soup(static_cast<std::uint64_t>(seed * 100 + rep));
      triple_edge += brute_edge_manifold(m.triangles()) ? 0 : 1;
      bowtie += (brute_edge_manifold(m.triangles()) && !brute_vertex_manifold(m)) ? 1 : 0;
      isolated += m.vertex_triangles(static_cast<VertexId>(m.num_vertices() - 1)).empty() ? 1 : 0;
    }
  }
  EXPECT_GT(bowtie, 0);
  EXPECT_GT(triple_edge, 0);
  EXPECT_GT(isolated, 0);
}

}  // namespace
}  // namespace anr
