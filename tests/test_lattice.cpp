// Lattice sampling of a FoI (FieldOfInterest::lattice_points, and through
// it GridCvt and mesh_foi): byte goldens on the seven paper M2s, hostile
// polygons, and randomized oracles against the per-point loop.
//
// reference_lattice_points below is the original per-point sampler: the
// full crossing-number test over every outer and hole edge for each
// bounding-box lattice point, then the distance to every edge for the
// margin. lattice_points must reproduce its output byte for byte, and
// FieldOfInterest::contains must give reference_contains' boolean.
//
// Regenerate the goldens (only when an intentional change to the sample
// set lands) with
//   ANR_REGEN_GOLDEN=1 ./test_lattice
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "coverage/density.h"
#include "coverage/grid_cvt.h"
#include "foi/foi_mesher.h"
#include "foi/scenario.h"
#include "geom/segment.h"
#include "test_util.h"

namespace anr {
namespace {

#ifndef ANR_GOLDEN_DIR
#define ANR_GOLDEN_DIR "golden"
#endif

// ---------------------------------------------------------------------------
// Reference: the per-point sampler

// Even-odd containment with the 1e-9 boundary rule, one point at a time.
bool reference_polygon_contains(const Polygon& poly, Vec2 p) {
  const std::vector<Vec2>& pts = poly.points();
  if (pts.size() < 3) return false;
  const double kBoxPad = 2e-9;
  const std::size_t n = pts.size();
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    Vec2 a = pts[j], b = pts[i];
    const bool near_edge_box = p.x >= std::min(a.x, b.x) - kBoxPad &&
                               p.x <= std::max(a.x, b.x) + kBoxPad &&
                               p.y >= std::min(a.y, b.y) - kBoxPad &&
                               p.y <= std::max(a.y, b.y) + kBoxPad;
    if (near_edge_box && point_segment_distance(p, Segment{a, b}) < 1e-9) {
      return true;
    }
    bool straddles = (b.y > p.y) != (a.y > p.y);
    if (straddles) {
      double x_cross = b.x + (p.y - b.y) * (a.x - b.x) / (a.y - b.y);
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

// Distance to every edge of the loop.
double reference_boundary_distance(const Polygon& poly, Vec2 p) {
  const std::vector<Vec2>& pts = poly.points();
  double best = 1e300;
  for (std::size_t i = 0, n = pts.size(); i < n; ++i) {
    best = std::min(best, point_segment_distance(
                              p, Segment{pts[i], pts[(i + 1) % n]}));
  }
  return best;
}

bool reference_contains(const FieldOfInterest& foi, Vec2 p) {
  if (!reference_polygon_contains(foi.outer(), p)) return false;
  for (const Polygon& h : foi.holes()) {
    if (reference_polygon_contains(h, p) &&
        reference_boundary_distance(h, p) > 1e-9) {
      return false;
    }
  }
  return true;
}

std::vector<Vec2> reference_lattice_points(const FieldOfInterest& foi,
                                           double h, double margin = 0.0) {
  std::vector<Vec2> out;
  BBox bb = foi.bbox();
  double row_h = h * std::sqrt(3.0) / 2.0;
  int row = 0;
  for (double y = bb.lo.y; y <= bb.hi.y; y += row_h, ++row) {
    double x0 = bb.lo.x + (row % 2 == 0 ? 0.0 : h / 2.0);
    for (double x = x0; x <= bb.hi.x; x += h) {
      Vec2 p{x, y};
      if (!reference_contains(foi, p)) continue;
      if (margin > 0.0) {
        double d = reference_boundary_distance(foi.outer(), p);
        for (const Polygon& hole : foi.holes()) {
          d = std::min(d, reference_boundary_distance(hole, p));
        }
        if (d < margin) continue;
      }
      out.push_back(p);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Helpers

template <typename T>
std::uint64_t bytes_hash(const std::vector<T>& v) {
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(v.data()),
                                  v.size() * sizeof(T)));
}

std::string hex64(std::uint64_t x) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

bool same_bytes(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec2)) == 0);
}

// The spacing GridCvt and mesh_foi derive from a sample target.
double spacing_for(const FieldOfInterest& foi, int target) {
  return std::sqrt(2.0 * foi.area() /
                   (std::sqrt(3.0) * static_cast<double>(target)));
}

// The y of every lattice row, accumulated as lattice_points steps them.
std::vector<double> row_ys(const BBox& bb, double h) {
  std::vector<double> ys;
  const double row_h = h * std::sqrt(3.0) / 2.0;
  for (double y = bb.lo.y; y <= bb.hi.y; y += row_h) ys.push_back(y);
  return ys;
}

// The x of every lattice point of row `row`, accumulated likewise.
std::vector<double> row_xs(const BBox& bb, double h, int row) {
  std::vector<double> xs;
  const double x0 = bb.lo.x + (row % 2 == 0 ? 0.0 : h / 2.0);
  for (double x = x0; x <= bb.hi.x; x += h) xs.push_back(x);
  return xs;
}

void report_lattice(std::ostringstream& os, const std::string& label,
                    const FieldOfInterest& foi, double h, double margin) {
  const std::vector<Vec2> pts = foi.lattice_points(h, margin);
  EXPECT_TRUE(same_bytes(pts, reference_lattice_points(foi, h, margin)))
      << label << " diverged from the per-point reference";
  os << label << " h " << num(h) << " margin " << num(margin) << " points "
     << pts.size() << " fnv " << hex64(bytes_hash(pts)) << '\n';
}

// ---------------------------------------------------------------------------
// Goldens on the paper M2s

TEST(LatticeGolden, PaperM2s) {
  // The planner's defaults: 24 000 CVT samples and a 1200-point mesher
  // lattice kept 0.45 h clear of the boundary.
  std::ostringstream os;
  for (const Scenario& sc : paper_scenarios()) {
    const FieldOfInterest& m2 = sc.m2_shape;
    const std::string tag = "m2 " + std::to_string(sc.id);
    report_lattice(os, tag + " cvt", m2, spacing_for(m2, 24000), 0.0);
    const double hm = spacing_for(m2, MesherOptions{}.target_grid_points);
    report_lattice(os, tag + " mesher", m2, hm, 0.45 * hm);
  }
  testutil::expect_golden(std::string(ANR_GOLDEN_DIR) + "/lattice_paper_m2.txt",
                          os.str());
}

TEST(LatticeGolden, GridCvtSamplesAndWeights) {
  std::ostringstream os;
  for (int id : {1, 3, 5}) {
    const FieldOfInterest m2 = scenario(id).m2_shape;
    // A hot spot at the centroid makes every weight depend on its sample.
    const DensityFn density = hotspot_density(
        m2.centroid(), 3.0, 0.25 * std::sqrt(m2.area()));
    const GridCvt cvt(m2, density, 24000);
    // GridCvt weighs each sample by the density there; the centroids of
    // a fixed site set read samples, weights and interior blocks at once.
    std::vector<double> weights;
    for (Vec2 p : cvt.samples()) weights.push_back(density(p));
    std::vector<Vec2> sites;
    const std::size_t n = cvt.samples().size();
    for (std::size_t k = 0; k < 144; ++k) sites.push_back(cvt.samples()[k * n / 144]);
    const std::vector<BBox> interior = cvt.interior_blocks();
    std::vector<double> corners;
    for (const BBox& b : interior) {
      corners.insert(corners.end(), {b.lo.x, b.lo.y, b.hi.x, b.hi.y});
    }
    os << "cvt " << id << " spacing " << num(cvt.spacing()) << " samples "
       << n << " fnv " << hex64(bytes_hash(cvt.samples())) << " weights fnv "
       << hex64(bytes_hash(weights)) << " interior " << interior.size()
       << " fnv " << hex64(bytes_hash(corners)) << " centroids fnv "
       << hex64(bytes_hash(cvt.centroids(sites))) << '\n';
  }
  testutil::expect_golden(std::string(ANR_GOLDEN_DIR) + "/lattice_grid_cvt.txt",
                          os.str());
}

TEST(LatticeGolden, MeshFoiPointSets) {
  std::ostringstream os;
  for (const Scenario& sc : paper_scenarios()) {
    const FoiMesh mesh = mesh_foi(sc.m2_shape);
    os << "mesh " << sc.id << " spacing " << num(mesh.spacing) << " V "
       << mesh.mesh.num_vertices() << " fnv "
       << hex64(bytes_hash(mesh.mesh.positions())) << " F "
       << mesh.mesh.num_triangles() << " fnv "
       << hex64(bytes_hash(mesh.mesh.triangles())) << " boundary fnv "
       << hex64(bytes_hash(mesh.on_boundary)) << '\n';
  }
  testutil::expect_golden(std::string(ANR_GOLDEN_DIR) + "/lattice_mesh_foi.txt",
                          os.str());
}

// ---------------------------------------------------------------------------
// Hostile polygons
//
// Spacing 1 over an outer box whose lower-left corner is (0, 0): lattice
// x values of even rows are exact integers, so edges can be placed at
// exact offsets from lattice points. Row y values are accumulated sums,
// taken from row_ys so that vertices and edges land exactly on rows.

const double kH = 1.0;

// Outer 20 x 20 box with a notch in its top edge. The notch's floor is a
// horizontal edge lying on row 14, its left wall is 5e-10 from the
// lattice points of even rows (they sit just outside the region, within
// the boundary tolerance), and a spike vertex ends exactly on row 9.
FieldOfInterest notch_on_rows() {
  const BBox bb{{0.0, 0.0}, {20.0, 20.0}};
  const std::vector<double> ys = row_ys(bb, kH);
  const double wall = 6.0 + 5e-10;
  Polygon outer({{0.0, 0.0},
                 {20.0, 0.0},
                 {20.0, 20.0},
                 {14.0, 20.0},
                 {14.0, ys[14]},
                 {wall, ys[14]},
                 {wall, 20.0},
                 {3.0, 20.0},
                 {2.0, ys[9]},
                 {1.0, 20.0},
                 {0.0, 20.0}});
  return FieldOfInterest(std::move(outer));
}

// Holes whose edges sit on rows or within the boundary tolerance of
// lattice points:
//   - a diamond whose four vertices lie exactly on rows 4 and 8 and on
//     lattice x values;
//   - a box whose bottom edge lies on row 12 and whose left wall is
//     5e-10 right of the even-row lattice points at x = 3;
//   - a box whose right wall is exactly 1e-9 right of the even-row
//     lattice points at x = 16 (they are inside the hole, at distance
//     1e-9 from its wall), and whose left wall is 1e-9 left of x = 13.
FieldOfInterest holes_on_rows() {
  const BBox bb{{0.0, 0.0}, {30.0, 30.0}};
  const std::vector<double> ys = row_ys(bb, kH);
  const std::vector<double> xs_even = row_xs(bb, kH, 0);
  std::vector<Polygon> holes;
  holes.push_back(Polygon({{xs_even[6], ys[4]},
                           {xs_even[8], ys[6]},
                           {xs_even[6], ys[8]},
                           {xs_even[4], ys[6]}}));
  holes.push_back(Polygon({{3.0 + 5e-10, ys[12]},
                           {9.0, ys[12]},
                           {9.0, ys[18]},
                           {3.0 + 5e-10, ys[18]}}));
  holes.push_back(Polygon({{13.0 - 1e-9, ys[10]},
                           {16.0 + 1e-9, ys[10]},
                           {16.0 + 1e-9, ys[20]},
                           {13.0 - 1e-9, ys[20]}}));
  return FieldOfInterest(make_rect({0.0, 0.0}, {30.0, 30.0}),
                         std::move(holes));
}

// A hole edge exactly 1e-9 from lattice points: the origin-adjacent
// column x = 0 exists on even rows, and a hole wall at x = 1e-9 puts
// those points inside the hole at a distance of exactly 1e-9 (the x
// component is exact and the edge is vertical).
FieldOfInterest hole_at_exact_tolerance() {
  const BBox bb{{-10.0, -10.0}, {10.0, 10.0}};
  const std::vector<double> ys = row_ys(bb, kH);
  std::vector<Polygon> holes;
  holes.push_back(Polygon(
      {{-4.0, ys[6]}, {1e-9, ys[6]}, {1e-9, ys[14]}, {-4.0, ys[14]}}));
  // A second hole, mirrored: its wall is about 1e-9 right of x = 4 (the
  // constant rounds at 4), so the points at x = 4 are just outside it.
  holes.push_back(Polygon(
      {{4.0 + 1e-9, ys[6]}, {8.0, ys[6]}, {8.0, ys[14]}, {4.0 + 1e-9, ys[14]}}));
  return FieldOfInterest(make_rect({-10.0, -10.0}, {10.0, 10.0}),
                         std::move(holes));
}

TEST(LatticeHostile, GoldenAndReference) {
  std::ostringstream os;
  const struct {
    const char* name;
    FieldOfInterest foi;
  } cases[] = {{"notch", notch_on_rows()},
               {"holes", holes_on_rows()},
               {"tolerance", hole_at_exact_tolerance()}};
  for (const auto& c : cases) {
    for (double margin : {0.0, 0.45 * kH, 1.0 * kH}) {
      report_lattice(os, c.name, c.foi, kH, margin);
    }
    // Half spacing: odd rows and odd columns fall on the edges too.
    report_lattice(os, c.name, c.foi, 0.5 * kH, 0.0);
  }
  testutil::expect_golden(std::string(ANR_GOLDEN_DIR) + "/lattice_hostile.txt",
                          os.str());
}

TEST(LatticeHostile, ToleranceCasesResolveAsThePointRuleSays) {
  const FieldOfInterest foi = hole_at_exact_tolerance();
  const BBox bb = foi.bbox();
  const std::vector<double> ys = row_ys(bb, kH);
  const std::vector<Vec2> pts = foi.lattice_points(kH);
  auto has = [&](Vec2 p) {
    return std::find_if(pts.begin(), pts.end(), [&](Vec2 q) {
             return q.x == p.x && q.y == p.y;
           }) != pts.end();
  };
  for (int r = 8; r <= 12; r += 2) {
    const Vec2 on_wall{0.0, ys[static_cast<std::size_t>(r)]};
    EXPECT_EQ(has(on_wall), reference_contains(foi, on_wall)) << "row " << r;
    // Deep inside the first hole: excluded.
    EXPECT_FALSE(has({-2.0, ys[static_cast<std::size_t>(r)]})) << "row " << r;
    // Outside the second hole, about the tolerance away: kept.
    EXPECT_TRUE(has({4.0, ys[static_cast<std::size_t>(r)]})) << "row " << r;
  }
  // The notch's floor lies on a row: its points are on the boundary and
  // count as inside; the wall 5e-10 away keeps its points too.
  const FieldOfInterest notch = notch_on_rows();
  const std::vector<double> nys = row_ys(notch.bbox(), kH);
  const std::vector<Vec2> npts = notch.lattice_points(kH);
  auto nhas = [&](Vec2 p) {
    return std::find_if(npts.begin(), npts.end(), [&](Vec2 q) {
             return q.x == p.x && q.y == p.y;
           }) != npts.end();
  };
  EXPECT_TRUE(nhas({10.0, nys[14]}));
  EXPECT_TRUE(nhas({6.0, nys[16]}));
  EXPECT_FALSE(nhas({10.0, nys[16]}));
}

// ---------------------------------------------------------------------------
// Randomized oracles

// A star-shaped loop of `n` vertices around `c` with radii in
// [0.6 r, r].
std::vector<Vec2> star_loop(Rng& rng, Vec2 c, double r, int n) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * (i + rng.uniform(0.0, 0.8)) / n;
    const double rr = r * rng.uniform(0.6, 1.0);
    pts.push_back(c + Vec2{rr * std::cos(a), rr * std::sin(a)});
  }
  return pts;
}

// Moves `p` onto the lattice of `bb` at spacing h: its y onto the nearest
// row, and (in `mode` 2) its x onto the nearest lattice x of that row.
// Rows and columns start at the box's lower-left corner, so the snapped
// point never leaves the box from below or from the left.
Vec2 snap(Vec2 p, const BBox& bb, double h, int mode) {
  const std::vector<double> ys = row_ys(bb, h);
  std::size_t r = 0;
  for (std::size_t k = 0; k < ys.size(); ++k) {
    if (std::abs(ys[k] - p.y) < std::abs(ys[r] - p.y)) r = k;
  }
  Vec2 q{p.x, ys[r]};
  if (mode == 2) {
    const std::vector<double> xs = row_xs(bb, h, static_cast<int>(r));
    if (!xs.empty()) {
      std::size_t c = 0;
      for (std::size_t k = 0; k < xs.size(); ++k) {
        if (std::abs(xs[k] - p.x) < std::abs(xs[c] - p.x)) c = k;
      }
      q.x = xs[c];
    }
  }
  return q;
}

// A random FoI with up to three holes and its lattice spacing. Most seeds
// snap some vertices onto the lattice (vertices on rows, horizontal edges
// along rows, edges through lattice points) and nudge some by the
// boundary tolerance or a fraction of it.
struct RandomCase {
  FieldOfInterest foi;
  double h = 1.0;
};

RandomCase random_case(std::uint64_t seed) {
  Rng rng(seed);
  const double r_out = rng.uniform(20.0, 200.0);
  const Vec2 c{rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
  const double h = r_out / rng.uniform(6.0, 25.0);
  std::vector<Vec2> outer = star_loop(rng, c, r_out, rng.uniform_int(3, 40));
  BBox bb;
  for (Vec2 p : outer) bb.expand(p);

  const double kNudges[] = {1e-9, -1e-9, 5e-10, -5e-10, 2e-9, 1.5e-9};
  const int snap_mode = rng.uniform_int(0, 2);
  auto perturb = [&](std::vector<Vec2>& loop) {
    for (Vec2& p : loop) {
      if (snap_mode > 0 && rng.chance(0.6)) p = snap(p, bb, h, snap_mode);
      if (snap_mode > 0 && rng.chance(0.2)) {
        p.x += kNudges[rng.uniform_int(0, 5)];
      }
    }
    // A horizontal run: the next vertex copies this one's y.
    if (snap_mode > 0 && loop.size() >= 4 && rng.chance(0.5)) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(loop.size()) - 2));
      loop[i + 1].y = loop[i].y;
    }
  };
  perturb(outer);

  std::vector<Polygon> holes;
  const int nholes = rng.uniform_int(0, 3);
  const Polygon outer_poly(outer);
  for (int k = 0; k < nholes; ++k) {
    // Hole centres on a ring of radius 0.3 r_out at separated angles, so
    // holes of radius up to 0.2 r_out stay disjoint and inside.
    const double a = 2.0 * M_PI * (k + rng.uniform(0.2, 0.8)) / 3.0;
    const Vec2 hc = c + Vec2{0.3 * r_out * std::cos(a), 0.3 * r_out * std::sin(a)};
    const double hr = r_out * rng.uniform(0.08, 0.2);
    std::vector<Vec2> loop = star_loop(rng, hc, hr, rng.uniform_int(3, 16));
    perturb(loop);
    Polygon hole(std::move(loop));
    if (hole.area() < 1e-3 * hr * hr) continue;
    if (!outer_poly.contains(hole.centroid())) continue;
    holes.push_back(std::move(hole));
  }
  return {FieldOfInterest(outer_poly, std::move(holes)), h};
}

TEST(LatticeOracle, RandomPolygonsWithHolesMatchThePerPointLoop) {
  int with_holes = 0;
  std::size_t points = 0;
  for (std::uint64_t seed = 1; seed <= 320; ++seed) {
    const RandomCase rc = random_case(seed);
    if (rc.foi.has_holes()) ++with_holes;
    for (double margin : {0.0, 0.45 * rc.h, 1.3 * rc.h}) {
      const std::vector<Vec2> got = rc.foi.lattice_points(rc.h, margin);
      const std::vector<Vec2> want =
          reference_lattice_points(rc.foi, rc.h, margin);
      ASSERT_TRUE(same_bytes(got, want))
          << "seed " << seed << " margin " << margin << ": " << got.size()
          << " points vs " << want.size();
      points += got.size();
    }
  }
  EXPECT_GE(with_holes, 200);
  EXPECT_GT(points, 100000u);
}

TEST(LatticeOracle, ContainsMatchesThePointRule) {
  // Lattice points, polygon vertices, edge midpoints and points nudged
  // off each edge by the tolerance and its neighbours.
  const double kOffsets[] = {0.0,   1e-9,  -1e-9,  5e-10, -5e-10,
                             2e-9,  -2e-9, 1.5e-9, 1e-6,  -1e-6};
  long checked = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const RandomCase rc = random_case(seed + 1000);
    std::vector<Vec2> probes;
    const BBox bb = rc.foi.bbox();
    for (double y : row_ys(bb, rc.h)) {
      for (double x = bb.lo.x; x <= bb.hi.x; x += rc.h) probes.push_back({x, y});
    }
    std::vector<const Polygon*> loops{&rc.foi.outer()};
    for (const Polygon& h : rc.foi.holes()) loops.push_back(&h);
    for (const Polygon* loop : loops) {
      const std::vector<Vec2>& pts = loop->points();
      for (std::size_t i = 0; i < pts.size(); ++i) {
        const Vec2 a = pts[i], b = pts[(i + 1) % pts.size()];
        const Vec2 n = Vec2{-(b - a).y, (b - a).x}.normalized();
        for (double off : kOffsets) {
          probes.push_back(a + n * off);
          probes.push_back(lerp(a, b, 0.5) + n * off);
          probes.push_back(a + Vec2{off, 0.0});
        }
      }
    }
    for (Vec2 p : probes) {
      ASSERT_EQ(rc.foi.contains(p), reference_contains(rc.foi, p))
          << "seed " << seed + 1000 << " at (" << num(p.x) << ", " << num(p.y)
          << ")";
      ++checked;
    }
  }
  EXPECT_GT(checked, 100000);
}

}  // namespace
}  // namespace anr
