// Fast-marching differential oracles, property sweeps, determinism pins,
// and the ToA golden (ISSUE 10 satellite battery).
//
// The differential oracle: on a uniform cost field the Eikonal solution
// IS Euclidean distance, so the solver must match it within O(h) and
// extracted paths must hug the straight chord. On arbitrary cost fields
// two exact properties survive discretization: arrival times lower-bound
// min_cost × Euclidean distance (the Godunov update preserves the bound
// inductively), and ToA never decreases along an extracted path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/task_arena.h"
#include "coverage/density.h"
#include "coverage/lloyd.h"
#include "foi/scenario.h"
#include "geom/segment.h"
#include "io/terrain_io.h"
#include "march/terrain_router.h"
#include "terrain/fast_marching.h"
#include "test_util.h"

namespace anr {
namespace {

BBox box(double x0, double y0, double x1, double y1) {
  BBox b;
  b.expand({x0, y0});
  b.expand({x1, y1});
  return b;
}

CostFieldSpec uniform_spec(int max_cells = 64) {
  CostFieldSpec spec;
  spec.bounds = box(0.0, 0.0, 640.0, 640.0);
  spec.max_cells = max_cells;
  return spec;
}

// Deterministic non-uniform field: rolling terrain with slope cost plus
// seeded mud patches.
CostField random_field(std::uint64_t seed, bool with_keep_out = false) {
  CostFieldSpec spec;
  spec.bounds = box(0.0, 0.0, 800.0, 600.0);
  spec.max_cells = 80;
  spec.slope_weight = 3.0;
  Rng rng(seed);
  for (int i = 0; i < 4; ++i) {
    MudPatch m;
    m.center = {rng.uniform(100.0, 700.0), rng.uniform(100.0, 500.0)};
    m.radius = rng.uniform(40.0, 120.0);
    m.cost = rng.uniform(1.5, 6.0);
    spec.mud.push_back(m);
  }
  if (with_keep_out) {
    spec.keep_out.push_back(make_rect({350.0, 150.0}, {450.0, 450.0}));
  }
  HeightField terrain =
      HeightField::rolling(spec.bounds, 12, 40.0, 120.0, seed + 17);
  return CostField::build(spec, terrain);
}

double chord_deviation(Vec2 p, Vec2 a, Vec2 b) {
  const Segment s{a, b};
  return distance(p, lerp(a, b, closest_point_param(s, p)));
}

TEST(FastMarch, UniformToaMatchesEuclideanWithinOh) {
  const CostField field = CostField::build(uniform_spec(), HeightField{});
  ASSERT_TRUE(field.uniform());
  const Vec2 source{321.0, 317.0};
  const FastMarchResult fm = fast_march(field, source);
  EXPECT_EQ(fm.accepted, field.cell_count());

  const double h = field.cell_size();
  double worst = 0.0;
  for (int i = 0; i < field.cell_count(); ++i) {
    const double want = distance(source, field.center(i));
    const double got = fm.toa[static_cast<std::size_t>(i)];
    ASSERT_LT(got, CostField::kInf);
    // Exact lower bound; upper error is O(h) from the source singularity.
    EXPECT_GE(got, want - 1e-9);
    worst = std::max(worst, got - want);
  }
  EXPECT_LE(worst, 2.0 * h);
}

TEST(FastMarch, UniformPathsWithinOneCellOfStraight) {
  const CostField field = CostField::build(uniform_spec(), HeightField{});
  const Vec2 source{50.0, 60.0};
  const FastMarchResult fm = fast_march(field, source);
  const Vec2 goals[] = {{600.0, 600.0}, {600.0, 70.0}, {70.0, 590.0},
                        {320.0, 610.0}, {610.0, 330.0}};
  for (Vec2 goal : goals) {
    const GeodesicPath path = extract_geodesic(field, fm, source, goal);
    ASSERT_TRUE(path.ok) << path.failure;
    ASSERT_GE(path.points.size(), 2u);
    EXPECT_EQ(path.points.front(), source);
    EXPECT_EQ(path.points.back(), goal);
    for (Vec2 p : path.points) {
      EXPECT_LE(chord_deviation(p, source, goal),
                field.cell_size() + 1e-9);
    }
  }
}

TEST(FastMarch, ToaLowerBoundsMinCostTimesEuclidean) {
  for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
    const CostField field = random_field(seed);
    ASSERT_FALSE(field.uniform());
    const Vec2 source{80.0, 90.0};
    const FastMarchResult fm = fast_march(field, source);
    for (int i = 0; i < field.cell_count(); ++i) {
      const double got = fm.toa[static_cast<std::size_t>(i)];
      if (got == CostField::kInf) continue;
      const double bound = field.min_cost() * distance(source, field.center(i));
      EXPECT_GE(got, bound - 1e-6) << "seed " << seed << " cell " << i;
    }
  }
}

TEST(FastMarch, ToaNeverDecreasesAlongExtractedPaths) {
  for (std::uint64_t seed : {3ull, 11ull}) {
    const CostField field = random_field(seed, /*with_keep_out=*/true);
    const Vec2 source{80.0, 90.0};
    const FastMarchResult fm = fast_march(field, source);
    const Vec2 goals[] = {{700.0, 500.0}, {700.0, 120.0}, {200.0, 520.0}};
    for (Vec2 goal : goals) {
      const GeodesicPath path = extract_geodesic(field, fm, source, goal);
      ASSERT_TRUE(path.ok) << path.failure;
      double prev = -1e300;
      for (Vec2 p : path.points) {
        const double t = sample_toa(field, fm.toa, p);
        ASSERT_LT(t, CostField::kInf);
        EXPECT_GE(t, prev - 1e-6 * (1.0 + std::abs(prev)));
        prev = t;
      }
    }
  }
}

TEST(FastMarch, KeepOutPathsNeverCrossBlockedCells) {
  const CostField field = random_field(5, /*with_keep_out=*/true);
  ASSERT_TRUE(field.has_blocked());
  const Vec2 source{100.0, 300.0};
  const Vec2 goal{700.0, 300.0};  // straight chord crosses the keep-out
  ASSERT_TRUE(field.segment_blocked(source, goal));
  const FastMarchResult fm = fast_march(field, source);
  const GeodesicPath path = extract_geodesic(field, fm, source, goal);
  ASSERT_TRUE(path.ok) << path.failure;
  double len = 0.0;
  for (std::size_t i = 0; i + 1 < path.points.size(); ++i) {
    EXPECT_FALSE(field.segment_blocked(path.points[i], path.points[i + 1]));
    len += distance(path.points[i], path.points[i + 1]);
  }
  EXPECT_GT(len, distance(source, goal));  // it detoured
}

TEST(FastMarch, UphillPenaltyIsAsymmetric) {
  CostFieldSpec spec;
  spec.bounds = box(0.0, 0.0, 400.0, 200.0);
  spec.max_cells = 80;
  spec.uphill_penalty = 4.0;
  // Monotone ramp: higher ground toward +x.
  const HeightField ramp({Hill{{400.0, 100.0}, 120.0, 300.0}});
  const CostField field = CostField::build(spec, ramp);
  ASSERT_FALSE(field.uniform());
  const Vec2 low{60.0, 100.0}, high{340.0, 100.0};
  const FastMarchResult up = fast_march(field, low);
  const FastMarchResult down = fast_march(field, high);
  const double t_up = sample_toa(field, up.toa, high);
  const double t_down = sample_toa(field, down.toa, low);
  ASSERT_LT(t_up, CostField::kInf);
  ASSERT_LT(t_down, CostField::kInf);
  EXPECT_GT(t_up, t_down * 1.2);
}

TEST(FastMarch, MudDetourBeatsStraightThrough) {
  CostFieldSpec spec;
  spec.bounds = box(0.0, 0.0, 600.0, 400.0);
  spec.max_cells = 60;
  spec.mud.push_back({{300.0, 200.0}, 90.0, 8.0});
  const CostField field = CostField::build(spec, HeightField{});
  const Vec2 source{60.0, 200.0}, goal{540.0, 200.0};
  const FastMarchResult fm = fast_march(field, source);
  const double t = sample_toa(field, fm.toa, goal);
  ASSERT_LT(t, CostField::kInf);
  // Cheaper than wading straight through the mud, costlier than if the
  // mud were not there at all.
  EXPECT_LT(t, field.segment_cost(source, goal));
  EXPECT_GT(t, distance(source, goal) * 1.01);
}

TEST(FastMarch, ByteDeterministicAcrossRepeatRuns) {
  const CostField field = random_field(9, /*with_keep_out=*/true);
  const Vec2 source{120.0, 120.0};
  const FastMarchResult a = fast_march(field, source);
  const FastMarchResult b = fast_march(field, source);
  ASSERT_EQ(a.toa.size(), b.toa.size());
  EXPECT_EQ(toa_checksum(a.toa), toa_checksum(b.toa));
  for (std::size_t i = 0; i < a.toa.size(); ++i) {
    ASSERT_EQ(a.toa[i], b.toa[i]) << "cell " << i;
  }
}

TEST(FastMarch, RouterSolveByteIdenticalAtAnyThreadCount) {
  TrajectoryOptions opt;
  opt.motion = MotionModel::kTerrainGeodesic;
  opt.terrain.slope_weight = 3.0;
  opt.terrain.max_cells = 48;
  opt.terrain.mud.push_back({{400.0, 300.0}, 110.0, 4.0});
  opt.terrain.keep_out.push_back(make_rect({200.0, 100.0}, {260.0, 420.0}));
  opt.terrain.terrain =
      HeightField::rolling(box(0, 0, 800, 600), 10, 30.0, 100.0, 4);

  std::vector<Vec2> starts;
  Rng rng(42);
  for (int i = 0; i < 24; ++i) {
    starts.push_back({rng.uniform(30.0, 770.0), rng.uniform(30.0, 570.0)});
  }

  std::vector<std::uint64_t> reference;
  const int saved = arena_threads();
  for (int threads : {1, 2, 4, 8}) {
    set_arena_threads(threads);
    TerrainRouter router(opt, box(0, 0, 800, 600), 80.0);
    ASSERT_FALSE(router.uniform());
    router.solve(starts);
    std::vector<std::uint64_t> sums;
    for (const FastMarchResult& fm : router.fields()) {
      sums.push_back(toa_checksum(fm.toa));
    }
    if (reference.empty()) {
      reference = sums;
    } else {
      EXPECT_EQ(sums, reference) << "thread count " << threads;
    }
  }
  set_arena_threads(saved);
}

TEST(FastMarch, BoundsCheckedSamplingThrowsOutsideDomain) {
  const CostField field = CostField::build(uniform_spec(), HeightField{});
  const FastMarchResult fm = fast_march(field, {100.0, 100.0});
  EXPECT_THROW(field.cost_at({-5.0, 100.0}), ContractViolation);
  EXPECT_THROW(field.index_of({100.0, 1e9}), ContractViolation);
  EXPECT_THROW(sample_toa(field, fm.toa, {641.0, 100.0}), ContractViolation);
  EXPECT_THROW(fast_march(field, {-1.0, -1.0}), ContractViolation);
  // On-boundary points belong to the edge cells — valid, not clamped from
  // outside.
  EXPECT_NO_THROW(field.cost_at({0.0, 0.0}));
  EXPECT_NO_THROW(field.cost_at({640.0, 640.0}));
}

TEST(FastMarch, SegmentBlockedGridTraversal) {
  CostFieldSpec spec;
  spec.bounds = box(0.0, 0.0, 100.0, 100.0);
  spec.max_cells = 10;
  spec.keep_out.push_back(make_rect({40.0, 40.0}, {60.0, 60.0}));
  const CostField field = CostField::build(spec, HeightField{});
  ASSERT_GT(field.blocked_count(), 0);
  EXPECT_TRUE(field.segment_blocked({10.0, 50.0}, {90.0, 50.0}));
  EXPECT_TRUE(field.segment_blocked({50.0, 10.0}, {50.0, 90.0}));
  EXPECT_TRUE(field.segment_blocked({10.0, 10.0}, {90.0, 90.0}));
  EXPECT_FALSE(field.segment_blocked({10.0, 10.0}, {90.0, 10.0}));
  EXPECT_FALSE(field.segment_blocked({10.0, 75.0}, {90.0, 75.0}));
  EXPECT_FALSE(field.segment_blocked({15.0, 15.0}, {15.0, 85.0}));
}

TEST(TerrainIo, ToaRoundTripAndChecksumValidation) {
  const CostField field = random_field(13);
  const FastMarchResult fm = fast_march(field, {100.0, 100.0});
  const std::string path = "test_fmm_toa_roundtrip.anrtoa";
  std::string err;
  ASSERT_TRUE(save_toa(field, fm.toa, path, &err)) << err;
  auto snap = load_toa(path, &err);
  ASSERT_TRUE(snap.has_value()) << err;
  EXPECT_EQ(snap->nx, field.nx());
  EXPECT_EQ(snap->ny, field.ny());
  EXPECT_EQ(snap->cell, field.cell_size());
  ASSERT_EQ(snap->toa.size(), fm.toa.size());
  for (std::size_t i = 0; i < fm.toa.size(); ++i) {
    ASSERT_EQ(snap->toa[i], fm.toa[i]);
  }

  // Flip one payload byte: the checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char c;
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  EXPECT_FALSE(load_toa(path, &err).has_value());
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
  std::remove(path.c_str());
}

// Every truncation and every single-byte change of a small ToA record
// either loads or fails with an error message; nothing crashes. The
// checksum covers the payload only, so the header is validated on its
// own: a changed cell-size byte that still gives a finite positive size
// loads with that size, and every other change is refused.
TEST(TerrainIo, ToaDecoderSurvivesTruncationAndByteFlips) {
  CostFieldSpec spec;
  spec.bounds = box(0.0, 0.0, 40.0, 30.0);
  spec.max_cells = 4;
  const CostField field = CostField::build(spec, HeightField{});
  const FastMarchResult fm = fast_march(field, {5.0, 5.0});
  const std::string path = "test_fmm_toa_fuzz.anrtoa";
  std::string err;
  ASSERT_TRUE(save_toa(field, fm.toa, path, &err)) << err;
  std::string doc;
  {
    std::ifstream in(path, std::ios::binary);
    doc.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  auto load_bytes = [&](const std::string& bytes) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return load_toa(path, &err);
  };

  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_FALSE(load_bytes(doc.substr(0, len)).has_value()) << "prefix " << len;
    EXPECT_FALSE(err.empty());
  }
  const std::size_t kCellOffset = 16;  // magic, nx, ny
  int loaded = 0;
  int refused_cell = 0;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const bool cell_byte = i >= kCellOffset && i < kCellOffset + 8;
    for (int mask = 1; mask < 256; ++mask) {
      std::string bad = doc;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      auto snap = load_bytes(bad);
      if (!snap.has_value()) {
        ASSERT_FALSE(err.empty());
        if (cell_byte) ++refused_cell;
        continue;
      }
      ASSERT_TRUE(cell_byte) << "byte " << i << " ^ " << mask << " loaded";
      EXPECT_TRUE(std::isfinite(snap->cell) && snap->cell > 0.0);
      EXPECT_EQ(snap->toa, fm.toa);
      ++loaded;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(refused_cell, 0);
  std::remove(path.c_str());
}

// Golden pin: the ToA field over a fixed terrain/mud/keep-out scenario.
// Any change to the propagation order (heap tie-breaking, update stencil)
// shows up as a checksum/byte diff here. Regenerate with
// ANR_REGEN_GOLDEN=1.
TEST(FastMarchGolden, ToaFieldBytesPinned) {
  const CostField field = random_field(2026, /*with_keep_out=*/true);
  const FastMarchResult fm = fast_march(field, {80.0, 90.0});
  const std::string golden = std::string(ANR_GOLDEN_DIR) + "/terrain_toa.anrtoa";

  if (std::getenv("ANR_REGEN_GOLDEN") != nullptr) {
    std::string err;
    ASSERT_TRUE(save_toa(field, fm.toa, golden, &err)) << err;
    GTEST_SKIP() << "regenerated " << golden;
  }

  std::string err;
  auto snap = load_toa(golden, &err);
  ASSERT_TRUE(snap.has_value())
      << err << " (run with ANR_REGEN_GOLDEN=1 to create it)";
  EXPECT_EQ(snap->nx, field.nx());
  EXPECT_EQ(snap->ny, field.ny());
  EXPECT_EQ(toa_checksum(snap->toa), toa_checksum(fm.toa));
  ASSERT_EQ(snap->toa.size(), fm.toa.size());
  for (std::size_t i = 0; i < fm.toa.size(); ++i) {
    ASSERT_EQ(snap->toa[i], fm.toa[i]) << "cell " << i;
  }
}

// --- Differential oracle --------------------------------------------------
// reference_fast_march is the solver as it stood with a std::priority_queue
// that keeps stale entries and a step slowness recomputed per considered
// neighbour, copied verbatim. The production kernel must reproduce its ToA
// bytes and acceptance count exactly on every (field, source) pair.

enum RefCellState : std::uint8_t { kRefFar = 0, kRefBand = 1, kRefAccepted = 2 };

double ref_step_slowness(const CostField& field, int from, int to) {
  double f = field.cell_size() * field.cost(to);
  const double pen = field.uphill_penalty();
  if (pen > 0.0) {
    const double grade =
        (field.height(to) - field.height(from)) / field.cell_size();
    f *= 1.0 + pen * std::max(0.0, grade);
  }
  return f;
}

double ref_eikonal_update(const CostField& field, const std::vector<double>& toa,
                          const std::vector<std::uint8_t>& state, int j) {
  const int nx = field.nx(), ny = field.ny();
  const int jx = j % nx, jy = j / nx;

  double ta = CostField::kInf, fa = 0.0;  // best horizontal neighbor
  double tb = CostField::kInf, fb = 0.0;  // best vertical neighbor
  auto consider = [&](int nb, double& t, double& f) {
    if (state[static_cast<std::size_t>(nb)] != kRefAccepted) return;
    const double tn = toa[static_cast<std::size_t>(nb)];
    if (tn < t) {
      t = tn;
      f = ref_step_slowness(field, nb, j);
    }
  };
  if (jx > 0) consider(j - 1, ta, fa);
  if (jx + 1 < nx) consider(j + 1, ta, fa);
  if (jy > 0) consider(j - nx, tb, fb);
  if (jy + 1 < ny) consider(j + nx, tb, fb);

  if (ta == CostField::kInf && tb == CostField::kInf) return CostField::kInf;
  if (tb == CostField::kInf) return ta + fa;
  if (ta == CostField::kInf) return tb + fb;

  // Two-sided quadratic: ((T-ta)/fa)^2 + ((T-tb)/fb)^2 = 1.
  const double ia = 1.0 / (fa * fa), ib = 1.0 / (fb * fb);
  const double A = ia + ib;
  const double B = -2.0 * (ta * ia + tb * ib);
  const double C = ta * ta * ia + tb * tb * ib - 1.0;
  const double disc = B * B - 4.0 * A * C;
  if (disc >= 0.0) {
    const double t = (-B + std::sqrt(disc)) / (2.0 * A);
    if (t >= std::max(ta, tb)) return t;
  }
  return std::min(ta + fa, tb + fb);
}

FastMarchResult reference_fast_march(const CostField& field, Vec2 source) {
  ANR_CHECK_MSG(field.contains(source),
                "fast_march source outside the cost field");
  FastMarchResult out;
  const std::size_t n = static_cast<std::size_t>(field.cell_count());
  out.toa.assign(n, CostField::kInf);

  const int src = field.index_of(source);
  if (field.blocked(src)) {
    out.source_blocked = true;
    return out;
  }

  std::vector<std::uint8_t> state(n, kRefFar);
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> band;

  const int nx = field.nx(), ny = field.ny();
  const int sx = src % nx, sy = src / nx;
  const double seed_radius = 2.0 * field.cell_size() + 1e-9;
  for (int dy = -2; dy <= 2; ++dy) {
    for (int dx = -2; dx <= 2; ++dx) {
      const int cx = sx + dx, cy = sy + dy;
      if (cx < 0 || cx >= nx || cy < 0 || cy >= ny) continue;
      const int c = cy * nx + cx;
      if (field.blocked(c)) continue;
      const Vec2 center = field.center(c);
      const double d = distance(source, center);
      if (d > seed_radius) continue;
      if (c != src && field.segment_blocked(source, center)) continue;
      const std::size_t uc = static_cast<std::size_t>(c);
      out.toa[uc] = field.cost(c) * d;
      state[uc] = kRefBand;
      band.emplace(out.toa[uc], c);
    }
  }
  while (!band.empty()) {
    const auto [t, i] = band.top();
    band.pop();
    const std::size_t ui = static_cast<std::size_t>(i);
    if (state[ui] == kRefAccepted || t > out.toa[ui]) continue;  // stale entry
    state[ui] = kRefAccepted;
    ++out.accepted;

    const int ix = i % nx, iy = i / nx;
    const int neighbors[4] = {iy > 0 ? i - nx : -1, ix > 0 ? i - 1 : -1,
                              ix + 1 < nx ? i + 1 : -1,
                              iy + 1 < ny ? i + nx : -1};
    for (int nb : neighbors) {
      if (nb < 0) continue;
      const std::size_t un = static_cast<std::size_t>(nb);
      if (state[un] == kRefAccepted || field.blocked(nb)) continue;
      const double nt = ref_eikonal_update(field, out.toa, state, nb);
      if (nt < out.toa[un]) {
        out.toa[un] = nt;
        state[un] = kRefBand;
        band.emplace(nt, nb);
      }
    }
  }
  return out;
}

struct OracleCase {
  std::string name;
  CostField field;
  std::vector<Vec2> sources;
};

// Seeded sources over the field plus the awkward ones: the lo and hi
// corners, the centre of a blocked cell and an unblocked cell that
// touches it.
std::vector<Vec2> oracle_sources(const CostField& field, int count,
                                 std::uint64_t seed) {
  const BBox& b = field.bounds();
  std::vector<Vec2> out{b.lo, b.hi};
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    out.push_back({rng.uniform(b.lo.x, b.hi.x), rng.uniform(b.lo.y, b.hi.y)});
  }
  const int nx = field.nx(), ny = field.ny();
  for (int i = 0; i < field.cell_count(); ++i) {
    if (!field.blocked(i)) continue;
    out.push_back(field.center(i));
    const int ix = i % nx, iy = i / nx;
    const int nbs[4] = {iy > 0 ? i - nx : -1, ix > 0 ? i - 1 : -1,
                        ix + 1 < nx ? i + 1 : -1, iy + 1 < ny ? i + nx : -1};
    for (int nb : nbs) {
      if (nb >= 0 && !field.blocked(nb)) {
        out.push_back(field.center(nb));
        return out;
      }
    }
  }
  return out;
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  // Uphill penalty together with keep-out on rolling terrain with mud.
  for (std::uint64_t seed : {31ull, 32ull, 33ull}) {
    CostFieldSpec spec;
    spec.bounds = box(0.0, 0.0, 800.0, 600.0);
    spec.max_cells = 60;
    spec.slope_weight = 2.0;
    spec.uphill_penalty = 0.8;
    Rng rng(seed);
    for (int i = 0; i < 3; ++i) {
      spec.mud.push_back({{rng.uniform(100.0, 700.0), rng.uniform(100.0, 500.0)},
                          rng.uniform(40.0, 120.0), rng.uniform(1.5, 6.0)});
    }
    spec.keep_out.push_back(make_rect({330.0, 120.0}, {430.0, 470.0}));
    spec.keep_out.push_back(make_circle({620.0, 200.0}, 55.0, 24));
    const HeightField terrain =
        HeightField::rolling(spec.bounds, 12, 40.0, 120.0, seed + 5);
    CostField field = CostField::build(spec, terrain);
    cases.push_back({"uphill_keep_out_" + std::to_string(seed), field,
                     oracle_sources(field, 12, seed)});
  }
  // Uniform field: sources on cell centres and corners make exact ToA ties
  // between mirror-image cells.
  {
    CostField field = CostField::build(uniform_spec(16), HeightField{});
    std::vector<Vec2> sources = oracle_sources(field, 6, 41);
    for (Vec2 p : {Vec2{300.0, 300.0}, Vec2{320.0, 320.0}, Vec2{20.0, 20.0},
                   Vec2{40.0, 600.0}, Vec2{620.0, 340.0}}) {
      sources.push_back(p);
    }
    cases.push_back({"uniform_ties", field, sources});
  }
  // 1 x N and N x 1 strips with slope, mud and uphill penalty.
  for (bool along_x : {true, false}) {
    CostFieldSpec spec;
    spec.bounds = along_x ? box(0.0, 0.0, 500.0, 8.0) : box(0.0, 0.0, 8.0, 500.0);
    spec.max_cells = 50;
    spec.slope_weight = 1.5;
    spec.uphill_penalty = 0.5;
    spec.mud.push_back({along_x ? Vec2{250.0, 4.0} : Vec2{4.0, 250.0}, 60.0, 3.0});
    const HeightField terrain =
        HeightField::rolling(spec.bounds, 4, 20.0, 80.0, along_x ? 7 : 8);
    CostField field = CostField::build(spec, terrain);
    cases.push_back({along_x ? "strip_1xN" : "strip_Nx1", field,
                     oracle_sources(field, 10, along_x ? 51 : 52)});
  }
  // A strip cut in two by a keep-out block.
  {
    CostFieldSpec spec;
    spec.bounds = box(0.0, 0.0, 400.0, 8.0);
    spec.max_cells = 40;
    spec.keep_out.push_back(make_rect({195.0, -5.0}, {215.0, 15.0}));
    CostField field = CostField::build(spec, HeightField{});
    cases.push_back({"strip_cut", field, oracle_sources(field, 6, 53)});
  }
  // A single cell.
  {
    CostFieldSpec spec;
    spec.bounds = box(0.0, 0.0, 10.0, 10.0);
    spec.max_cells = 1;
    spec.slope_weight = 1.0;
    CostField field = CostField::build(spec, HeightField{});
    cases.push_back({"single_cell", field, oracle_sources(field, 3, 61)});
  }
  // Mud and slope without keep-out, uphill penalty on.
  for (std::uint64_t seed : {71ull, 72ull}) {
    CostFieldSpec spec;
    spec.bounds = box(-200.0, 100.0, 500.0, 400.0);
    spec.max_cells = 70;
    spec.slope_weight = 3.0;
    spec.uphill_penalty = 1.5;
    spec.mud.push_back({{150.0, 250.0}, 80.0, 4.0});
    const HeightField terrain =
        HeightField::rolling(spec.bounds, 8, 30.0, 90.0, seed);
    CostField field = CostField::build(spec, terrain);
    cases.push_back({"uphill_" + std::to_string(seed), field,
                     oracle_sources(field, 10, seed)});
  }
  return cases;
}

TEST(FastMarchOracle, MatchesReferenceBytes) {
  int pairs = 0, blocked_sources = 0;
  for (const OracleCase& c : oracle_cases()) {
    for (Vec2 source : c.sources) {
      const FastMarchResult want = reference_fast_march(c.field, source);
      const FastMarchResult got = fast_march(c.field, source);
      ASSERT_EQ(got.source_blocked, want.source_blocked) << c.name;
      ASSERT_EQ(got.accepted, want.accepted)
          << c.name << " source " << source.x << "," << source.y;
      ASSERT_EQ(got.toa.size(), want.toa.size()) << c.name;
      ASSERT_EQ(std::memcmp(got.toa.data(), want.toa.data(),
                            got.toa.size() * sizeof(double)),
                0)
          << c.name << " source " << source.x << "," << source.y;
      blocked_sources += want.source_blocked ? 1 : 0;
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 100);
  EXPECT_GT(blocked_sources, 0);
}

// --- plan_terrain geometry pins -------------------------------------------
// The terrain workload of the end-to-end benchmark: scenario 1 marched
// 12 r_c over rolling hills, a mud patch and a keep-out block in the
// corridor, with 144 robots at an optimal-coverage deployment. The field
// covers the planner's router domain.

struct TerrainGeometry {
  TrajectoryOptions options;
  BBox domain;
  double r_c = 0.0;
  Vec2 keep_out_center;
  Vec2 offset;
  std::vector<Vec2> starts;
};

TerrainGeometry plan_terrain_geometry() {
  const Scenario sc = scenario(1);
  TerrainGeometry out;
  out.r_c = sc.comm_range;
  const double rc = sc.comm_range;
  out.offset = sc.m1.centroid() + Vec2{12.0 * rc, 0.0} - sc.m2_shape.centroid();
  const FieldOfInterest m2_world = sc.m2_shape.translated(out.offset);
  BBox hills = sc.m1.bbox();
  hills.expand(m2_world.bbox().lo);
  hills.expand(m2_world.bbox().hi);
  const Vec2 mid = lerp(sc.m1.centroid(), m2_world.centroid(), 0.5);
  out.keep_out_center = mid;

  out.options.motion = MotionModel::kTerrainGeodesic;
  TerrainCostOptions& t = out.options.terrain;
  t.terrain = HeightField::rolling(hills, 10, 35.0, 160.0, /*seed=*/99);
  t.slope_weight = 2.5;
  t.uphill_penalty = 0.4;
  t.mud.push_back(MudPatch{{mid.x, mid.y + 2.0 * rc}, 90.0, 3.0});
  t.keep_out.push_back(make_rect({mid.x - rc, mid.y - 0.75 * rc},
                                 {mid.x + rc, mid.y + 0.75 * rc}));

  out.starts = optimal_coverage_positions(sc.m1, sc.num_robots, 10,
                                          uniform_density())
                   .positions;
  // The planner's router domain: both FoIs, the offset M1 band, starts.
  out.domain = sc.m1.bbox();
  const BBox m2 = sc.m2_shape.bbox();
  out.domain.expand(m2.lo + out.offset);
  out.domain.expand(m2.hi + out.offset);
  out.domain.expand(sc.m1.bbox().lo + out.offset);
  out.domain.expand(sc.m1.bbox().hi + out.offset);
  for (Vec2 p : out.starts) out.domain.expand(p);
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t points_digest(const std::vector<Vec2>& pts) {
  std::string bytes(pts.size() * sizeof(Vec2), '\0');
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::memcpy(&bytes[i * sizeof(Vec2)], &pts[i].x, sizeof(double));
    std::memcpy(&bytes[i * sizeof(Vec2) + sizeof(double)], &pts[i].y,
                sizeof(double));
  }
  return fnv1a64(bytes);
}

// Goal of robot r: its start moved by the march offset, except for a few
// robots sent into the keep-out block (raw: an unreachable goal; snapped:
// the nearest unblocked cell) or out of the field.
Vec2 pinned_goal(TerrainRouter& router, const TerrainGeometry& g, std::size_t r) {
  switch (r % 16) {
    case 5:
      return g.keep_out_center;
    case 11:
      return router.field().bounds().hi + Vec2{40.0, 40.0};
    case 13:
      return router.unblocked_target(g.keep_out_center, nullptr);
    default:
      return g.starts[r] + g.offset;
  }
}

std::string stats_line(const RouterStats& s) {
  std::ostringstream os;
  os << "stats solves " << s.solves << " goal_snapped " << s.goal_snapped
     << " fallbacks " << s.fallbacks << " blocked_start " << s.fb_blocked_start
     << " unreachable " << s.fb_unreachable << " stuck_descent "
     << s.fb_stuck_descent << " out_of_domain " << s.fb_out_of_domain << "\n";
  return os.str();
}

std::string route_line(std::size_t r, const TerrainRoute& rt) {
  std::ostringstream os;
  os << "route " << r << " " << (rt.geodesic ? "geodesic" : "straight") << " "
     << (rt.fallback != nullptr ? rt.fallback : "-") << " "
     << rt.points.size() << " " << hex64(points_digest(rt.points)) << "\n";
  return os.str();
}

TEST(FastMarchGolden, PlanTerrainToaChecksumsPinned) {
  const TerrainGeometry g = plan_terrain_geometry();
  const TerrainRouter router(g.options, g.domain, g.r_c);
  const CostField& field = router.field();
  ASSERT_FALSE(field.uniform());
  ASSERT_TRUE(field.has_blocked());
  std::ostringstream os;
  os << "field " << field.nx() << " x " << field.ny() << " blocked "
     << field.blocked_count() << "\n";
  for (std::size_t r = 0; r < g.starts.size(); r += g.starts.size() / 8) {
    const FastMarchResult fm = fast_march(field, g.starts[r]);
    os << "source " << r << " accepted " << fm.accepted << " toa "
       << hex64(toa_checksum(fm.toa)) << "\n";
  }
  testutil::expect_golden(std::string(ANR_GOLDEN_DIR) + "/fmm_plan_terrain_toa.txt",
                          os.str());
}

TEST(FastMarchGolden, PlanTerrainRoutesPinnedAtAnyThreadCount) {
  const TerrainGeometry g = plan_terrain_geometry();
  const std::string golden =
      std::string(ANR_GOLDEN_DIR) + "/fmm_plan_terrain_routes.txt";
  const int saved = arena_threads();
  for (int threads : {1, 2, 4}) {
    set_arena_threads(threads);
    TerrainRouter router(g.options, g.domain, g.r_c);
    router.solve(g.starts);
    std::string text;
    for (std::size_t r = 0; r < g.starts.size(); ++r) {
      const Vec2 goal = pinned_goal(router, g, r);
      text += route_line(r, router.route(static_cast<int>(r), goal));
    }
    text += stats_line(router.stats());
    SCOPED_TRACE("arena threads " + std::to_string(threads));
    testutil::expect_golden(golden, text);
  }
  set_arena_threads(saved);
}

// route_all extracts the routes in parallel and tallies afterwards: the
// same routes and stats as the serial route() loop pinned above.
TEST(FastMarchGolden, PlanTerrainRouteAllMatchesPinnedRoutes) {
  const TerrainGeometry g = plan_terrain_geometry();
  const std::string golden =
      std::string(ANR_GOLDEN_DIR) + "/fmm_plan_terrain_routes.txt";
  const int saved = arena_threads();
  for (int threads : {1, 2, 4}) {
    set_arena_threads(threads);
    TerrainRouter router(g.options, g.domain, g.r_c);
    router.solve(g.starts);
    std::vector<Vec2> goals;
    for (std::size_t r = 0; r < g.starts.size(); ++r) {
      goals.push_back(pinned_goal(router, g, r));
    }
    const std::vector<TerrainRoute> routes = router.route_all(goals);
    std::string text;
    for (std::size_t r = 0; r < routes.size(); ++r) {
      text += route_line(r, routes[r]);
    }
    text += stats_line(router.stats());
    SCOPED_TRACE("arena threads " + std::to_string(threads));
    testutil::expect_golden(golden, text);
  }
  set_arena_threads(saved);
}

}  // namespace
}  // namespace anr
