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

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/task_arena.h"
#include "geom/segment.h"
#include "io/terrain_io.h"
#include "march/terrain_router.h"
#include "terrain/fast_marching.h"

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

}  // namespace
}  // namespace anr
