// Coverage: exact Voronoi vs grid CVT, Lloyd convergence, density effects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "coverage/density.h"
#include "coverage/grid_cvt.h"
#include "coverage/lloyd.h"
#include "coverage/voronoi.h"
#include "common/task_arena.h"
#include "foi/shapes.h"
#include "geom/grid_index.h"
#include "net/unit_disk_graph.h"
#include "test_util.h"

namespace anr {
namespace {

TEST(Voronoi, CellsPartitionTheBoundary) {
  Polygon sq = make_rect({0, 0}, {100, 100});
  auto sites = testutil::random_points(12, 10.0, 90.0, 4);
  auto cells = clipped_voronoi_cells(sites, sq);
  double total = 0.0;
  for (const Polygon& c : cells) total += c.area();
  EXPECT_NEAR(total, sq.area(), 1e-6);
}

TEST(Voronoi, CellContainsItsSite) {
  Polygon sq = make_rect({0, 0}, {100, 100});
  auto sites = testutil::random_points(15, 5.0, 95.0, 8);
  auto cells = clipped_voronoi_cells(sites, sq);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_TRUE(cells[i].contains(sites[i])) << i;
  }
}

TEST(Voronoi, TwoSitesSplitSquare) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  auto cents = voronoi_centroids({{2.5, 5.0}, {7.5, 5.0}}, sq);
  EXPECT_NEAR(cents[0].x, 2.5, 1e-9);
  EXPECT_NEAR(cents[1].x, 7.5, 1e-9);
}

TEST(GridCvt, CentroidsMatchExactVoronoiOnSquare) {
  FieldOfInterest foi = testutil::square_foi(100.0);
  GridCvt grid(foi, uniform_density(), 60000);
  auto sites = testutil::random_points(10, 20.0, 80.0, 12);
  auto approx = grid.centroids(sites);
  auto exact = voronoi_centroids(sites, foi.outer());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_LT(distance(approx[i], exact[i]), 1.5) << i;  // ~grid spacing
  }
}

TEST(GridCvt, CentroidsAvoidHoles) {
  FieldOfInterest foi = testutil::square_with_hole(100.0, 25.0);
  GridCvt grid(foi, uniform_density(), 20000);
  // A site at the hole center: its centroid must not be inside the hole.
  std::vector<Vec2> sites{{50.0, 50.0}, {10.0, 10.0}, {90.0, 90.0}};
  auto cents = grid.centroids(sites);
  for (Vec2 c : cents) EXPECT_TRUE(foi.contains(c));
}

TEST(GridCvt, NearestSample) {
  FieldOfInterest foi = testutil::square_foi(50.0);
  GridCvt grid(foi, uniform_density(), 5000);
  Vec2 s = grid.nearest_sample({25.0, 25.0});
  EXPECT_LT(distance(s, Vec2(25.0, 25.0)), 2.0 * grid.spacing());
}

// --- block-coherent assignment vs the per-sample reference -----------------

// The per-sample assignment GridCvt used before block-coherent assignment:
// one ring scan per sample over a 4 x spacing site index, sums accumulated
// in sample order, centroids outside the FoI snapped to the nearest sample.
std::vector<Vec2> per_sample_centroids(const GridCvt& grid,
                                       const DensityFn& density,
                                       const std::vector<Vec2>& sites) {
  GridIndex index(sites, std::max(grid.spacing() * 4.0, 1e-9));
  std::vector<Vec2> acc(sites.size());
  std::vector<double> mass(sites.size(), 0.0);
  for (Vec2 p : grid.samples()) {
    const std::size_t site = static_cast<std::size_t>(index.nearest(p));
    const double w = density(p);
    acc[site] += p * w;
    mass[site] += w;
  }
  std::vector<Vec2> out;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (mass[i] <= 0.0) {
      out.push_back(sites[i]);
      continue;
    }
    Vec2 c = acc[i] / mass[i];
    if (!grid.foi().contains(c)) c = grid.nearest_sample(c);
    out.push_back(c);
  }
  return out;
}

// Blob with a flower-shaped pond, at the paper scenarios' scale.
FieldOfInterest pond_blob() {
  return FieldOfInterest(
      make_blob({0.0, 0.0}, 320.0, {{2, 0.12, 0.4}, {3, 0.07, 1.3}}),
      {make_flower({20.0, -15.0}, 95.0, 5, 0.35)});
}

DensityFn pond_density() { return hotspot_density({-150.0, 90.0}, 4.0, 60.0); }

// Bitwise equality of two centroid lists.
testing::AssertionResult same_bits(const std::vector<Vec2>& got,
                                   const std::vector<Vec2>& want) {
  if (got.size() != want.size()) {
    return testing::AssertionFailure()
           << got.size() << " centroids, want " << want.size();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i].x != want[i].x || got[i].y != want[i].y) {
      return testing::AssertionFailure()
             << "site " << i << ": (" << got[i].x << ", " << got[i].y
             << "), want (" << want[i].x << ", " << want[i].y << ")";
    }
  }
  return testing::AssertionSuccess();
}

// Bitwise equality at one and four arena threads.
void expect_matches_reference(const GridCvt& grid, const DensityFn& density,
                              const std::vector<Vec2>& sites) {
  const std::vector<Vec2> want = per_sample_centroids(grid, density, sites);
  for (int threads : {1, 4}) {
    set_arena_threads(threads);
    const std::vector<Vec2> got = grid.centroids(sites);
    set_arena_threads(0);
    ASSERT_TRUE(same_bits(got, want)) << "threads " << threads;
  }
}

TEST(GridCvtBlocks, MatchesPerSampleReferenceOnRandomSites) {
  const FieldOfInterest foi = pond_blob();
  const DensityFn density = pond_density();
  const GridCvt grid(foi, density, 24000);
  for (int n : {1, 2, 144, 4096}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(n));
      std::vector<Vec2> sites;
      for (int i = 0; i < n; ++i) sites.push_back(foi.sample_point(rng));
      SCOPED_TRACE(testing::Message() << n << " sites, seed " << seed);
      expect_matches_reference(grid, density, sites);
    }
  }
}

TEST(GridCvtBlocks, MatchesPerSampleReferenceWithSitesOutsideTheFoi) {
  const FieldOfInterest foi = pond_blob();
  const DensityFn density = pond_density();
  const GridCvt grid(foi, density, 24000);
  // Sites spread over a box three times the FoI's size: many fall in the
  // pond or far outside, some capture no sample at all.
  for (int n : {1, 2, 144}) {
    auto sites = testutil::random_points(n, -1000.0, 1000.0,
                                         static_cast<std::uint64_t>(n) + 11);
    SCOPED_TRACE(testing::Message() << n << " sites");
    expect_matches_reference(grid, density, sites);
  }
  // All sites far away on one side.
  expect_matches_reference(grid, density,
                           {{5000.0, 40.0}, {5200.0, -30.0}, {5000.0, 41.0}});
}

TEST(GridCvtBlocks, MatchesPerSampleReferenceWithDuplicateSites) {
  const FieldOfInterest foi = pond_blob();
  const DensityFn density = pond_density();
  const GridCvt grid(foi, density, 24000);
  Rng rng(21);
  std::vector<Vec2> sites;
  for (int i = 0; i < 144; ++i) sites.push_back(foi.sample_point(rng));
  // Every fourth site repeated, at a later index, plus one triple.
  for (std::size_t i = 0; i < 144; i += 4) sites.push_back(sites[i]);
  sites.push_back(sites[5]);
  sites.push_back(sites[5]);
  expect_matches_reference(grid, density, sites);
  // Two sites only, at the same point.
  expect_matches_reference(grid, density, {sites[7], sites[7]});
}

TEST(GridCvtBlocks, ExactTiesFollowTheRingScanOrder) {
  const FieldOfInterest foi = pond_blob();
  const DensityFn density = pond_density();
  const GridCvt grid(foi, density, 24000);
  const std::vector<Vec2>& samples = grid.samples();
  // Sites mirrored about every 37th sample, so that sample is equidistant
  // from each mirrored pair; offsets vary in length and direction, and
  // the pair members alternate in index order, so the candidate order and
  // the ring-scan order disagree on some ties.
  Rng rng(5);
  std::vector<Vec2> sites;
  for (std::size_t s = 0; s < samples.size(); s += 37) {
    const double len = grid.spacing() * rng.uniform(0.2, 1.6);
    const double ang = rng.uniform(0.0, 6.283185307179586);
    const Vec2 v{len * std::cos(ang), len * std::sin(ang)};
    if ((s / 37) % 2 == 0) {
      sites.push_back(samples[s] + v);
      sites.push_back(samples[s] - v);
    } else {
      sites.push_back(samples[s] - v);
      sites.push_back(samples[s] + v);
    }
  }
  // Axis-aligned mirrors at exactly representable offsets, four-way ties.
  for (std::size_t s = 18; s < samples.size(); s += 1013) {
    const double d = 0.5 * grid.spacing();
    for (Vec2 v : {Vec2{d, 0.0}, Vec2{0.0, d}, Vec2{-d, 0.0}, Vec2{0.0, -d}}) {
      sites.push_back(samples[s] + v);
    }
  }
  // The layout really produces ties: some sample's two nearest sites are
  // equally far, to the 1e-12 relative tolerance that triggers the
  // per-sample ring scan.
  GridIndex index(sites, 4.0 * grid.spacing());
  int ties = 0;
  for (Vec2 p : samples) {
    std::vector<int> near = index.k_nearest(p, 2);
    const double d0 = distance2(sites[static_cast<std::size_t>(near[0])], p);
    const double d1 = distance2(sites[static_cast<std::size_t>(near[1])], p);
    if (d1 - d0 <= 1e-12 * d1) ++ties;
  }
  EXPECT_GT(ties, 100);
  expect_matches_reference(grid, density, sites);
}

TEST(GridCvtBlocks, ReusedScratchMatchesReferenceAcrossLloydSteps) {
  const FieldOfInterest foi = pond_blob();
  const DensityFn density = pond_density();
  const GridCvt grid(foi, density, 24000);
  // One scratch per arena width, each reused for every call below: Lloyd
  // at 144 sites, then at 4096 on the same scratch (a site-count change).
  GridCvt::Scratch scratch1, scratch4;
  std::vector<Vec2> got;
  // Checks one call at 1 and at 4 arena threads; returns the reference.
  auto step = [&](const std::vector<Vec2>& sites) {
    const std::vector<Vec2> want = per_sample_centroids(grid, density, sites);
    set_arena_threads(1);
    grid.centroids_into(sites, scratch1, got);
    EXPECT_TRUE(same_bits(got, want)) << "1 arena thread";
    set_arena_threads(4);
    grid.centroids_into(sites, scratch4, got);
    EXPECT_TRUE(same_bits(got, want)) << "4 arena threads";
    set_arena_threads(0);
    return want;
  };
  std::vector<Vec2> sites;
  for (int n : {144, 4096}) {
    Rng rng(static_cast<std::uint64_t>(n) + 3);
    sites.clear();
    for (int i = 0; i < n - 4; ++i) sites.push_back(foi.sample_point(rng));
    // Sites outside the FoI: in the pond, and far out where they capture
    // no sample and keep their position.
    sites.push_back({20.0, -15.0});
    sites.push_back({-900.0, 40.0});
    sites.push_back({900.0, -600.0});
    sites.push_back({5000.0, 5000.0});
    const double slack = grid.list_slack(sites.size());
    for (int k = 0; k < 50; ++k) {
      SCOPED_TRACE(testing::Message() << n << " sites, Lloyd step " << k);
      std::vector<Vec2> next = step(sites);
      if (k == 20) {
        // A jump larger than the slack forces a list rebuild.
        for (std::size_t i = 0; i < next.size(); i += 7) {
          next[i] += Vec2{1.5 * slack, -0.5 * slack};
        }
      }
      sites = std::move(next);
    }
    // Moves just inside the slack, in random directions, all measured
    // from one list build: the lists must keep every site that comes up
    // to the slack closer to a block while its nearest site moves away.
    // The shifted call first moves every site by twice the slack, so the
    // unshifted one rebuilds the lists exactly at `base`.
    const std::vector<Vec2> base = sites;
    for (Vec2& p : sites) p += Vec2{2.0 * slack, 0.0};
    step(sites);
    step(base);
    for (int probe = 0; probe < 8; ++probe) {
      SCOPED_TRACE(testing::Message() << n << " sites, probe " << probe);
      for (std::size_t i = 0; i < sites.size(); ++i) {
        const double a = rng.uniform(0.0, 6.283185307179586);
        sites[i] = base[i] + Vec2{std::cos(a), std::sin(a)} * (0.99 * slack);
      }
      step(sites);
    }
  }
  // The same scratch on another sampling, at the same site count.
  const GridCvt other(foi, density, 12000);
  set_arena_threads(1);
  other.centroids_into(sites, scratch1, got);
  set_arena_threads(0);
  EXPECT_TRUE(same_bits(got, per_sample_centroids(other, density, sites)));
}

// True when some point of segment a-b lies in the closed box
// (Liang-Barsky clipping).
bool segment_meets_box(Vec2 a, Vec2 b, const BBox& box) {
  const Vec2 d = b - a;
  double t0 = 0.0, t1 = 1.0;
  auto clip = [&](double p, double q) {  // keeps the t with p t <= q
    if (p == 0.0) return q >= 0.0;
    const double r = q / p;
    if (p < 0.0) {
      t0 = std::max(t0, r);
    } else {
      t1 = std::min(t1, r);
    }
    return t0 <= t1;
  };
  return clip(-d.x, a.x - box.lo.x) && clip(d.x, box.hi.x - a.x) &&
         clip(-d.y, a.y - box.lo.y) && clip(d.y, box.hi.y - a.y);
}

TEST(GridCvtBlocks, InteriorBlocksLieInsideTheFoi) {
  const std::vector<FieldOfInterest> fois{
      pond_blob(), testutil::square_with_hole(100.0, 25.0),
      FieldOfInterest(make_flower({0.0, 0.0}, 200.0, 5, 0.35))};
  Rng rng(17);
  for (std::size_t f = 0; f < fois.size(); ++f) {
    SCOPED_TRACE(testing::Message() << "FoI " << f);
    const FieldOfInterest& foi = fois[f];
    const GridCvt grid(foi, uniform_density(), 24000);
    const std::vector<BBox> blocks = grid.interior_blocks();
    // Flagged blocks cover most of the FoI: the shortcut is taken.
    double flagged_area = 0.0;
    for (const BBox& b : blocks) flagged_area += b.width() * b.height();
    EXPECT_GT(flagged_area, 0.5 * foi.area());
    std::vector<Segment> edges = foi.outer().edges();
    for (const Polygon& h : foi.holes()) {
      for (const Segment& e : h.edges()) edges.push_back(e);
    }
    for (const BBox& b : blocks) {
      for (const Segment& e : edges) {
        ASSERT_FALSE(segment_meets_box(e.a, e.b, b))
            << "block at (" << b.lo.x << ", " << b.lo.y << ")";
      }
      for (int k = 0; k < 16; ++k) {
        const Vec2 p{rng.uniform(b.lo.x, b.hi.x), rng.uniform(b.lo.y, b.hi.y)};
        ASSERT_TRUE(foi.contains(p)) << "(" << p.x << ", " << p.y << ")";
      }
    }
  }
}

TEST(Lloyd, ConvergesAndStaysInside) {
  FieldOfInterest foi = testutil::square_foi(200.0);
  GridCvt grid(foi, uniform_density(), 20000);
  Rng rng(3);
  std::vector<Vec2> sites;
  for (int i = 0; i < 30; ++i) sites.push_back(foi.sample_point(rng));
  auto res = lloyd(grid, sites);
  EXPECT_TRUE(res.converged);
  for (Vec2 p : res.positions) EXPECT_TRUE(foi.contains(p));
}

TEST(Lloyd, ReducesSpacingVariance) {
  // CVT should approach the equilateral lattice: nearest-neighbor
  // distances become much more uniform than the random start.
  FieldOfInterest foi = testutil::square_foi(200.0);
  GridCvt grid(foi, uniform_density(), 30000);
  Rng rng(5);
  std::vector<Vec2> sites;
  for (int i = 0; i < 50; ++i) sites.push_back(foi.sample_point(rng));

  auto nn_cv = [&](const std::vector<Vec2>& pts) {
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      double best = 1e300;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        if (i != j) best = std::min(best, distance(pts[i], pts[j]));
      }
      sum += best;
      sum2 += best * best;
    }
    double mean = sum / static_cast<double>(pts.size());
    double var = sum2 / static_cast<double>(pts.size()) - mean * mean;
    return std::sqrt(std::max(var, 0.0)) / mean;
  };

  double before = nn_cv(sites);
  auto res = lloyd(grid, sites);
  double after = nn_cv(res.positions);
  EXPECT_LT(after, before * 0.5);
}

TEST(Lloyd, OptimalCoverageDeterministicPerSeed) {
  FieldOfInterest foi = testutil::square_foi(150.0);
  auto a = optimal_coverage_positions(foi, 25, 42, uniform_density());
  auto b = optimal_coverage_positions(foi, 25, 42, uniform_density());
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
  }
}

TEST(Density, HotspotConcentratesSites) {
  FieldOfInterest foi = testutil::square_foi(100.0);
  Vec2 hot{25.0, 25.0};
  auto uniform = optimal_coverage_positions(foi, 40, 7, uniform_density());
  auto weighted = optimal_coverage_positions(
      foi, 40, 7, hotspot_density(hot, 8.0, 15.0));
  auto near_hot = [&](const std::vector<Vec2>& pts) {
    int cnt = 0;
    for (Vec2 p : pts) {
      if (distance(p, hot) < 25.0) ++cnt;
    }
    return cnt;
  };
  EXPECT_GT(near_hot(weighted.positions), near_hot(uniform.positions));
}

TEST(Density, HoleProximityConcentratesNearHole) {
  FieldOfInterest foi = testutil::square_with_hole(200.0, 30.0);
  auto uniform = optimal_coverage_positions(foi, 60, 9, uniform_density());
  auto weighted = optimal_coverage_positions(
      foi, 60, 9, hole_proximity_density(foi, 6.0, 20.0));
  auto near_hole = [&](const std::vector<Vec2>& pts) {
    int cnt = 0;
    for (Vec2 p : pts) {
      if (foi.distance_to_nearest_hole(p) < 25.0) ++cnt;
    }
    return cnt;
  };
  EXPECT_GT(near_hole(weighted.positions), near_hole(uniform.positions));
}

TEST(Density, UniformIsOne) {
  auto d = uniform_density();
  EXPECT_DOUBLE_EQ(d({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(d({1e6, -1e6}), 1.0);
}

}  // namespace
}  // namespace anr
