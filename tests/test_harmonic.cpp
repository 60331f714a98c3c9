// Harmonic disk maps: embedding validity, boundary conditions, weight
// schemes, distributed equivalence, the two engines (multigrid
// and direct-solve differentials, stall fallback, typed failure,
// thread-count determinism), and solver-independent pins
// (multigrid and residual oracles) on the meshes the planner maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/task_arena.h"
#include "coverage/lloyd.h"
#include "foi/foi_mesher.h"
#include "foi/scenario.h"
#include "harmonic/disk_map.h"
#include "harmonic/distributed_disk_map.h"
#include "march/stages.h"
#include "march/triangulation_extract.h"
#include "mesh/alpha_extract.h"
#include "mesh/hole_fill.h"
#include "terrain/surface_planner.h"
#include "test_util.h"

namespace anr {
namespace {

TriangleMesh lattice_mesh(double radius = 60.0) {
  auto pts = testutil::lattice_disk({0, 0}, radius, 12.0);
  return alpha_extract(pts, 14.0).mesh;
}

void expect_valid_disk_map(const TriangleMesh& mesh, const DiskMap& map) {
  ASSERT_EQ(map.disk_pos.size(), mesh.num_vertices());
  EXPECT_TRUE(map.converged);
  EXPECT_DOUBLE_EQ(map.embedding_quality(mesh), 1.0);
  for (std::size_t v = 0; v < mesh.num_vertices(); ++v) {
    double r = map.disk_pos[v].norm();
    if (map.on_boundary[v]) {
      EXPECT_NEAR(r, 1.0, 1e-9) << "boundary vertex " << v;
    } else {
      EXPECT_LT(r, 1.0) << "interior vertex " << v;
    }
  }
}

TEST(DiskMap, UniformWeightsEmbedding) {
  TriangleMesh mesh = lattice_mesh();
  DiskMap map = harmonic_disk_map(mesh);
  expect_valid_disk_map(mesh, map);
}

TEST(DiskMap, MeanValueWeightsEmbedding) {
  TriangleMesh mesh = lattice_mesh();
  DiskMapOptions opt;
  opt.weights = HarmonicWeights::kMeanValue;
  DiskMap map = harmonic_disk_map(mesh, opt);
  expect_valid_disk_map(mesh, map);
}

TEST(DiskMap, ChordLengthSpacing) {
  TriangleMesh mesh = lattice_mesh();
  DiskMapOptions opt;
  opt.spacing = BoundarySpacing::kChordLength;
  DiskMap map = harmonic_disk_map(mesh, opt);
  expect_valid_disk_map(mesh, map);
}

TEST(DiskMap, InteriorIsNeighborAverage) {
  TriangleMesh mesh = lattice_mesh();
  DiskMap map = harmonic_disk_map(mesh);
  for (std::size_t v = 0; v < mesh.num_vertices(); ++v) {
    if (map.on_boundary[v]) continue;
    Vec2 avg{};
    const auto& nb = mesh.neighbors(static_cast<VertexId>(v));
    for (VertexId u : nb) avg += map.disk_pos[static_cast<std::size_t>(u)];
    avg = avg / static_cast<double>(nb.size());
    EXPECT_NEAR(map.disk_pos[v].x, avg.x, 1e-7);
    EXPECT_NEAR(map.disk_pos[v].y, avg.y, 1e-7);
  }
}

TEST(DiskMap, BoundaryUniformByHops) {
  TriangleMesh mesh = lattice_mesh();
  DiskMap map = harmonic_disk_map(mesh);
  // Count boundary vertices; consecutive boundary angles differ by 2*pi/b.
  std::size_t b = 0;
  for (char f : map.on_boundary) b += f ? 1u : 0u;
  ASSERT_GT(b, 3u);
  std::vector<double> angles;
  for (std::size_t v = 0; v < mesh.num_vertices(); ++v) {
    if (map.on_boundary[v]) angles.push_back(map.disk_pos[v].angle());
  }
  std::sort(angles.begin(), angles.end());
  for (std::size_t i = 1; i < angles.size(); ++i) {
    EXPECT_NEAR(angles[i] - angles[i - 1], 2.0 * M_PI / static_cast<double>(b),
                1e-6);
  }
}

TEST(DiskMap, RequiresDiskTopology) {
  FieldOfInterest annulus = testutil::square_with_hole(100.0, 25.0);
  MesherOptions opt;
  opt.target_grid_points = 300;
  FoiMesh fm = mesh_foi(annulus, opt);
  EXPECT_THROW(harmonic_disk_map(fm.mesh), ContractViolation);
  // After hole filling it works.
  HoleFillResult filled = fill_holes(fm.mesh);
  DiskMap map = harmonic_disk_map(filled.mesh);
  EXPECT_TRUE(map.converged);
  EXPECT_GT(map.embedding_quality(filled.mesh), 0.99);
}

TEST(DiskMap, DistributedMatchesCentralized) {
  TriangleMesh mesh = lattice_mesh(45.0);
  DiskMap central = harmonic_disk_map(mesh);
  DistributedDiskMap dist = distributed_harmonic_disk_map(mesh, 1e-10);
  ASSERT_TRUE(dist.map.converged);
  for (std::size_t v = 0; v < mesh.num_vertices(); ++v) {
    EXPECT_NEAR(central.disk_pos[v].x, dist.map.disk_pos[v].x, 1e-4) << v;
    EXPECT_NEAR(central.disk_pos[v].y, dist.map.disk_pos[v].y, 1e-4) << v;
  }
  EXPECT_GT(dist.boundary_messages, 0u);
  EXPECT_GT(dist.relax_messages, 0u);
}

TEST(DiskMap, DeterministicAcrossRuns) {
  TriangleMesh mesh = lattice_mesh();
  DiskMap a = harmonic_disk_map(mesh);
  DiskMap b = harmonic_disk_map(mesh);
  for (std::size_t v = 0; v < mesh.num_vertices(); ++v) {
    EXPECT_EQ(a.disk_pos[v], b.disk_pos[v]);
  }
}

// A mesh large enough that kAuto picks the multigrid path (interior
// count above DiskMapOptions::multigrid_threshold).
FoiMesh large_blob_mesh(int target_points = 6000) {
  Polygon blob = make_circle({0, 0}, 400.0, 64);
  FieldOfInterest foi{std::move(blob)};
  MesherOptions opt;
  opt.target_grid_points = target_points;
  return mesh_foi(foi, opt);
}

TEST(DiskMapMultigrid, MatchesDirect) {
  FoiMesh fm = large_blob_mesh();
  DiskMapOptions direct_opt;
  direct_opt.solver = HarmonicSolver::kDirect;
  DiskMap direct = harmonic_disk_map(fm.mesh, direct_opt);
  ASSERT_TRUE(direct.converged);
  ASSERT_FALSE(direct.used_multigrid);
  EXPECT_EQ(direct.sweeps, 0);
  EXPECT_EQ(direct.cycles, 0);
  EXPECT_TRUE(direct.status.ok());

  DiskMapOptions mg_opt;
  mg_opt.solver = HarmonicSolver::kMultigrid;
  DiskMap mg = harmonic_disk_map(fm.mesh, mg_opt);
  ASSERT_TRUE(mg.converged);
  ASSERT_TRUE(mg.used_multigrid);
  EXPECT_GT(mg.cycles, 0);
  EXPECT_GT(mg.sweeps, 0);
  EXPECT_TRUE(mg.status.ok());
  // Both solve the same linear system: multigrid to its tolerance, the
  // direct solve exactly.
  expect_valid_disk_map(fm.mesh, mg);
  expect_valid_disk_map(fm.mesh, direct);
  for (std::size_t v = 0; v < fm.mesh.num_vertices(); ++v) {
    EXPECT_NEAR(direct.disk_pos[v].x, mg.disk_pos[v].x, 1e-6) << v;
    EXPECT_NEAR(direct.disk_pos[v].y, mg.disk_pos[v].y, 1e-6) << v;
  }
}

TEST(DiskMapMultigrid, AutoSelectsByInteriorCount) {
  // Small mesh: kAuto takes the direct solve.
  DiskMap small = harmonic_disk_map(lattice_mesh());
  EXPECT_FALSE(small.used_multigrid);
  EXPECT_EQ(small.sweeps, 0);
  EXPECT_EQ(small.cycles, 0);
  EXPECT_TRUE(small.status.ok());

  // Lowering the threshold flips the same mesh onto the multigrid path
  // without changing the embedding's validity.
  DiskMapOptions opt;
  opt.multigrid_threshold = 1;
  TriangleMesh mesh = lattice_mesh();
  DiskMap forced = harmonic_disk_map(mesh, opt);
  EXPECT_TRUE(forced.used_multigrid);
  expect_valid_disk_map(mesh, forced);
}

TEST(DiskMapMultigrid, DeterministicAcrossArenaThreads) {
  FoiMesh fm = large_blob_mesh(4000);
  for (HarmonicSolver solver :
       {HarmonicSolver::kMultigrid, HarmonicSolver::kDirect}) {
    DiskMapOptions opt;
    opt.solver = solver;
    set_arena_threads(1);
    DiskMap serial = harmonic_disk_map(fm.mesh, opt);
    ASSERT_TRUE(serial.converged);
    for (int threads : {2, 4}) {
      set_arena_threads(threads);
      DiskMap par = harmonic_disk_map(fm.mesh, opt);
      ASSERT_EQ(serial.disk_pos.size(), par.disk_pos.size());
      for (std::size_t v = 0; v < serial.disk_pos.size(); ++v) {
        ASSERT_EQ(serial.disk_pos[v], par.disk_pos[v])
            << "vertex " << v << " diverged at " << threads << " threads";
      }
      EXPECT_EQ(serial.sweeps, par.sweeps);
      EXPECT_EQ(serial.cycles, par.cycles);
    }
  }
  set_arena_threads(0);
}

TEST(DiskMapMultigrid, StallFallsBackToDirect) {
  // No fine sweep can meet a negative tolerance, so multigrid spends its
  // whole cycle budget and the direct solve produces the map.
  TriangleMesh mesh = lattice_mesh();
  DiskMapOptions opt;
  opt.solver = HarmonicSolver::kMultigrid;
  opt.tol = -1.0;
  DiskMap stalled = harmonic_disk_map(mesh, opt);
  EXPECT_TRUE(stalled.used_multigrid);
  EXPECT_GT(stalled.sweeps, 0);
  EXPECT_TRUE(stalled.status.ok());
  expect_valid_disk_map(mesh, stalled);
  DiskMapOptions direct_opt;
  direct_opt.solver = HarmonicSolver::kDirect;
  DiskMap direct = harmonic_disk_map(mesh, direct_opt);
  for (std::size_t v = 0; v < mesh.num_vertices(); ++v) {
    EXPECT_EQ(stalled.disk_pos[v], direct.disk_pos[v]) << v;
  }
}

TEST(DiskMapMultigrid, NonConvergenceSurfacesStatus) {
  // Weights whose sums overflow make every pivot infinite: both engines
  // (multigrid, then its direct fallback) must surface a typed error
  // instead of a map.
  TriangleMesh mesh = lattice_mesh();
  for (HarmonicSolver solver :
       {HarmonicSolver::kAuto, HarmonicSolver::kMultigrid}) {
    DiskMapOptions opt;
    opt.solver = solver;
    opt.custom_weight = [](const TriangleMesh&, VertexId, VertexId) {
      return 1e308;
    };
    DiskMap map = harmonic_disk_map(mesh, opt);
    EXPECT_FALSE(map.converged);
    EXPECT_FALSE(map.status.ok());
    EXPECT_EQ(map.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(map.status.to_string().find("direct solve failed"),
              std::string::npos)
        << map.status.to_string();
  }
}

// --- solver-independent pins -------------------------------------------------
// Two oracles that any solver of the interior system must meet, whatever
// engine kAuto picks: a forced multigrid solve of the same system, and the
// largest residual |x_v - weighted mean of v's neighbours| over the
// interior vertices. Inputs: the meshes the planner maps (the seven paper
// M2s, T at 144 and 4096 robots, the filled T of a holed M1) and a surface
// mesh with the lifted, non-symmetric mean-value weights.

constexpr double kOracleTol = 1e-8;
constexpr double kResidualBound = 1e-10;

double weight_of(const TriangleMesh& mesh, const DiskMapOptions& opt,
                 VertexId v, VertexId u) {
  return opt.custom_weight ? opt.custom_weight(mesh, v, u) : 1.0;
}

double max_residual(const TriangleMesh& mesh, const DiskMap& map,
                    const DiskMapOptions& opt) {
  double worst = 0.0;
  for (std::size_t v = 0; v < mesh.num_vertices(); ++v) {
    if (map.on_boundary[v]) continue;
    Vec2 acc{};
    double wsum = 0.0;
    for (VertexId u : mesh.neighbors(static_cast<VertexId>(v))) {
      const double w = weight_of(mesh, opt, static_cast<VertexId>(v), u);
      acc += map.disk_pos[static_cast<std::size_t>(u)] * w;
      wsum += w;
    }
    worst = std::max(worst, distance(map.disk_pos[v], acc / wsum));
  }
  return worst;
}

void expect_meets_oracles(const TriangleMesh& mesh, const DiskMapOptions& opt) {
  DiskMap got = harmonic_disk_map(mesh, opt);
  ASSERT_TRUE(got.status.ok()) << got.status.to_string();
  ASSERT_TRUE(got.converged);
  DiskMapOptions mg_opt = opt;
  mg_opt.solver = HarmonicSolver::kMultigrid;
  DiskMap mg = harmonic_disk_map(mesh, mg_opt);
  ASSERT_TRUE(mg.converged) << mg.status.to_string();
  double move = 0.0;
  for (std::size_t v = 0; v < mesh.num_vertices(); ++v) {
    move = std::max(move, distance(got.disk_pos[v], mg.disk_pos[v]));
  }
  EXPECT_LE(move, kOracleTol);
  EXPECT_LE(max_residual(mesh, got, opt), kResidualBound);
}

// The planner's T: extraction at r_c, compacted to the meshed robots, holes
// filled.
TriangleMesh filled_t(const std::vector<Vec2>& robots, double r_c) {
  return fill_holes(compact_t(extract_triangulation(robots, r_c).mesh).mesh)
      .mesh;
}

TriangleMesh paper_t(int id) {
  const Scenario sc = scenario(id);
  return filled_t(optimal_coverage_positions(sc.m1, sc.num_robots, 1,
                                             uniform_density())
                      .positions,
                  sc.comm_range);
}

TEST(DiskMapDirect, PaperM2s) {
  for (const Scenario& sc : paper_scenarios()) {
    SCOPED_TRACE(sc.name);
    const TriangleMesh mesh = fill_holes(mesh_foi(sc.m2_shape, {}).mesh).mesh;
    expect_meets_oracles(mesh, {});
  }
}

TEST(DiskMapDirect, PaperT144) { expect_meets_oracles(paper_t(1), {}); }

TEST(DiskMapDirect, FilledHoledT) {
  // Scenario 6's M1 has a hole, so its T is mapped after hole filling.
  expect_meets_oracles(paper_t(6), {});
}

TEST(DiskMapDirect, SwarmT4096Forced) {
  // Above multigrid_threshold kAuto would pick multigrid; force the solver
  // that runs below it.
  const TriangleMesh mesh =
      filled_t(testutil::swarm_4k_points(), scenario(1).comm_range);
  DiskMapOptions opt;
  opt.solver = HarmonicSolver::kDirect;
  expect_meets_oracles(mesh, opt);
}

TEST(DiskMapDirect, SurfaceMeanValueWeights) {
  const Scenario sc = scenario(1);
  const HeightField terrain =
      HeightField::rolling(sc.m2_shape.bbox(), 20, 60.0, 130.0, 31);
  MesherOptions mo;
  mo.target_grid_points = 600;
  const TriangleMesh mesh = fill_holes(mesh_foi(sc.m2_shape, mo).mesh).mesh;
  DiskMapOptions opt;
  opt.custom_weight = surface_mean_value_weights(terrain);
  expect_meets_oracles(mesh, opt);
}

// Property sweep: maps of meshed FoI shapes are always valid embeddings.
class DiskMapProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiskMapProperty, MeshedBlobEmbeds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Polygon blob = make_circle({0, 0}, 80.0 + rng.uniform(0.0, 40.0), 40);
  FieldOfInterest foi{std::move(blob)};
  MesherOptions opt;
  opt.target_grid_points = 250;
  opt.seed = static_cast<std::uint64_t>(GetParam());
  FoiMesh fm = mesh_foi(foi, opt);
  DiskMap map = harmonic_disk_map(fm.mesh);
  expect_valid_disk_map(fm.mesh, map);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskMapProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace anr
