// Surface-aware marching: the 3D prototype must reduce to the planar
// planner on flat terrain and keep the guarantees on rough terrain.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "coverage/lloyd.h"
#include "foi/scenario.h"
#include "io/plan_io.h"
#include "march/planner.h"
#include "terrain/surface_metrics.h"
#include "terrain/surface_planner.h"

namespace anr {
namespace {

#ifndef ANR_GOLDEN_DIR
#define ANR_GOLDEN_DIR "golden"
#endif

struct Fixture {
  Scenario sc = scenario(1);
  std::vector<Vec2> deploy;
  Vec2 off;
  SurfacePlannerOptions opt;

  Fixture() {
    deploy = optimal_coverage_positions(sc.m1, sc.num_robots, 1,
                                        uniform_density())
                 .positions;
    off = sc.m1.centroid() + Vec2{15.0 * sc.comm_range, 0.0} -
          sc.m2_shape.centroid();
    opt.mesher.target_grid_points = 600;
    opt.cvt_samples = 10000;
    opt.max_adjust_steps = 20;
  }

  HeightField rough(double amplitude) const {
    BBox bb = sc.m1.bbox();
    bb.expand(sc.m2_shape.translated(off).bbox());
    return HeightField::rolling(bb, 50, amplitude, 130.0, 31);
  }
};

TEST(SurfaceAdjacency, FlatMatchesPlanar) {
  auto pts = std::vector<Vec2>{{0, 0}, {50, 0}, {120, 0}};
  auto adj = surface_adjacency(pts, HeightField{}, 80.0);
  EXPECT_EQ(adj[0], (std::vector<int>{1}));
  EXPECT_EQ(adj[1], (std::vector<int>{0, 2}));
}

TEST(SurfaceAdjacency, RidgeBreaksLink) {
  // Two robots 70m apart with a 60m ridge between them: chord distance
  // stays 70 (endpoints lifted equally) — but placing one robot ON the
  // ridge stretches the chord beyond range.
  HeightField ridge({Hill{{35.0, 0.0}, 60.0, 10.0}});
  std::vector<Vec2> pts{{0, 0}, {35, 0}};
  // Height difference ~60 over 35m: chord = sqrt(35^2 + ~60^2) ≈ 69.5.
  auto adj = surface_adjacency(pts, ridge, 60.0);
  EXPECT_TRUE(adj[0].empty());
  auto adj2 = surface_adjacency(pts, ridge, 75.0);
  EXPECT_FALSE(adj2[0].empty());
}

TEST(SurfaceWeights, PositiveOnLiftedMesh) {
  TriangleMesh m({{0, 0}, {10, 0}, {5, 8}, {5, -8}},
                 {Tri{0, 1, 2}, Tri{0, 3, 1}});
  HeightField h({Hill{{5.0, 0.0}, 6.0, 4.0}});
  auto w = surface_mean_value_weights(h);
  EXPECT_GT(w(m, 0, 1), 0.0);
  EXPECT_GT(w(m, 0, 2), 0.0);
  // Flat terrain weights match the planar mean-value weights in spirit:
  // symmetric triangle -> equal weights for symmetric edges.
  auto wf = surface_mean_value_weights(HeightField{});
  EXPECT_NEAR(wf(m, 0, 2), wf(m, 0, 3), 1e-12);
}

TEST(SurfacePlanner, FlatTerrainMatchesPlanarPlanner) {
  Fixture f;
  SurfaceMarchPlanner surf(f.sc.m1, f.sc.m2_shape, HeightField{},
                           f.sc.comm_range, f.opt);
  MarchPlan splan = surf.plan(f.deploy, f.off);

  PlannerOptions popt;
  popt.mesher = f.opt.mesher;
  popt.cvt_samples = f.opt.cvt_samples;
  popt.max_adjust_steps = f.opt.max_adjust_steps;
  // Planar planner with mean-value weights = flat surface weights.
  popt.disk.weights = HarmonicWeights::kMeanValue;
  MarchPlanner planar(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, popt);
  MarchPlan pplan = planar.plan(f.deploy, f.off);

  // Same rotation probes, closely matching predicted link ratios.
  EXPECT_EQ(splan.rotation_evaluations, pplan.rotation_evaluations);
  EXPECT_NEAR(splan.predicted_link_ratio, pplan.predicted_link_ratio, 0.05);
  // Flat chords are planar distances, so the rim gaps agree too.
  EXPECT_GT(splan.max_boundary_gap, 0.0);
  EXPECT_DOUBLE_EQ(splan.max_boundary_gap, pplan.max_boundary_gap);

  auto m = simulate_on_surface(splan.trajectories, HeightField{},
                               f.sc.comm_range, splan.transition_end, 100);
  EXPECT_TRUE(m.base.global_connectivity);
  EXPECT_GT(m.base.stable_link_ratio, 0.6);
}

TEST(SurfacePlanner, RoughTerrainKeepsGuarantees) {
  Fixture f;
  HeightField terrain = f.rough(40.0);
  SurfaceMarchPlanner surf(f.sc.m1, f.sc.m2_shape, terrain, f.sc.comm_range,
                           f.opt);
  MarchPlan plan = surf.plan(f.deploy, f.off);
  auto m = simulate_on_surface(plan.trajectories, terrain, f.sc.comm_range,
                               plan.transition_end, 120);
  EXPECT_TRUE(m.base.global_connectivity);
  EXPECT_GT(m.base.stable_link_ratio, 0.5);
  EXPECT_GT(m.surface_distance, m.planar_distance);
  EXPECT_GT(plan.max_boundary_gap, 0.0);
  // Final positions inside M2 on the map.
  FieldOfInterest m2 = f.sc.m2_shape.translated(f.off);
  for (Vec2 p : plan.final_positions) EXPECT_TRUE(m2.contains(p));
}

TEST(SurfacePlanner, SurfaceAwareBeatsPlanarPlanOnTerrain) {
  // The surface-aware planner should preserve at least as many 3D links
  // as the terrain-blind planar plan evaluated on the same terrain.
  Fixture f;
  HeightField terrain = f.rough(45.0);
  SurfaceMarchPlanner surf(f.sc.m1, f.sc.m2_shape, terrain, f.sc.comm_range,
                           f.opt);
  PlannerOptions popt;
  popt.mesher = f.opt.mesher;
  popt.cvt_samples = f.opt.cvt_samples;
  popt.max_adjust_steps = f.opt.max_adjust_steps;
  MarchPlanner planar(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, popt);

  auto ms = simulate_on_surface(surf.plan(f.deploy, f.off).trajectories,
                                terrain, f.sc.comm_range, 1.0, 100);
  auto mp = simulate_on_surface(planar.plan(f.deploy, f.off).trajectories,
                                terrain, f.sc.comm_range, 1.0, 100);
  EXPECT_GE(ms.base.stable_link_ratio, mp.base.stable_link_ratio - 0.05);
}

TEST(SurfacePlanner, ReportsM2MeshStats) {
  // The shared M2 precompute fills m2_stats for surface plans too.
  Fixture f;
  SurfaceMarchPlanner surf(f.sc.m1, f.sc.m2_shape, f.rough(40.0),
                           f.sc.comm_range, f.opt);
  MarchPlan plan = surf.plan(f.deploy, f.off);
  EXPECT_GT(plan.m2_stats.vertices, 0u);
  EXPECT_GT(plan.m2_stats.triangles, 0u);
}

// Golden determinism for the surface planner: serialized plan bytes of the
// fixture on flat and rolling terrain, pinned through save_plan. Any drift
// in the surface link model, the lifted harmonic weights, the slope-scaled
// CVT or the shared pipeline stages shows up here as a diff.
//
// Regenerate (only when an intentional numeric change lands) with
//   ANR_REGEN_GOLDEN=1 ./test_surface_planner --gtest_filter='GoldenSurfacePlan.*'
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void check_surface_golden(const std::string& stem, const HeightField& terrain) {
  Fixture f;
  SurfaceMarchPlanner surf(f.sc.m1, f.sc.m2_shape, terrain, f.sc.comm_range,
                           f.opt);
  MarchPlan plan = surf.plan(f.deploy, f.off);
  const std::string golden_path =
      std::string(ANR_GOLDEN_DIR) + "/" + stem + ".json";

  if (std::getenv("ANR_REGEN_GOLDEN") != nullptr) {
    std::string err;
    ASSERT_TRUE(save_plan(plan, golden_path, &err)) << err;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path
                               << " (run with ANR_REGEN_GOLDEN=1)";
  const std::string tmp_path = "golden_tmp_" + stem + ".json";
  std::string err;
  ASSERT_TRUE(save_plan(plan, tmp_path, &err)) << err;
  const std::string got = slurp(tmp_path);
  std::remove(tmp_path.c_str());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, golden) << "plan bytes diverged from the golden snapshot "
                         << golden_path;
}

TEST(GoldenSurfacePlan, FlatByteIdentical) {
  check_surface_golden("surface_plan_flat", HeightField{});
}

TEST(GoldenSurfacePlan, RoughByteIdentical) {
  check_surface_golden("surface_plan_rough", Fixture{}.rough(40.0));
}

}  // namespace
}  // namespace anr
