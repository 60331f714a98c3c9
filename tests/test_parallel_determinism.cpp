// Differential determinism: the headline guarantee of the intra-plan
// parallelism layer is that plans are byte-identical through save_plan at
// every thread count. For each golden-set scenario this suite plans once
// serially, then re-plans at 2/4/8 arena threads and diffs the serialized
// bytes — and re-plans at the same thread count to catch scheduling
// nondeterminism (racy accumulation would make even same-count runs
// diverge). A surface plan over rolling terrain joins the set: its
// rotation probes run through the same parallel batch objective. Runs
// under TSan in CI alongside test_task_arena.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/task_arena.h"
#include "coverage/lloyd.h"
#include "foi/scenario.h"
#include "io/plan_io.h"
#include "march/planner.h"
#include "terrain/surface_planner.h"

namespace anr {
namespace {

// Same fixture as test_golden_plan: small-but-real settings that still
// exercise triangulation extraction, both harmonic maps, the rotation
// search, repair, and adjustment. Scenarios 1 (convex -> disjoint), 5
// (concave) and 6 (holed -> holed) cover the mesh shapes the multicolor
// sweep has to order consistently. The surface planner on scenario 1
// over rolling terrain joins them: its rotation probes run through the
// same parallel batch objective.
struct PlanInput {
  int scenario;
  bool surface;
};
constexpr PlanInput kInputs[] = {{1, false}, {5, false}, {6, false}, {1, true}};

std::string input_name(const PlanInput& in) {
  return (in.surface ? "SurfaceScenario" : "Scenario") +
         std::to_string(in.scenario);
}

PlannerOptions plan_options() {
  PlannerOptions opt;
  opt.mesher.target_grid_points = 350;
  opt.cvt_samples = 4000;
  opt.max_adjust_steps = 5;
  return opt;
}

std::string plan_bytes(const MarchPlan& plan, const std::string& tag) {
  std::string path =
      "det_tmp_" + tag + "_t" + std::to_string(arena_threads()) + ".json";
  std::string err;
  EXPECT_TRUE(save_plan(plan, path, &err)) << err;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

Vec2 plan_offset(const Scenario& sc) {
  return sc.m1.centroid() + Vec2{12.0 * sc.comm_range, 0.0} -
         sc.m2_shape.centroid();
}

std::vector<Vec2> deployment(const Scenario& sc) {
  return optimal_coverage_positions(sc.m1, 72, /*seed=*/1, uniform_density())
      .positions;
}

std::string plan_bytes(const PlanInput& in) {
  Scenario sc = scenario(in.scenario);
  const Vec2 offset = plan_offset(sc);
  if (!in.surface) {
    MarchPlanner planner(sc.m1, sc.m2_shape, sc.comm_range, plan_options());
    return plan_bytes(planner.plan(deployment(sc), offset), input_name(in));
  }
  BBox bb = sc.m1.bbox();
  bb.expand(sc.m2_shape.translated(offset).bbox());
  SurfacePlannerOptions opt;
  opt.mesher = plan_options().mesher;
  opt.cvt_samples = plan_options().cvt_samples;
  opt.max_adjust_steps = plan_options().max_adjust_steps;
  SurfaceMarchPlanner planner(sc.m1, sc.m2_shape,
                              HeightField::rolling(bb, 50, 40.0, 130.0, 31),
                              sc.comm_range, opt);
  return plan_bytes(planner.plan(deployment(sc), offset), input_name(in));
}

class ParallelDeterminismTest : public ::testing::TestWithParam<PlanInput> {
 protected:
  void TearDown() override { set_arena_threads(0); }
};

TEST_P(ParallelDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  set_arena_threads(1);
  const std::string serial = plan_bytes(GetParam());
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 4, 8}) {
    set_arena_threads(threads);
    EXPECT_EQ(plan_bytes(GetParam()), serial)
        << input_name(GetParam()) << " diverged at " << threads
        << " arena threads";
  }
}

TEST_P(ParallelDeterminismTest, RepeatRunsSelfIdentical) {
  set_arena_threads(4);
  const std::string first = plan_bytes(GetParam());
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(plan_bytes(GetParam()), first)
      << input_name(GetParam()) << " not reproducible at a fixed thread count";
}

INSTANTIATE_TEST_SUITE_P(GoldenSet, ParallelDeterminismTest,
                         ::testing::ValuesIn(kInputs),
                         [](const ::testing::TestParamInfo<PlanInput>& info) {
                           return input_name(info.param);
                         });

}  // namespace
}  // namespace anr
