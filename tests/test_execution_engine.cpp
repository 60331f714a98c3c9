// Execution engine: fault-free fidelity, seeded-campaign determinism, and
// the recovery-policy contrast the fault subsystem exists to demonstrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "coverage/lloyd.h"
#include "fault/fault_schedule.h"
#include "foi/scenario.h"
#include "io/event_io.h"
#include "march/execution_engine.h"
#include "march/planner.h"
#include "test_util.h"

namespace anr {
namespace {

struct ExecFixture {
  Scenario sc;
  Vec2 offset;
  std::unique_ptr<MarchPlanner> planner;
  MarchPlan plan;
  FieldOfInterest m2_world;
};

// Plans are expensive; build one per scenario for the whole binary.
const ExecFixture& fixture(int id) {
  static std::map<int, std::unique_ptr<ExecFixture>> cache;
  auto it = cache.find(id);
  if (it == cache.end()) {
    auto fx = std::make_unique<ExecFixture>();
    fx->sc = scenario(id);
    auto deploy = optimal_coverage_positions(fx->sc.m1, 72, /*seed=*/1,
                                             uniform_density())
                      .positions;
    fx->offset = fx->sc.m1.centroid() + Vec2{12.0 * fx->sc.comm_range, 0.0} -
                 fx->sc.m2_shape.centroid();
    PlannerOptions opt;
    opt.mesher.target_grid_points = 350;
    opt.cvt_samples = 4000;
    opt.max_adjust_steps = 5;
    fx->planner = std::make_unique<MarchPlanner>(fx->sc.m1, fx->sc.m2_shape,
                                                 fx->sc.comm_range, opt);
    fx->plan = fx->planner->plan(deploy, fx->offset);
    fx->m2_world = fx->sc.m2_shape.translated(fx->offset);
    it = cache.emplace(id, std::move(fx)).first;
  }
  return *it->second;
}

// The drill campaign: a seeded random mix plus one long mid-transition
// actuator jam that recovery must bridge and whose absence must break.
fault::FaultSchedule drill_campaign(const ExecFixture& fx, std::uint64_t seed,
                                    int range_degradations = 0) {
  Rng rng(seed);
  fault::CampaignOptions co;
  co.crashes = 2;
  co.range_degradations = range_degradations;
  fault::FaultSchedule schedule =
      fault::random_campaign(rng, 72, 0.0, fx.plan.total_time, co);
  fault::FaultEvent jam;
  jam.kind = fault::FaultKind::kStuck;
  jam.robot = 7;
  jam.t_start = 0.2 * fx.plan.total_time;
  jam.duration = 0.6 * fx.plan.total_time;
  schedule.add(jam);
  schedule.normalize();
  return schedule;
}

TEST(ExecutionEngine, FaultFreeRunMatchesThePlan) {
  const ExecFixture& fx = fixture(1);
  ExecutionEngine engine(fx.sc.comm_range);
  ExecutionReport rep = engine.run(fx.plan, {}, fx.m2_world);

  EXPECT_EQ(rep.num_robots, 72);
  EXPECT_EQ(static_cast<int>(rep.survivors.size()), 72);
  EXPECT_DOUBLE_EQ(rep.survival_rate, 1.0);
  EXPECT_TRUE(rep.crashed.empty());
  EXPECT_TRUE(rep.connected_throughout);
  EXPECT_TRUE(rep.final_connected);
  EXPECT_FALSE(rep.degraded);
  EXPECT_EQ(rep.pauses, 0);
  EXPECT_EQ(rep.recoveries, 0);
  // Tick-sampled chords can only undershoot the exact trajectory length.
  EXPECT_LE(rep.executed_distance, rep.planned_distance * (1.0 + 1e-9));
  EXPECT_GE(rep.executed_distance, rep.planned_distance * 0.95);
  // The only event in a clean run is completion.
  ASSERT_EQ(rep.events.size(), 1u);
  EXPECT_EQ(rep.events.front().type, ExecEventType::kCompleted);
}

// The report bytes are also pinned in tests/golden/, so any change to how
// faults act on motion, links or the log shows up as a diff. Regenerate
// with ANR_REGEN_GOLDEN=1 only for an intended change.
std::string golden_path(const std::string& stem) {
  return std::string(ANR_GOLDEN_DIR) + "/" + stem + ".json";
}

TEST(ExecutionEngine, SeededCampaignIsByteDeterministic) {
  for (int id : {1, 5}) {
    const ExecFixture& fx = fixture(id);
    fault::FaultSchedule schedule = drill_campaign(fx, 42u ^ id);
    ExecutionEngine engine(fx.sc.comm_range);
    ExecutionReport a = engine.run(fx.plan, schedule, fx.m2_world);
    ExecutionReport b =
        ExecutionEngine(fx.sc.comm_range).run(fx.plan, schedule, fx.m2_world);
    EXPECT_EQ(events_to_json(a.events).dump(), events_to_json(b.events).dump())
        << "scenario " << id;
    EXPECT_EQ(execution_report_to_json(a).dump(),
              execution_report_to_json(b).dump())
        << "scenario " << id;
    testutil::expect_golden(
        golden_path("exec_report_scenario" + std::to_string(id)),
        execution_report_to_json(a).dump(1) + "\n");

    // A different seed reshuffles the campaign and the log with it.
    fault::FaultSchedule other = drill_campaign(fx, 43u ^ id);
    ExecutionReport c =
        ExecutionEngine(fx.sc.comm_range).run(fx.plan, other, fx.m2_world);
    EXPECT_NE(events_to_json(a.events).dump(), events_to_json(c.events).dump())
        << "scenario " << id;
  }

  // The same campaign with a range degradation window added.
  const ExecFixture& fx = fixture(1);
  ExecutionReport ranged =
      ExecutionEngine(fx.sc.comm_range)
          .run(fx.plan, drill_campaign(fx, 42u ^ 1, /*range_degradations=*/1),
               fx.m2_world);
  testutil::expect_golden(golden_path("exec_report_scenario1_range"),
                          execution_report_to_json(ranged).dump(1) + "\n");
}

TEST(ExecutionEngine, RecoveryKeepsConnectivityThatItsAbsenceLoses) {
  for (int id : {1, 5}) {
    const ExecFixture& fx = fixture(id);
    fault::FaultSchedule schedule = drill_campaign(fx, 42u ^ id);

    ExecutionOptions with;
    with.enable_recovery = true;
    ExecutionReport on =
        ExecutionEngine(fx.sc.comm_range, with).run(fx.plan, schedule,
                                                    fx.m2_world);
    EXPECT_TRUE(on.connected_throughout) << "scenario " << id;
    EXPECT_TRUE(on.final_connected) << "scenario " << id;
    EXPECT_FALSE(on.degraded) << "scenario " << id;
    EXPECT_GE(on.pauses, 1) << "scenario " << id;
    EXPECT_GE(on.recoveries, 1) << "scenario " << id;
    // Every permanent crash was detected and absorbed: no crashed robot
    // survives, and crashed + survivors partition the swarm.
    EXPECT_EQ(static_cast<int>(on.crashed.size()), 2) << "scenario " << id;
    std::set<int> survivors(on.survivors.begin(), on.survivors.end());
    for (int r : on.crashed) {
      EXPECT_FALSE(survivors.count(r)) << "scenario " << id << " robot " << r;
    }
    EXPECT_EQ(on.crashed.size() + on.survivors.size(), 72u)
        << "scenario " << id;

    ExecutionOptions without;
    without.enable_recovery = false;
    ExecutionReport off =
        ExecutionEngine(fx.sc.comm_range, without).run(fx.plan, schedule,
                                                       fx.m2_world);
    EXPECT_FALSE(off.connected_throughout) << "scenario " << id;
    EXPECT_GE(off.first_disconnect_time, 0.0) << "scenario " << id;
    EXPECT_EQ(off.pauses, 0) << "scenario " << id;
    EXPECT_EQ(off.recoveries, 0) << "scenario " << id;
  }
}

TEST(ExecutionEngine, StuckRobotPausesTheMarchAndCatchesUp) {
  const ExecFixture& fx = fixture(1);
  fault::FaultSchedule schedule;
  fault::FaultEvent jam;
  jam.kind = fault::FaultKind::kStuck;
  jam.robot = 7;
  jam.t_start = 0.2 * fx.plan.total_time;
  jam.duration = 0.6 * fx.plan.total_time;
  schedule.add(jam);

  ExecutionReport rep =
      ExecutionEngine(fx.sc.comm_range).run(fx.plan, schedule, fx.m2_world);
  EXPECT_TRUE(rep.connected_throughout);
  EXPECT_TRUE(rep.final_connected);
  EXPECT_FALSE(rep.degraded);
  EXPECT_GE(rep.pauses, 1);
  EXPECT_EQ(rep.recoveries, 0);
  EXPECT_DOUBLE_EQ(rep.survival_rate, 1.0);
  // The pause stretches wall time past the nominal horizon.
  EXPECT_GT(rep.end_time, fx.plan.total_time);
  bool saw_pause_end = false;
  for (const ExecutionEvent& e : rep.events) {
    if (e.type == ExecEventType::kPauseEnded) saw_pause_end = true;
  }
  EXPECT_TRUE(saw_pause_end);
}

TEST(ExecutionEngine, MissionChangeRetargetsMidMarch) {
  const ExecFixture& fx = fixture(1);
  Vec2 new_offset = fx.offset + Vec2{0.0, 3.0 * fx.sc.comm_range};
  // Recovery off: a replanned mid-march leg carries no connectivity
  // guarantee (test_resilience covers when it does), and this test is
  // about the splice mechanics, not the guard.
  ExecutionOptions opt;
  opt.enable_recovery = false;
  MissionChange mc;
  mc.t = 0.5 * fx.plan.total_time;
  mc.planner = fx.planner.get();
  mc.m2_offset = new_offset;
  opt.mission_changes.push_back(mc);

  ExecutionReport rep = ExecutionEngine(fx.sc.comm_range, opt)
                            .run(fx.plan, {}, fx.m2_world);
  EXPECT_EQ(rep.retargets, 1);
  EXPECT_FALSE(rep.degraded);
  EXPECT_DOUBLE_EQ(rep.survival_rate, 1.0);
  bool saw_retarget = false, saw_completed = false;
  for (const ExecutionEvent& e : rep.events) {
    if (e.type == ExecEventType::kRetargeted) saw_retarget = true;
    if (e.type == ExecEventType::kCompleted) saw_completed = true;
  }
  EXPECT_TRUE(saw_retarget);
  EXPECT_TRUE(saw_completed);
  // The second leg extends the mission past the original horizon...
  EXPECT_GT(rep.end_time, fx.plan.total_time);
  // ...and the swarm ends near the new target, not the original one.
  Vec2 centroid{0.0, 0.0};
  for (const Vec2& p : rep.final_positions) centroid += p;
  centroid = centroid * (1.0 / static_cast<double>(rep.final_positions.size()));
  FieldOfInterest m2_new = fx.sc.m2_shape.translated(new_offset);
  EXPECT_LT(distance(centroid, m2_new.centroid()),
            distance(centroid, fx.m2_world.centroid()));
}

TEST(ExecutionEngine, AllRobotsCrashingDegradesInsteadOfLooping) {
  const ExecFixture& fx = fixture(1);
  fault::FaultSchedule schedule;
  for (int r = 0; r < 72; ++r) {
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kCrash;
    e.robot = r;
    e.t_start = 0.1 * fx.plan.total_time;
    schedule.add(e);
  }
  ExecutionReport rep =
      ExecutionEngine(fx.sc.comm_range).run(fx.plan, schedule, fx.m2_world);
  EXPECT_TRUE(rep.degraded);
  EXPECT_TRUE(rep.survivors.empty());
  EXPECT_DOUBLE_EQ(rep.survival_rate, 0.0);
  EXPECT_EQ(static_cast<int>(rep.crashed.size()), 72);
}

TEST(ExecutionEngine, RejectsSchedulesThatFailValidation) {
  const ExecFixture& fx = fixture(1);
  fault::FaultSchedule schedule;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kCrash;
  e.robot = 99;  // out of range for a 72-robot plan
  e.t_start = 0.1;
  schedule.add(e);
  EXPECT_THROW(ExecutionEngine(fx.sc.comm_range)
                   .run(fx.plan, schedule, fx.m2_world),
               ContractViolation);
}

}  // namespace
}  // namespace anr
