// Decentralized execution: the local-knowledge march must (a) collapse
// to exactly the centralized plan when the channel is merely asynchronous
// — zero loss, any delay seed — and (b) degrade gracefully, not
// silently, when the channel loses messages and partitions: distributed
// crash detection via missed-heartbeat quorums, closest-live-neighbor
// coordinator election, and peer-absorb recovery negotiated entirely by
// message. No controller ever reads a global oracle; these tests pin
// both the equivalence and the degradation story byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/rng.h"
#include "coverage/lloyd.h"
#include "fault/fault_schedule.h"
#include "foi/scenario.h"
#include "io/event_io.h"
#include "march/decentralized_engine.h"
#include "march/execution_engine.h"
#include "march/planner.h"
#include "test_util.h"

namespace anr {
namespace {

struct DexFixture {
  Scenario sc;
  Vec2 offset;
  std::unique_ptr<MarchPlanner> planner;
  MarchPlan plan;
  FieldOfInterest m2_world;
};

// Plans are expensive; build one per scenario for the whole binary. Same
// golden-set settings as test_parallel_determinism / test_execution_engine.
const DexFixture& fixture(int id) {
  static std::map<int, std::unique_ptr<DexFixture>> cache;
  auto it = cache.find(id);
  if (it == cache.end()) {
    auto fx = std::make_unique<DexFixture>();
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

bool same_bits(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec2)) == 0;
}

bool has_event(const ExecutionReport& rep, ExecEventType type) {
  return std::any_of(rep.events.begin(), rep.events.end(),
                     [type](const ExecutionEvent& e) { return e.type == type; });
}

/// Drops every link of `robot` during [t0, t0 + duration): a scripted
/// single-robot partition window.
void add_partition(fault::FaultSchedule& schedule, int robot, int num_robots,
                   double t0, double duration) {
  for (int j = 0; j < num_robots; ++j) {
    if (j == robot) continue;
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kLinkDropout;
    e.link_a = std::min(robot, j);
    e.link_b = std::max(robot, j);
    e.t_start = t0;
    e.duration = duration;
    schedule.add(e);
  }
  schedule.normalize();
}

/// The fault_drill campaign of test_execution_engine: a seeded random mix
/// with two crashes plus one long mid-transition actuator jam.
fault::FaultSchedule drill_campaign(const DexFixture& fx, std::uint64_t seed) {
  Rng rng(seed);
  fault::CampaignOptions co;
  co.crashes = 2;
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

/// The execution report plus the decentralized tallies, for golden pins.
std::string report_bytes(const DecentralizedReport& rep) {
  json::Object o;
  o.emplace("exec", execution_report_to_json(rep.exec));
  o.emplace("messages_sent", rep.messages_sent);
  o.emplace("bytes_sent", rep.bytes_sent);
  o.emplace("suspicions", rep.suspicions);
  o.emplace("elections", rep.elections);
  o.emplace("absorbs", rep.absorbs);
  json::Array detections;
  for (const CrashDetection& d : rep.detections) {
    json::Object det;
    det.emplace("robot", d.robot);
    det.emplace("coordinator", d.coordinator);
    det.emplace("crash_time", d.crash_time);
    det.emplace("suspected_time", d.suspected_time);
    det.emplace("detected_time", d.detected_time);
    det.emplace("recovered_time", d.recovered_time);
    detections.emplace_back(std::move(det));
  }
  o.emplace("detections", std::move(detections));
  return json::Value(std::move(o)).dump(1) + "\n";
}

class ZeroLossEquivalence : public ::testing::TestWithParam<int> {};

// The headline guarantee: under zero loss — synchronous or any delay
// seed — the decentralized march lands every robot on exactly the
// centralized plan's final configuration, bit for bit, and a repeat run
// serializes a byte-identical event log.
TEST_P(ZeroLossEquivalence, MatchesCentralizedPlanAcrossDelaySeeds) {
  const DexFixture& fx = fixture(GetParam());
  const int n = static_cast<int>(fx.plan.trajectories.size());

  // The equivalence target is the plan's own final configuration: the
  // decentralized march must land on the trajectory endpoints bit for
  // bit. The centralized executor is held to the same configuration
  // within its termination tolerance (it stops once every robot is
  // within 1e-9 of its end time, so its reported positions sit an
  // interpolation epsilon short of the exact endpoints).
  std::vector<Vec2> plan_ends;
  plan_ends.reserve(static_cast<std::size_t>(n));
  for (const Trajectory& traj : fx.plan.trajectories) {
    plan_ends.push_back(traj.end());
  }

  ExecutionEngine central(fx.sc.comm_range);
  const ExecutionReport base = central.run(fx.plan, {}, fx.m2_world);
  ASSERT_EQ(static_cast<int>(base.final_positions.size()), n);
  for (int i = 0; i < n; ++i) {
    EXPECT_LT(distance(base.final_positions[static_cast<std::size_t>(i)],
                       plan_ends[static_cast<std::size_t>(i)]),
              1e-6)
        << "centralized executor strayed from the plan endpoint, robot " << i;
  }

  for (std::uint64_t delay_seed : {0ull, 1ull, 2ull}) {
    DecentralizedOptions opt;
    opt.max_delay = delay_seed == 0 ? 1 : 3;
    opt.delay_seed = delay_seed;
    DecentralizedEngine engine(fx.sc.comm_range, opt);
    const DecentralizedReport rep = engine.run(fx.plan, {}, fx.m2_world);

    EXPECT_EQ(static_cast<int>(rep.exec.survivors.size()), n)
        << "delay seed " << delay_seed;
    EXPECT_TRUE(rep.exec.crashed.empty());
    EXPECT_FALSE(rep.exec.degraded);
    // The decentralized observational C verdict agrees with the
    // centralized executor's (scenario 6's plan legitimately passes
    // through a split window, so both report it).
    EXPECT_EQ(rep.exec.connected_throughout, base.connected_throughout)
        << "delay seed " << delay_seed;
    EXPECT_TRUE(same_bits(rep.exec.final_positions, plan_ends))
        << "scenario " << GetParam() << " delay seed " << delay_seed
        << ": decentralized march diverged from the centralized plan";

    // Fault-free runs never detect, elect, or absorb — with or without
    // asynchrony. Self-isolation can only happen while the plan itself
    // strands a singleton (scenario 6's split window).
    EXPECT_FALSE(has_event(rep.exec, ExecEventType::kFaultDetected));
    EXPECT_FALSE(has_event(rep.exec, ExecEventType::kRecoveryStarted));
    EXPECT_EQ(rep.absorbs, 0);
    EXPECT_EQ(rep.detections.size(), 0u);
    if (base.connected_throughout) {
      EXPECT_FALSE(has_event(rep.exec, ExecEventType::kIsolated));
      if (opt.max_delay == 1) {
        ASSERT_EQ(rep.exec.events.size(), 1u);
        EXPECT_EQ(rep.exec.events.front().type, ExecEventType::kCompleted);
      }
    }

    // The swarm talked the whole way: heartbeats flowed, nothing needed
    // the reliable layer.
    EXPECT_GT(rep.heartbeats, 0u);
    EXPECT_GT(rep.messages_delivered, 0u);
    EXPECT_EQ(rep.retransmissions, 0u);

    // Byte determinism: same options, same bytes.
    const DecentralizedReport again =
        DecentralizedEngine(fx.sc.comm_range, opt).run(fx.plan, {}, fx.m2_world);
    EXPECT_EQ(events_to_json(rep.exec.events).dump(),
              events_to_json(again.exec.events).dump())
        << "delay seed " << delay_seed;
    EXPECT_TRUE(same_bits(rep.exec.final_positions, again.exec.final_positions));
    EXPECT_EQ(rep.messages_sent, again.messages_sent);
    EXPECT_EQ(rep.bytes_sent, again.bytes_sent);
  }
}

INSTANTIATE_TEST_SUITE_P(GoldenSet, ZeroLossEquivalence,
                         ::testing::Values(1, 5, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Scenario" + std::to_string(info.param);
                         });

// A mid-march crash under 10% message loss: peers must suspect, confirm
// by quorum, elect the closest live neighbor, and absorb — all over the
// lossy channel, and deterministically so.
TEST(Decentralized, LossyCrashIsDetectedAndAbsorbed) {
  const DexFixture& fx = fixture(1);
  fault::FaultSchedule schedule;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.robot = 7;
  crash.t_start = 0.35 * fx.plan.total_time;
  schedule.add(crash);
  schedule.normalize();

  DecentralizedOptions opt;
  opt.max_delay = 2;
  opt.loss_rate = 0.1;
  DecentralizedEngine engine(fx.sc.comm_range, opt);
  const DecentralizedReport rep = engine.run(fx.plan, schedule, fx.m2_world);

  // The plant killed robot 7; the swarm noticed and recovered without
  // any oracle.
  EXPECT_EQ(rep.exec.crashed, std::vector<int>{7});
  EXPECT_EQ(rep.exec.survivors.size(), 71u);
  ASSERT_EQ(rep.detections.size(), 1u);
  const CrashDetection& det = rep.detections.front();
  EXPECT_EQ(det.robot, 7);
  EXPECT_GE(det.suspected_time, det.crash_time);
  EXPECT_GT(det.detected_time, det.crash_time);
  EXPECT_GT(det.recovered_time, det.detected_time);
  EXPECT_GE(det.coordinator, 0);
  EXPECT_NE(det.coordinator, 7);
  EXPECT_GT(rep.mean_detection_latency, 0.0);
  EXPECT_GT(rep.mean_recovery_latency, 0.0);
  EXPECT_GE(rep.elections, 1);
  EXPECT_GE(rep.absorbs, 1);
  EXPECT_EQ(rep.exec.recoveries, rep.absorbs);

  EXPECT_TRUE(has_event(rep.exec, ExecEventType::kPeerSuspected));
  EXPECT_TRUE(has_event(rep.exec, ExecEventType::kFaultDetected));
  EXPECT_TRUE(has_event(rep.exec, ExecEventType::kCoordinatorElected));
  EXPECT_TRUE(has_event(rep.exec, ExecEventType::kRecoveryFinished));

  // 10% loss really exercised the reliable layer.
  EXPECT_GT(rep.messages_lost, 0u);
  EXPECT_GT(rep.retransmissions, 0u);
  EXPECT_GT(rep.bytes_sent, 0u);

  // Seeded loss is deterministic: the whole story replays byte-equal.
  const DecentralizedReport again =
      DecentralizedEngine(fx.sc.comm_range, opt).run(fx.plan, schedule,
                                                     fx.m2_world);
  EXPECT_EQ(events_to_json(rep.exec.events).dump(),
            events_to_json(again.exec.events).dump());
  EXPECT_TRUE(same_bits(rep.exec.final_positions, again.exec.final_positions));
  EXPECT_EQ(rep.messages_sent, again.messages_sent);
  EXPECT_EQ(rep.retransmissions, again.retransmissions);
  // ...and across builds: the full report bytes are pinned.
  testutil::expect_golden(
      std::string(ANR_GOLDEN_DIR) + "/dex_report_lossy_crash.json",
      report_bytes(rep));
}

// The drill campaign under 10% loss: its full report bytes are pinned in
// tests/golden/ (regenerate with ANR_REGEN_GOLDEN=1 only for an intended
// change).
TEST(Decentralized, LossyDrillReportMatchesGolden) {
  const DexFixture& fx = fixture(1);
  DecentralizedOptions opt;
  opt.loss_rate = 0.1;
  testutil::expect_golden(
      std::string(ANR_GOLDEN_DIR) + "/dex_report_drill_loss10.json",
      report_bytes(DecentralizedEngine(fx.sc.comm_range, opt)
                       .run(fx.plan, drill_campaign(fx, 42u ^ 1),
                            fx.m2_world)));
}

// A short partition (shorter than suspicion + confirm): neighbors raise
// suspicions, the heal clears every one of them, and nobody is absorbed
// — the suspicion/confirm windows are exactly what makes partitions
// survivable.
TEST(Decentralized, ShortPartitionHealClearsSuspicion) {
  const DexFixture& fx = fixture(1);
  const int n = static_cast<int>(fx.plan.trajectories.size());
  const double dt = fx.plan.total_time / 512.0;

  DecentralizedOptions opt;
  opt.suspicion_ticks = 10;
  opt.suspicion_jitter = 2;
  opt.confirm_ticks = 12;
  fault::FaultSchedule schedule;
  add_partition(schedule, /*robot=*/12, n, 0.3 * fx.plan.total_time,
                /*duration=*/14.0 * dt);

  DecentralizedEngine engine(fx.sc.comm_range, opt);
  const DecentralizedReport rep = engine.run(fx.plan, schedule, fx.m2_world);

  EXPECT_EQ(static_cast<int>(rep.exec.survivors.size()), n);
  EXPECT_TRUE(rep.exec.crashed.empty());
  EXPECT_GE(rep.suspicions, 1);
  EXPECT_TRUE(has_event(rep.exec, ExecEventType::kPeerSuspected));
  EXPECT_TRUE(has_event(rep.exec, ExecEventType::kSuspicionCleared));
  EXPECT_FALSE(has_event(rep.exec, ExecEventType::kFaultDetected));
  EXPECT_EQ(rep.absorbs, 0);
  EXPECT_FALSE(rep.exec.degraded);
  // The partition cut the observational C for the window's duration.
  EXPECT_FALSE(rep.exec.connected_throughout);
  EXPECT_TRUE(rep.exec.final_connected);
}

// A long partition (longer than both the isolation budget and suspicion
// + confirm): the cut-off robot flags itself isolated and marches on
// along its timeline, its peers honestly (and wrongly) declare it dead
// and absorb its region, and the heal brings it back — kIsolated,
// kRejoined, and the false-confirm readmission are all in the log.
// Nobody actually died.
TEST(Decentralized, LongPartitionIsolatesThenRejoins) {
  const DexFixture& fx = fixture(1);
  const int n = static_cast<int>(fx.plan.trajectories.size());
  const double dt = fx.plan.total_time / 512.0;

  DecentralizedOptions opt;
  opt.suspicion_ticks = 8;
  opt.suspicion_jitter = 2;
  opt.confirm_ticks = 6;
  opt.election_ticks = 8;
  opt.gather_ticks = 8;
  opt.isolation_ticks = 12;
  fault::FaultSchedule schedule;
  add_partition(schedule, /*robot=*/12, n, 0.3 * fx.plan.total_time,
                /*duration=*/64.0 * dt);

  DecentralizedEngine engine(fx.sc.comm_range, opt);
  const DecentralizedReport rep = engine.run(fx.plan, schedule, fx.m2_world);

  // The partitioned robot was flagged and came back; peers' false verdict is
  // logged as such, and no true crash is ever recorded.
  EXPECT_TRUE(has_event(rep.exec, ExecEventType::kIsolated));
  EXPECT_TRUE(has_event(rep.exec, ExecEventType::kRejoined));
  EXPECT_GE(rep.isolations, 1);
  EXPECT_TRUE(rep.exec.crashed.empty());
  EXPECT_TRUE(rep.detections.empty());
  EXPECT_EQ(static_cast<int>(rep.exec.survivors.size()), n);
  // The false confirm is visible — honest degradation, not silence.
  EXPECT_TRUE(has_event(rep.exec, ExecEventType::kFaultDetected));
  EXPECT_FALSE(rep.exec.connected_throughout);
  EXPECT_TRUE(rep.exec.final_connected);
}

// Recovery off: detection still works (suspicion -> quorum -> confirm)
// but nobody elects or absorbs — the contrast row fault_drill tabulates.
TEST(Decentralized, RecoveryDisabledStillDetects) {
  const DexFixture& fx = fixture(1);
  fault::FaultSchedule schedule;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.robot = 7;
  crash.t_start = 0.35 * fx.plan.total_time;
  schedule.add(crash);
  schedule.normalize();

  DecentralizedOptions opt;
  opt.enable_recovery = false;
  DecentralizedEngine engine(fx.sc.comm_range, opt);
  const DecentralizedReport rep = engine.run(fx.plan, schedule, fx.m2_world);

  ASSERT_EQ(rep.detections.size(), 1u);
  EXPECT_GT(rep.detections.front().detected_time, 0.0);
  EXPECT_LT(rep.detections.front().recovered_time, 0.0);
  EXPECT_EQ(rep.elections, 0);
  EXPECT_EQ(rep.absorbs, 0);
  EXPECT_FALSE(has_event(rep.exec, ExecEventType::kCoordinatorElected));
}

}  // namespace
}  // namespace anr
