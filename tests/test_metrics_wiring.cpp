// End-to-end metric wiring: a planned march, a served batch, and a fault
// drill must leave exactly the expected deltas in an attached Registry —
// and must leave the deterministic artifacts (plans, execution event
// logs) byte-identical to an uninstrumented run.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coverage/lloyd.h"
#include "fault/fault_schedule.h"
#include "foi/scenario.h"
#include "io/event_io.h"
#include "io/metrics_io.h"
#include "io/plan_io.h"
#include "march/execution_engine.h"
#include "march/planner.h"
#include "march/transition_sim.h"
#include "obs/metrics.h"
#include "runtime/mission_service.h"

namespace anr {
namespace {

using runtime::JobResult;
using runtime::JobStatus;
using runtime::MissionService;
using runtime::PlanJob;
using runtime::ServiceOptions;

PlannerOptions fast_options() {
  PlannerOptions opt;
  opt.mesher.target_grid_points = 350;
  opt.cvt_samples = 4000;
  opt.max_adjust_steps = 5;
  return opt;
}

struct Fixture {
  Scenario sc = scenario(1);
  std::vector<Vec2> deploy =
      optimal_coverage_positions(sc.m1, 72, /*seed=*/1, uniform_density())
          .positions;
  Vec2 offset = sc.m1.centroid() + Vec2{12.0 * sc.comm_range, 0.0} -
                sc.m2_shape.centroid();
  FieldOfInterest m2_world = sc.m2_shape.translated(offset);
};

const Fixture& fixture() {
  static Fixture f;
  return f;
}

PlanJob make_job(const Fixture& f, const std::string& id) {
  PlanJob j;
  j.id = id;
  j.m1 = f.sc.m1;
  j.m2_shape = f.sc.m2_shape;
  j.r_c = f.sc.comm_range;
  j.m2_offset = f.offset;
  j.positions = f.deploy;
  j.options = fast_options();
  return j;
}

// --- planner stage spans + counters -----------------------------------------

TEST(MetricsWiring, PlannerEmitsStageSpansAndCounters) {
  const Fixture& f = fixture();
  obs::Registry reg;
  MarchPlanner planner(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                       fast_options());
  planner.set_observer(&reg);
  MarchPlan plan = planner.plan(f.deploy, f.offset);
  ASSERT_EQ(plan.trajectories.size(), f.deploy.size());

  EXPECT_EQ(reg.counter("anr_plans_total")->value(), 1u);
  EXPECT_GT(reg.counter("anr_rotation_probes_total")->value(), 0u);
  EXPECT_EQ(reg.histogram("anr_plan_seconds")->count(), 1u);
  EXPECT_GT(reg.histogram("anr_plan_seconds")->sum(), 0.0);

  const char* stages[] = {"extraction", "harmonic_map", "rotation_search",
                          "interpolation", "adjustment"};
  for (const char* stage : stages) {
    obs::Histogram* h =
        reg.histogram("anr_plan_stage_seconds", {{"stage", stage}});
    EXPECT_EQ(h->count(), 1u) << stage;
  }
  // The adjustment sub-stages: one observation each per plan, summed over
  // the Lloyd steps and nested inside the adjustment stage's time.
  double sub_sum = 0.0;
  for (const char* sub :
       {"adjust_cvt", "adjust_connectivity", "adjust_append"}) {
    obs::Histogram* h =
        reg.histogram("anr_plan_stage_seconds", {{"stage", sub}});
    EXPECT_EQ(h->count(), 1u) << sub;
    sub_sum += h->sum();
  }
  EXPECT_GT(sub_sum, 0.0);
  EXPECT_LE(sub_sum,
            reg.histogram("anr_plan_stage_seconds", {{"stage", "adjustment"}})
                ->sum());
  // Straight-line motion has no transition guard.
  EXPECT_EQ(reg.histogram("anr_plan_stage_seconds",
                          {{"stage", "transition_guard"}})
                ->count(),
            0u);

  // The span ring carries one outer "plan" span and one per stage, with
  // the stages nested one level below it.
  std::set<std::string> names;
  bool saw_outer = false;
  for (const obs::SpanRecord& r : reg.span_snapshot()) {
    names.insert(r.name);
    if (std::string(r.name) == "plan") {
      saw_outer = true;
      EXPECT_EQ(r.depth, 0);
    } else {
      EXPECT_EQ(r.depth, 1) << r.name;
    }
  }
  EXPECT_TRUE(saw_outer);
  for (const char* stage : stages) {
    EXPECT_TRUE(names.count(stage)) << stage;
  }
}

// --- terrain: transition guard stage and its unresolved counter ---------

// Geodesic motion over the fixture's corridor: rolling hills, slope cost and
// one mud patch (the GoldenPlanGeodesic terrain), plus an optional keep-out
// block of half-size `block` x r_c centred in the corridor.
PlannerOptions terrain_options(const Fixture& f, double block = 0.0) {
  PlannerOptions opt = fast_options();
  opt.trajectory.motion = MotionModel::kTerrainGeodesic;
  const Vec2 mid = lerp(f.sc.m1.centroid(), f.m2_world.centroid(), 0.5);
  if (block > 0.0) {
    const double h = block * f.sc.comm_range;
    opt.trajectory.terrain.keep_out.push_back(
        make_rect({mid.x - h, mid.y - h}, {mid.x + h, mid.y + h}));
    return opt;
  }
  BBox tb = f.sc.m1.bbox();
  tb.expand(f.m2_world.bbox().lo);
  tb.expand(f.m2_world.bbox().hi);
  opt.trajectory.terrain.terrain =
      HeightField::rolling(tb, 10, 30.0, 150.0, /*seed=*/77);
  opt.trajectory.terrain.slope_weight = 2.0;
  opt.trajectory.terrain.uphill_penalty = 0.3;
  opt.trajectory.terrain.mud.push_back({mid, 100.0, 2.5});
  return opt;
}

TEST(MetricsWiring, TerrainPlanTimesTransitionGuardInsidePlan) {
  const Fixture& f = fixture();
  obs::Registry reg;
  MarchPlanner planner(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                       terrain_options(f));
  planner.set_observer(&reg);
  MarchPlan plan = planner.plan(f.deploy, f.offset);
  ASSERT_GT(plan.fmm_solves, 0);

  obs::Histogram* guard =
      reg.histogram("anr_plan_stage_seconds", {{"stage", "transition_guard"}});
  EXPECT_EQ(guard->count(), 1u);
  EXPECT_GT(guard->sum(), 0.0);
  // The guard straightens routes until every sample is connected.
  EXPECT_EQ(reg.counter("anr_transition_guard_unresolved_total")->value(), 0u);

  const obs::SpanRecord* outer = nullptr;
  const obs::SpanRecord* inner = nullptr;
  std::vector<obs::SpanRecord> spans = reg.span_snapshot();
  for (const obs::SpanRecord& r : spans) {
    if (std::string(r.name) == "plan") outer = &r;
    if (std::string(r.name) == "transition_guard") {
      EXPECT_EQ(inner, nullptr) << "one guard span per plan";
      inner = &r;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_LT(inner->seq, outer->seq);
  EXPECT_GE(inner->start_s, outer->start_s);
  EXPECT_LE(inner->start_s + inner->dur_s, outer->start_s + outer->dur_s);
}

TEST(MetricsWiring, UnresolvedTransitionGuardIsCounted) {
  // A keep-out block 2 r_c square across the corridor: every straightened
  // chord detours around it, the swarm splits into the streams passing
  // either side, and the guard runs out of routes to straighten. 57 robots
  // is the smallest seed-1 scenario-1 deployment that is connected.
  const Fixture& f = fixture();
  const std::vector<Vec2> deploy =
      optimal_coverage_positions(f.sc.m1, 57, /*seed=*/1, uniform_density())
          .positions;
  const PlannerOptions opt = terrain_options(f, /*block=*/1.0);
  MarchPlanner bare(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, opt);
  MarchPlan plain = bare.plan(deploy, f.offset);

  obs::Registry reg;
  MarchPlanner planner(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, opt);
  planner.set_observer(&reg);
  MarchPlan plan = planner.plan(deploy, f.offset);

  EXPECT_EQ(reg.counter("anr_transition_guard_unresolved_total")->value(), 1u);
  EXPECT_EQ(reg.counter("anr_fmm_fallbacks_total", {{"reason", "connectivity"}})
                ->value(),
            static_cast<std::uint64_t>(plan.fmm_fallbacks));
  // The counter is the only trace: the plan bytes are the unobserved ones,
  // and the march is indeed split.
  EXPECT_EQ(plan_to_json(plain).dump(), plan_to_json(plan).dump());
  EXPECT_FALSE(simulate_transition(plan.trajectories, f.sc.comm_range,
                                   opt.transition_time, 257)
                   .global_connectivity);
}

TEST(MetricsWiring, PlanIsByteIdenticalWithInstrumentation) {
  const Fixture& f = fixture();
  MarchPlanner bare(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, fast_options());
  MarchPlan plain = bare.plan(f.deploy, f.offset);

  obs::Registry reg;
  MarchPlanner instrumented(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                            fast_options());
  instrumented.set_observer(&reg);
  MarchPlan observed = instrumented.plan(f.deploy, f.offset);

  EXPECT_EQ(plan_to_json(plain).dump(), plan_to_json(observed).dump());
  EXPECT_GT(reg.counter("anr_plans_total")->value(), 0u);
}

// --- service: cache hit on repeat submit, typed-status counters -------------

TEST(MetricsWiring, ServiceCountsCacheHitOnRepeatSubmit) {
  const Fixture& f = fixture();
  obs::Registry reg;
  ServiceOptions opt;
  opt.threads = 2;
  opt.registry = &reg;
  MissionService service(opt);

  JobResult first = service.submit(make_job(f, "first")).get();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  JobResult second = service.submit(make_job(f, "second")).get();
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cache_hit);

  EXPECT_EQ(reg.counter("anr_jobs_submitted_total")->value(), 2u);
  EXPECT_EQ(reg.counter("anr_jobs_total", {{"status", "ok"}})->value(), 2u);
  EXPECT_EQ(reg.counter("anr_cache_misses_total")->value(), 1u);
  EXPECT_EQ(reg.counter("anr_cache_hits_total")->value(), 1u);
  EXPECT_EQ(reg.counter("anr_cache_coalesced_total")->value(), 0u);
  EXPECT_EQ(reg.counter("anr_cache_constructions_total")->value(), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("anr_cache_entries")->value(), 1.0);
  EXPECT_EQ(reg.histogram("anr_job_e2e_seconds")->count(), 2u);
  EXPECT_EQ(reg.histogram("anr_job_queue_seconds")->count(), 2u);
  EXPECT_EQ(reg.histogram("anr_planner_build_seconds")->count(), 1u);
  // The cached planner was attached to the same registry by the build
  // lambda, so planner-side families advanced too.
  EXPECT_EQ(reg.counter("anr_plans_total")->value(), 2u);

  // A rejected job lands in its own status series, not in "ok".
  PlanJob bad = make_job(f, "bad");
  bad.positions.clear();
  JobResult rejected = service.submit(std::move(bad)).get();
  EXPECT_EQ(rejected.status, JobStatus::kRejectedInvalid);
  EXPECT_EQ(
      reg.counter("anr_jobs_total", {{"status", "rejected_invalid"}})->value(),
      1u);
  EXPECT_EQ(reg.counter("anr_jobs_total", {{"status", "ok"}})->value(), 2u);

  service.shutdown();
  EXPECT_DOUBLE_EQ(reg.gauge("anr_service_queue_depth")->value(), 0.0);
}

// --- execution: fault drill deltas + event-log byte identity ----------------

fault::FaultSchedule two_crash_schedule(double total_time) {
  fault::FaultSchedule schedule;
  fault::FaultEvent a;
  a.kind = fault::FaultKind::kCrash;
  a.robot = 3;
  a.t_start = 0.2 * total_time;
  schedule.add(a);
  fault::FaultEvent b;
  b.kind = fault::FaultKind::kCrash;
  b.robot = 11;
  b.t_start = 0.35 * total_time;
  schedule.add(b);
  schedule.normalize();
  return schedule;
}

TEST(MetricsWiring, ExecutionCrashCountMatchesSchedule) {
  const Fixture& f = fixture();
  MarchPlanner planner(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                       fast_options());
  MarchPlan plan = planner.plan(f.deploy, f.offset);
  fault::FaultSchedule schedule = two_crash_schedule(plan.total_time);

  obs::Registry reg;
  ExecutionOptions eopt;
  eopt.registry = &reg;
  ExecutionEngine engine(f.sc.comm_range, eopt);
  ExecutionReport rep = engine.run(plan, schedule, f.m2_world);

  EXPECT_EQ(rep.crashed.size(), 2u);
  EXPECT_EQ(reg.counter("anr_exec_runs_total")->value(), 1u);
  EXPECT_GT(reg.counter("anr_exec_ticks_total")->value(), 0u);
  EXPECT_EQ(reg.counter("anr_exec_crashes_total")->value(), 2u);
  EXPECT_EQ(reg.counter("anr_exec_recoveries_total")->value(),
            static_cast<std::uint64_t>(rep.recoveries));
  EXPECT_EQ(reg.counter("anr_exec_pauses_total")->value(),
            static_cast<std::uint64_t>(rep.pauses));
  EXPECT_EQ(reg.counter("anr_exec_retries_total")->value(),
            static_cast<std::uint64_t>(rep.retries));
  EXPECT_EQ(reg.counter("anr_exec_degraded_runs_total")->value(),
            rep.degraded ? 1u : 0u);

  // A second run on the same engine accumulates.
  engine.run(plan, schedule, f.m2_world);
  EXPECT_EQ(reg.counter("anr_exec_runs_total")->value(), 2u);
  EXPECT_EQ(reg.counter("anr_exec_crashes_total")->value(), 4u);
}

TEST(MetricsWiring, ExecutionEventLogByteIdenticalWithInstrumentation) {
  const Fixture& f = fixture();
  MarchPlanner planner(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                       fast_options());
  MarchPlan plan = planner.plan(f.deploy, f.offset);
  fault::FaultSchedule schedule = two_crash_schedule(plan.total_time);

  ExecutionEngine bare(f.sc.comm_range);
  ExecutionReport plain = bare.run(plan, schedule, f.m2_world);

  obs::Registry reg;
  ExecutionOptions eopt;
  eopt.registry = &reg;
  ExecutionEngine instrumented(f.sc.comm_range, eopt);
  ExecutionReport observed = instrumented.run(plan, schedule, f.m2_world);

  EXPECT_EQ(events_to_json(plain.events).dump(),
            events_to_json(observed.events).dump());
  EXPECT_EQ(plain.survivors, observed.survivors);
  EXPECT_DOUBLE_EQ(plain.executed_distance, observed.executed_distance);
}

// --- exposition over a real run ---------------------------------------------

TEST(MetricsWiring, ExpositionCarriesAllWiredFamilies) {
  const Fixture& f = fixture();
  obs::Registry reg;
  ServiceOptions opt;
  opt.threads = 2;
  opt.registry = &reg;
  MissionService service(opt);
  ASSERT_TRUE(service.submit(make_job(f, "only")).get().ok);
  service.shutdown();

  std::string text = metrics_text_exposition(reg);
  for (const char* family :
       {"anr_jobs_submitted_total", "anr_jobs_total", "anr_cache_hits_total",
        "anr_cache_misses_total", "anr_cache_entries", "anr_job_e2e_seconds",
        "anr_plan_stage_seconds", "anr_plans_total", "anr_plan_seconds"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

}  // namespace
}  // namespace anr
