// Mission-service runtime: planner cache keying, single-flight
// construction, queue backpressure, graceful shutdown, and the
// thread-safety / determinism contract of MarchPlanner::plan() const.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "common/check.h"
#include "coverage/lloyd.h"
#include "foi/scenario.h"
#include "io/plan_io.h"
#include "mesh/delaunay.h"
#include "runtime/mission_service.h"
#include "runtime/planner_cache.h"
#include "test_util.h"

namespace anr {
namespace {

using runtime::CacheKey;
using runtime::JobResult;
using runtime::JobStatus;
using runtime::MissionService;
using runtime::OverflowPolicy;
using runtime::PlanJob;
using runtime::PlannerCache;
using runtime::ServiceOptions;

// Small-but-real planner settings so runtime tests stay fast.
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
      optimal_coverage_positions(sc.m1, 100, /*seed=*/1, uniform_density())
          .positions;
  Vec2 offset = sc.m1.centroid() + Vec2{12.0 * sc.comm_range, 0.0} -
                sc.m2_shape.centroid();

  PlanJob job(const std::string& id) const {
    PlanJob j;
    j.id = id;
    j.m1 = sc.m1;
    j.m2_shape = sc.m2_shape;
    j.r_c = sc.comm_range;
    j.m2_offset = offset;
    j.positions = deploy;
    j.options = fast_options();
    return j;
  }
};

const Fixture& fixture() {
  static Fixture f;  // one deployment computation for the whole binary
  return f;
}

// --- CacheKey ---------------------------------------------------------------

TEST(CacheKey, EqualConfigurationsProduceEqualKeys) {
  const Fixture& f = fixture();
  CacheKey a = CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                            fast_options());
  CacheKey b = CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                            fast_options());
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_TRUE(a == b);
}

TEST(CacheKey, EveryFieldParticipates) {
  const Fixture& f = fixture();
  CacheKey base = CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                               fast_options());

  PlannerOptions o1 = fast_options();
  o1.objective = MarchObjective::kMinDistance;
  EXPECT_FALSE(base ==
               CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, o1));

  PlannerOptions o2 = fast_options();
  o2.cvt_samples += 1;
  EXPECT_FALSE(base ==
               CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, o2));

  PlannerOptions o3 = fast_options();
  o3.mesher.target_grid_points += 1;
  EXPECT_FALSE(base ==
               CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, o3));

  PlannerOptions o4 = fast_options();
  o4.safe_adjustment = false;
  EXPECT_FALSE(base ==
               CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, o4));

  // r_c and geometry.
  EXPECT_FALSE(base == CacheKey::of(f.sc.m1, f.sc.m2_shape,
                                    f.sc.comm_range + 1.0, fast_options()));
  Scenario other = scenario(2);
  EXPECT_FALSE(base == CacheKey::of(f.sc.m1, other.m2_shape, f.sc.comm_range,
                                    fast_options()));
}

TEST(CacheKey, EqualityComparesBytesNotJustHash) {
  // Two keys with identical hashes but different bytes must not compare
  // equal. We can't force an FNV collision cheaply, so check the contract
  // from the other side: equal bytes <=> equal keys, and the byte strings
  // of distinct configurations differ even when truncated hashes might
  // not. The byte encoding is the ground truth equality uses.
  const Fixture& f = fixture();
  PlannerOptions alt = fast_options();
  alt.max_adjust_steps += 1;
  CacheKey a = CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                            fast_options());
  CacheKey b = CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, alt);
  EXPECT_NE(a.bytes(), b.bytes());
  EXPECT_FALSE(a == b);
  CacheKey a2 = CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                             fast_options());
  EXPECT_EQ(a.bytes(), a2.bytes());
  EXPECT_TRUE(a == a2);
}

TEST(CacheKey, ClosuresRequireTag) {
  const Fixture& f = fixture();
  PlannerOptions with_density = fast_options();
  with_density.density = uniform_density();
  EXPECT_THROW(CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                            with_density),
               ContractViolation);
  CacheKey tagged_a = CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                                   with_density, "uniform");
  CacheKey tagged_b = CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                                   with_density, "hotspot@3,4");
  EXPECT_FALSE(tagged_a == tagged_b);
}

// --- PlannerCache -----------------------------------------------------------

TEST(PlannerCache, SingleFlightUnderConcurrentMisses) {
  const Fixture& f = fixture();
  PlannerCache cache(8);
  CacheKey key = CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                              fast_options());
  std::atomic<int> builds{0};
  auto build = [&] {
    builds.fetch_add(1);
    // Widen the race window: every other thread should arrive while the
    // first is still constructing.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return std::make_unique<MarchPlanner>(f.sc.m1, f.sc.m2_shape,
                                          f.sc.comm_range, fast_options());
  };

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const MarchPlanner>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { got[static_cast<std::size_t>(i)] = cache.get_or_build(key, build); });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], got[0]);
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.constructions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(PlannerCache, DistinctOptionsBuildDistinctPlanners) {
  const Fixture& f = fixture();
  PlannerCache cache(8);
  PlannerOptions alt = fast_options();
  alt.objective = MarchObjective::kMinDistance;
  auto p1 = cache.get_or_build(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                               fast_options());
  auto p2 = cache.get_or_build(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, alt);
  auto p1_again = cache.get_or_build(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                                     fast_options());
  EXPECT_NE(p1, p2);
  EXPECT_EQ(p1, p1_again);
  auto stats = cache.stats();
  EXPECT_EQ(stats.constructions, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(PlannerCache, ConstructionFailurePropagatesAndAllowsRetry) {
  PlannerCache cache(4);
  const Fixture& f = fixture();
  CacheKey key = CacheKey::of(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                              fast_options());
  EXPECT_THROW(
      cache.get_or_build(
          key, []() -> std::unique_ptr<MarchPlanner> {
            throw std::runtime_error("boom");
          }),
      std::runtime_error);
  // The placeholder was evicted; a later build succeeds.
  bool constructed = false;
  auto p = cache.get_or_build(
      key,
      [&] {
        return std::make_unique<MarchPlanner>(f.sc.m1, f.sc.m2_shape,
                                              f.sc.comm_range, fast_options());
      },
      &constructed);
  EXPECT_TRUE(constructed);
  EXPECT_NE(p, nullptr);
}

TEST(PlannerCache, EvictsLeastRecentlyUsedWhenFull) {
  const Fixture& f = fixture();
  PlannerCache cache(2);
  PlannerOptions a = fast_options();
  PlannerOptions b = fast_options();
  b.cvt_samples += 1;
  PlannerOptions c = fast_options();
  c.cvt_samples += 2;
  cache.get_or_build(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, a);
  cache.get_or_build(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, b);
  // Touch a so b is the LRU, then insert c.
  cache.get_or_build(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, a);
  cache.get_or_build(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, c);
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // a must still be resident (hit, no new construction).
  bool constructed = true;
  cache.get_or_build(f.sc.m1, f.sc.m2_shape, f.sc.comm_range, a, {},
                     &constructed);
  EXPECT_FALSE(constructed);
}

// --- MissionService ---------------------------------------------------------

TEST(MissionService, BatchCompletesAndCountsCacheHits) {
  const Fixture& f = fixture();
  obs::Registry registry;
  ServiceOptions so;
  so.threads = 4;
  so.registry = &registry;
  MissionService service(so);
  std::vector<PlanJob> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back(f.job("j" + std::to_string(i)));
  std::vector<JobResult> results = service.run_batch(std::move(jobs));
  ASSERT_EQ(results.size(), 6u);
  int hits = 0;
  for (const JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status, JobStatus::kOk);
    EXPECT_FALSE(r.plan.trajectories.empty());
    EXPECT_FALSE(r.degradation.degraded);
    if (r.cache_hit) ++hits;
  }
  EXPECT_EQ(hits, 5);  // one construction, five shared
  auto stats = service.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.errored, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.cache.constructions, 1u);
  EXPECT_EQ(stats.plan_exec.count, 6u);
  EXPECT_GT(stats.plan_exec.mean, 0.0);
  // Stage stats are read from the exported histogram: same count, and a
  // p95 within one bucket factor above the exact p95 of the jobs.
  EXPECT_EQ(stats.plan_exec.count,
            registry.histogram("anr_job_plan_seconds")->count());
  std::vector<double> plan_seconds;
  for (const JobResult& r : results) plan_seconds.push_back(r.plan_seconds);
  std::sort(plan_seconds.begin(), plan_seconds.end());
  const double exact = plan_seconds[5];  // rank ceil(0.95 * 6) = 6
  EXPECT_GE(stats.plan_exec.p95, exact);
  EXPECT_LT(stats.plan_exec.p95, 2.0 * exact);  // default bucket factor
}

TEST(MissionService, InvalidJobsAreRejectedTypedAtSubmit) {
  const Fixture& f = fixture();
  ServiceOptions so;
  so.threads = 1;
  MissionService service(so);

  PlanJob empty = f.job("empty");
  empty.positions.clear();
  JobResult r_empty = service.submit(std::move(empty)).get();
  EXPECT_FALSE(r_empty.ok);
  EXPECT_EQ(r_empty.status, JobStatus::kRejectedInvalid);
  EXPECT_NE(r_empty.error.find("no robots"), std::string::npos);

  PlanJob nan = f.job("nan");
  nan.positions[3].x = std::numeric_limits<double>::quiet_NaN();
  JobResult r_nan = service.submit(std::move(nan)).get();
  EXPECT_EQ(r_nan.status, JobStatus::kRejectedInvalid);
  EXPECT_NE(r_nan.error.find("robot 3"), std::string::npos);

  PlanJob inf = f.job("inf");
  inf.m2_offset.y = std::numeric_limits<double>::infinity();
  EXPECT_EQ(service.submit(std::move(inf)).get().status,
            JobStatus::kRejectedInvalid);

  PlanJob bad_rc = f.job("bad_rc");
  bad_rc.r_c = 0.0;
  EXPECT_EQ(service.submit(std::move(bad_rc)).get().status,
            JobStatus::kRejectedInvalid);

  PlanJob bad_deadline = f.job("bad_deadline");
  bad_deadline.deadline_seconds = -1.0;
  EXPECT_EQ(service.submit(std::move(bad_deadline)).get().status,
            JobStatus::kRejectedInvalid);

  for (double t : {-1.0, 0.0, std::numeric_limits<double>::infinity()}) {
    PlanJob bad_t = f.job("bad_transition_time");
    bad_t.options.transition_time = t;
    JobResult r_t = service.submit(std::move(bad_t)).get();
    EXPECT_EQ(r_t.status, JobStatus::kRejectedInvalid) << t;
    EXPECT_NE(r_t.error.find("transition time"), std::string::npos) << t;
  }

  // The service is not poisoned: a good job still completes.
  JobResult rg = service.submit(f.job("good")).get();
  EXPECT_TRUE(rg.ok) << rg.error;
  auto stats = service.stats();
  EXPECT_EQ(stats.rejected_invalid, 8u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.errored, 0u);
}

TEST(MissionService, UnplannableJobDegradesToBaselineWithoutPoisoning) {
  const Fixture& f = fixture();
  ServiceOptions so;
  so.threads = 2;
  MissionService service(so);
  // Two robots: the paper pipeline needs >= 4, so the fallback chain must
  // end at the Hungarian baseline instead of failing the job.
  PlanJob tiny = f.job("tiny");
  tiny.positions.resize(2);
  JobResult rt = service.submit(std::move(tiny)).get();
  EXPECT_TRUE(rt.ok) << rt.error;
  EXPECT_EQ(rt.status, JobStatus::kDegraded);
  EXPECT_TRUE(rt.degradation.degraded);
  EXPECT_EQ(rt.degradation.mode, PlanMode::kBaselineFallback);
  ASSERT_EQ(rt.degradation.attempts.size(), 3u);
  EXPECT_FALSE(rt.degradation.attempts[0].succeeded);
  EXPECT_FALSE(rt.degradation.attempts[1].succeeded);
  EXPECT_TRUE(rt.degradation.attempts[2].succeeded);
  EXPECT_EQ(rt.plan.trajectories.size(), 2u);

  std::future<JobResult> fg = service.submit(f.job("good"));
  JobResult rg = fg.get();
  EXPECT_TRUE(rg.ok) << rg.error;
  EXPECT_EQ(rg.status, JobStatus::kOk);
  auto stats = service.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.errored, 0u);
}

TEST(MissionService, EveryFallbackFailingResolvesErrorInOnePass) {
  const Fixture& f = fixture();
  ServiceOptions so;
  so.threads = 1;
  MissionService service(so);
  // Two robots fail the primary and relaxed pipelines (they need >= 4).
  // A robot at finite but extreme coordinates, which validation accepts,
  // then fails the Hungarian baseline: its distance to every goal
  // overflows, and the assignment refuses non-finite costs.
  PlanJob doomed = f.job("doomed");
  doomed.positions.resize(2);
  doomed.positions[1] = {1.7e308, 1.7e308};
  JobResult r = service.submit(std::move(doomed)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, JobStatus::kError);
  EXPECT_NE(r.error.find("all planning modes failed"), std::string::npos)
      << r.error;
  ASSERT_EQ(r.degradation.attempts.size(), 3u);
  const PlanMode chain[] = {PlanMode::kPrimary, PlanMode::kRelaxedExtraction,
                            PlanMode::kBaselineFallback};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.degradation.attempts[i].mode, chain[i]);
    EXPECT_FALSE(r.degradation.attempts[i].succeeded);
  }
  EXPECT_NE(r.degradation.attempts[2].error.find("non-finite assignment cost"),
            std::string::npos)
      << r.degradation.attempts[2].error;
  auto stats = service.stats();
  EXPECT_EQ(stats.errored, 1u);
  EXPECT_EQ(stats.plan_exec.count, 1u);  // one pass through the chain
}

TEST(MissionService, DeadlineExpiresWhileTheJobAheadIsStillPlanning) {
  const Fixture& f = fixture();
  ServiceOptions so;
  so.threads = 1;
  MissionService service(so);
  // The single worker is stuck building the planner for "busy" until the
  // gate opens, so only the watchdog can resolve the queued job.
  std::promise<void> gate;
  std::future<JobResult> busy = service.submit(
      testutil::gated_job(f.job("busy"), gate.get_future().share()));
  PlanJob doomed = f.job("doomed");
  doomed.deadline_seconds = 0.005;
  std::future<JobResult> reaped = service.submit(std::move(doomed));
  const bool in_time = reaped.wait_for(std::chrono::seconds(30)) ==
                       std::future_status::ready;
  gate.set_value();
  ASSERT_TRUE(in_time) << "the deadline waited for the worker";
  JobResult rr = reaped.get();
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.status, JobStatus::kDeadlineExpired);
  EXPECT_NE(rr.error.find("deadline"), std::string::npos);
  EXPECT_GE(rr.queue_seconds, 0.005);
  EXPECT_TRUE(busy.get().ok);
  EXPECT_EQ(service.stats().deadline_expired, 1u);
}

TEST(MissionService, RejectPolicyShedsLoadWhenQueueFull) {
  const Fixture& f = fixture();
  ServiceOptions so;
  so.threads = 1;
  so.queue_capacity = 1;
  so.overflow = OverflowPolicy::kReject;
  MissionService service(so);

  // Saturate: worker busy with j0 (plans take >> submission time), j1
  // fills the single queue slot, j2.. must be shed.
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.submit(f.job("j" + std::to_string(i))));
  }
  int ok = 0, rejected = 0;
  for (auto& fut : futures) {
    JobResult r = fut.get();
    if (r.ok) {
      ++ok;
    } else {
      EXPECT_EQ(r.status, JobStatus::kRejectedQueueFull);
      EXPECT_NE(r.error.find("queue full"), std::string::npos) << r.error;
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1);
  EXPECT_GE(ok, 1);
  auto stats = service.stats();
  EXPECT_EQ(stats.rejected_queue_full, static_cast<std::uint64_t>(rejected));
  EXPECT_LE(stats.queue_high_water, so.queue_capacity);
}

TEST(MissionService, BlockPolicyCompletesEverythingWithinCapacity) {
  const Fixture& f = fixture();
  ServiceOptions so;
  so.threads = 2;
  so.queue_capacity = 1;
  so.overflow = OverflowPolicy::kBlock;
  MissionService service(so);
  std::vector<PlanJob> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(f.job("j" + std::to_string(i)));
  std::vector<JobResult> results = service.run_batch(std::move(jobs));
  for (const JobResult& r : results) EXPECT_TRUE(r.ok) << r.error;
  auto stats = service.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  // No registry attached: the stage stats come from the service's own.
  EXPECT_EQ(stats.queue_wait.count, 5u);
  EXPECT_EQ(stats.plan_exec.count, 5u);
  EXPECT_LE(stats.queue_high_water, so.queue_capacity);
}

TEST(MissionService, GracefulShutdownDrainsAcceptedJobs) {
  const Fixture& f = fixture();
  ServiceOptions so;
  so.threads = 2;
  MissionService service(so);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(service.submit(f.job("j" + std::to_string(i))));
  }
  service.shutdown();  // must drain all five, not abandon them
  for (auto& fut : futures) {
    JobResult r = fut.get();
    EXPECT_TRUE(r.ok) << r.error;
  }
  EXPECT_EQ(service.stats().completed, 5u);

  // Intake is closed now.
  JobResult late = service.submit(f.job("late")).get();
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.status, JobStatus::kRejectedShutdown);
  EXPECT_NE(late.error.find("shut down"), std::string::npos);
  EXPECT_EQ(service.stats().rejected_shutdown, 1u);
}

// --- plan() thread-safety + determinism ------------------------------------

TEST(PlannerConcurrency, EightThreadsProduceIdenticalPlans) {
  const Fixture& f = fixture();
  MarchPlanner planner(f.sc.m1, f.sc.m2_shape, f.sc.comm_range,
                       fast_options());
  std::string reference =
      plan_to_json(planner.plan(f.deploy, f.offset)).dump();

  constexpr int kThreads = 8;
  std::vector<std::string> produced(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      produced[static_cast<std::size_t>(i)] =
          plan_to_json(planner.plan(f.deploy, f.offset)).dump();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(produced[static_cast<std::size_t>(i)], reference)
        << "thread " << i << " diverged";
  }
}

TEST(PlannerConcurrency, BatchOutputIsByteIdenticalAcrossThreadCounts) {
  const Fixture& f = fixture();
  auto run = [&](int threads) {
    ServiceOptions so;
    so.threads = threads;
    MissionService service(so);
    std::vector<PlanJob> jobs;
    for (int i = 0; i < 8; ++i) jobs.push_back(f.job("j"));
    std::vector<std::string> dumps;
    for (JobResult& r : service.run_batch(std::move(jobs))) {
      EXPECT_TRUE(r.ok) << r.error;
      dumps.push_back(plan_to_json(r.plan).dump());
    }
    return dumps;
  };
  std::vector<std::string> serial = run(1);
  std::vector<std::string> parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 1; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], serial[0]);
  }
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[0]) << "job " << i;
  }
}

TEST(TriangleMeshConcurrency, ConcurrentAdjacencyQueriesAreSafe) {
  // The lazy adjacency cache is the one piece of shared mutable state on
  // the const query path; hammer it from many threads starting cold.
  const Fixture& f = fixture();
  TriangleMesh mesh = delaunay(f.deploy);
  constexpr int kThreads = 8;
  std::vector<std::size_t> edge_counts(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::size_t acc = mesh.edges().size();
      for (VertexId v = 0; v < static_cast<VertexId>(mesh.num_vertices());
           ++v) {
        acc += mesh.neighbors(v).size();
      }
      edge_counts[static_cast<std::size_t>(i)] = acc;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(edge_counts[static_cast<std::size_t>(i)], edge_counts[0]);
  }
}

}  // namespace
}  // namespace anr
