// Sharded mission service: placement purity and pinned cross-process
// determinism, shard-map versioning, fallback-walk routing, cache
// affinity (vs the random-routing baseline), kill/drain job survival,
// per-shard metric reconciliation, router-vs-direct byte identity, and
// admission in front of a skewed router.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "coverage/lloyd.h"
#include "foi/scenario.h"
#include "io/plan_io.h"
#include "runtime/admission.h"
#include "runtime/mission_service.h"
#include "shard/placement.h"
#include "shard/router.h"
#include "shard/shard_map.h"
#include "test_util.h"

namespace anr {
namespace {

using runtime::JobResult;
using runtime::JobStatus;
using runtime::MissionService;
using runtime::PlanJob;
using runtime::ServiceOptions;
using shard::PlacementDecision;
using shard::RoutingPolicy;
using shard::ShardedMissionService;
using shard::ShardedServiceOptions;
using shard::ShardedServiceStats;
using shard::ShardMap;
using shard::ShardMapView;
using shard::ShardState;

// Small-but-real planner settings; `variant` perturbs the fingerprint
// (distinct planner-cache keys) without changing the cost profile.
PlannerOptions fast_options(int variant = 0) {
  PlannerOptions opt;
  opt.mesher.target_grid_points = 300;
  opt.cvt_samples = 3000 + variant;
  opt.max_adjust_steps = 4;
  return opt;
}

struct Fixture {
  Scenario sc = scenario(1);
  std::vector<Vec2> deploy =
      optimal_coverage_positions(sc.m1, 64, /*seed=*/1, uniform_density())
          .positions;
  Vec2 offset = sc.m1.centroid() + Vec2{12.0 * sc.comm_range, 0.0} -
                sc.m2_shape.centroid();

  PlanJob job(const std::string& id, int variant = 0) const {
    PlanJob j;
    j.id = id;
    j.m1 = sc.m1;
    j.m2_shape = sc.m2_shape;
    j.r_c = sc.comm_range;
    j.m2_offset = offset;
    j.positions = deploy;
    j.options = fast_options(variant);
    return j;
  }
};

const Fixture& fixture() {
  static Fixture f;  // one deployment computation for the whole binary
  return f;
}

std::uint64_t resolved_sum(const ShardedServiceStats& s) { return s.resolved(); }

// --- ShardMap ---------------------------------------------------------------

TEST(ShardMapTest, VersionBumpsOnlyOnRealTransitions) {
  ShardMap map(3);
  EXPECT_EQ(map.version(), 0u);
  EXPECT_EQ(map.state(1), ShardState::kUp);
  EXPECT_FALSE(map.set_state(1, ShardState::kUp));  // no-op transition
  EXPECT_EQ(map.version(), 0u);
  EXPECT_TRUE(map.set_state(1, ShardState::kDown));
  EXPECT_EQ(map.version(), 1u);
  EXPECT_TRUE(map.set_state(1, ShardState::kDraining));
  EXPECT_TRUE(map.set_state(1, ShardState::kUp));
  EXPECT_EQ(map.version(), 3u);

  ShardMapView v = map.view();
  EXPECT_EQ(v.version, 3u);
  EXPECT_EQ(v.size(), 3);
  EXPECT_EQ(v.up_count(), 3);
}

// --- placement --------------------------------------------------------------

TEST(Placement, PinnedHomeShardsAcrossProcessRuns) {
  // Hard-coded expected placements: the cross-process determinism
  // contract. A change here reshuffles every deployment's routing.
  EXPECT_EQ(shard::home_shard(0x1111, 2), 0);
  EXPECT_EQ(shard::home_shard(0x1111, 4), 0);
  EXPECT_EQ(shard::home_shard(0x1111, 8), 5);
  EXPECT_EQ(shard::home_shard(0x2222, 4), 2);
  EXPECT_EQ(shard::home_shard(0x2222, 8), 4);
  EXPECT_EQ(shard::home_shard(0xabcdef, 2), 1);
  EXPECT_EQ(shard::home_shard(0xabcdef, 4), 3);
  EXPECT_EQ(shard::home_shard(0xabcdef, 8), 7);
}

TEST(Placement, PureFunctionOfFingerprintAndMapView) {
  ShardMap map(4);
  map.set_state(2, ShardState::kDown);
  ShardMapView view = map.view();
  for (std::uint64_t fp : {0ull, 7ull, 0x1234ull, ~0ull}) {
    PlacementDecision a = shard::place(fp, view);
    PlacementDecision b = shard::place(fp, view);
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.home, b.home);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(a.map_version, view.version);
    EXPECT_TRUE(a.ok());
    EXPECT_NE(a.shard, 2);  // never a down shard
  }
}

TEST(Placement, FallbackWalkIsDeterministicAndSkipsUnroutable) {
  ShardMap map(4);
  // Find a fingerprint homed on shard 1, then take shard 1 down.
  std::uint64_t fp = 0;
  while (shard::home_shard(fp, 4) != 1) ++fp;
  map.set_state(1, ShardState::kDown);
  PlacementDecision d = shard::place(fp, map.view());
  EXPECT_EQ(d.home, 1);
  EXPECT_EQ(d.shard, 2);  // next shard up the walk
  EXPECT_EQ(d.hops, 1);
  EXPECT_TRUE(d.forwarded());

  // DRAINING is equally unroutable; the walk continues past it.
  map.set_state(2, ShardState::kDraining);
  d = shard::place(fp, map.view());
  EXPECT_EQ(d.shard, 3);
  EXPECT_EQ(d.hops, 2);

  map.set_state(3, ShardState::kDown);
  d = shard::place(fp, map.view());
  EXPECT_EQ(d.shard, 0);  // wraps around
  EXPECT_EQ(d.hops, 3);

  map.set_state(0, ShardState::kDown);
  d = shard::place(fp, map.view());
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.shard, shard::kNoShard);
}

TEST(Placement, SameStatesSamePlacementEvenAfterVersionChurn) {
  // kill -> revive returns to the original states; placement must return
  // to the original answer even though the version moved on.
  ShardMap map(4);
  ShardMapView before = map.view();
  map.set_state(1, ShardState::kDown);
  map.set_state(1, ShardState::kUp);
  ShardMapView after = map.view();
  EXPECT_NE(before.version, after.version);
  for (std::uint64_t fp = 0; fp < 64; ++fp) {
    EXPECT_EQ(shard::place(fp, before).shard, shard::place(fp, after).shard);
  }
}

// --- ShardedMissionService --------------------------------------------------

TEST(ShardedService, AffinityRoutesEachKeyToOneShardAndSharesItsPlanner) {
  const Fixture& f = fixture();
  ShardedServiceOptions so;
  so.shards = 4;
  so.shard.threads = 2;
  ShardedMissionService service(so);

  constexpr int kVariants = 4;
  constexpr int kJobs = 16;
  std::vector<PlanJob> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(f.job("j" + std::to_string(i), i % kVariants));
  }
  // Record expected shard per variant from the pure placement function.
  std::vector<int> expected;
  for (int v = 0; v < kVariants; ++v) {
    expected.push_back(service.placement_of(f.job("probe", v)).shard);
  }

  std::vector<JobResult> results = service.run_batch(std::move(jobs));
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kJobs));
  for (const JobResult& r : results) EXPECT_TRUE(r.ok) << r.id << ": " << r.error;

  ShardedServiceStats stats = service.stats();
  // Affinity means each distinct key built its planner exactly once
  // anywhere in the fleet.
  std::uint64_t built = 0, submitted_sum = 0;
  for (const auto& sh : stats.shards) {
    built += sh.cache.constructions;
    submitted_sum += sh.submitted;
  }
  EXPECT_EQ(built, static_cast<std::uint64_t>(kVariants));
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(submitted_sum, stats.submitted - stats.rejected_no_shard);
  EXPECT_EQ(stats.forwarded, 0u);  // all shards up: everyone routes home
  EXPECT_EQ(resolved_sum(stats), static_cast<std::uint64_t>(kJobs));

  // Per-variant traffic landed on the placement-predicted shard.
  for (int v = 0; v < kVariants; ++v) {
    EXPECT_GE(stats.routed[static_cast<std::size_t>(expected[v])], 1u);
  }
  service.shutdown();
}

TEST(ShardedService, AffinityBeatsRandomRoutingOnCacheHitRate) {
  const Fixture& f = fixture();
  constexpr int kVariants = 3;
  constexpr int kJobs = 24;
  auto hit_rate = [&](RoutingPolicy policy) {
    ShardedServiceOptions so;
    so.shards = 4;
    so.shard.threads = 2;
    so.routing = policy;
    ShardedMissionService service(so);
    std::vector<PlanJob> jobs;
    for (int i = 0; i < kJobs; ++i) {
      jobs.push_back(f.job("j" + std::to_string(i), i % kVariants));
    }
    for (const JobResult& r : service.run_batch(std::move(jobs))) {
      EXPECT_TRUE(r.ok) << r.error;
    }
    ShardedServiceStats stats = service.stats();
    std::uint64_t hits = 0, misses = 0;
    for (const auto& sh : stats.shards) {
      hits += sh.cache.hits;
      misses += sh.cache.misses;
    }
    service.shutdown();
    return static_cast<double>(hits) / static_cast<double>(hits + misses);
  };

  double affinity = hit_rate(RoutingPolicy::kAffinity);
  double random = hit_rate(RoutingPolicy::kRandom);
  // Affinity misses exactly once per distinct key; random scatters each
  // key across shards and rebuilds per shard it touches.
  EXPECT_DOUBLE_EQ(affinity,
                   static_cast<double>(kJobs - kVariants) / kJobs);
  EXPECT_GT(affinity, random);
}

TEST(ShardedService, KillMidBatchLosesNoAcceptedJobs) {
  const Fixture& f = fixture();
  ShardedServiceOptions so;
  so.shards = 3;
  so.shard.threads = 1;  // one worker per shard: the rest of a burst queues
  ShardedMissionService service(so);

  const int victim = service.placement_of(f.job("probe", 0)).shard;
  constexpr int kJobs = 9;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    futures.push_back(service.submit(f.job("j" + std::to_string(i), 0)));
  }
  // The victim's single worker holds job 0; most of the rest are queued
  // on it. Kill it mid-batch.
  service.kill(victim);
  EXPECT_EQ(service.map().state(victim), ShardState::kDown);

  int ok = 0;
  for (auto& fut : futures) {
    JobResult r = fut.get();
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    if (r.ok) ++ok;
  }
  EXPECT_EQ(ok, kJobs);  // nothing lost: forwarded or completed
  ShardedServiceStats stats = service.stats();
  EXPECT_EQ(resolved_sum(stats), static_cast<std::uint64_t>(kJobs));
  EXPECT_GE(stats.rerouted, 1u) << "kill should have handed off queued jobs";
  service.shutdown();
}

TEST(ShardedService, DrainCompletesQueuedJobsAndRevivesWarm) {
  const Fixture& f = fixture();
  ShardedServiceOptions so;
  so.shards = 3;
  so.shard.threads = 1;
  ShardedMissionService service(so);

  const int victim = service.placement_of(f.job("probe", 0)).shard;
  // Warm the victim's cache with one completed job before the burst —
  // otherwise drain() may steal the whole queue before its worker ever
  // builds the planner.
  ASSERT_TRUE(service.submit(f.job("warm", 0)).get().ok);
  constexpr int kJobs = 6;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    futures.push_back(service.submit(f.job("j" + std::to_string(i), 0)));
  }
  service.drain(victim);
  // Graceful contract: when drain() returns the shard has nothing queued
  // and nothing in flight.
  runtime::ServiceStats victim_stats = service.shard_service(victim).stats();
  EXPECT_EQ(victim_stats.queue_depth, 0u);
  EXPECT_EQ(victim_stats.active, 0u);
  EXPECT_EQ(service.map().state(victim), ShardState::kDraining);

  for (auto& fut : futures) {
    JobResult r = fut.get();
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
  }

  // Revive: traffic snaps back to the warm home shard (its cache kept
  // the planner, so the returning job is a hit, not a rebuild).
  service.revive(victim);
  std::uint64_t built_before =
      service.shard_service(victim).stats().cache.constructions;
  JobResult back = service.submit(f.job("back", 0)).get();
  EXPECT_TRUE(back.ok) << back.error;
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(service.shard_service(victim).stats().cache.constructions,
            built_before);
  EXPECT_EQ(service.placement_of(f.job("probe", 0)).shard, victim);
  service.shutdown();
}

TEST(ShardedService, SkewedAffinityShedsBeforeAnyQueueFull) {
  const Fixture& f = fixture();
  ShardedServiceOptions so;
  so.shards = 2;
  so.shard.threads = 1;
  so.shard.queue_capacity = 8;
  so.shard.overflow = runtime::OverflowPolicy::kReject;
  ShardedMissionService service(so);

  runtime::AdmissionOptions ao;
  ao.queue_capacity =  // the aggregate, as the serving callers pass it
      so.shard.queue_capacity * static_cast<std::size_t>(so.shards);
  runtime::AdmissionController controller(ao);
  runtime::ServingGateway gateway(service.gateway_backend(), &controller);

  // One planner key: affinity sends the whole burst to its home shard and
  // leaves the other empty. The home worker is still building the planner
  // for the first job while the rest of the burst lands, so the home
  // queue fills; admission must see that before the queue refuses a job.
  const int home = service.placement_of(f.job("probe", 0)).shard;
  constexpr int kJobs = 24;
  std::vector<std::future<JobResult>> futures;
  std::vector<runtime::AdmitResult> verdicts(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    futures.push_back(gateway.submit(f.job("j" + std::to_string(i), 0),
                                     &verdicts[static_cast<std::size_t>(i)]));
  }
  int first_shed = -1, first_full = -1;
  for (int i = 0; i < kJobs; ++i) {
    const JobResult r = futures[static_cast<std::size_t>(i)].get();
    if (first_shed < 0 && verdicts[static_cast<std::size_t>(i)].decision ==
                              runtime::AdmitDecision::kShed) {
      first_shed = i;
    }
    if (first_full < 0 && r.status == JobStatus::kRejectedQueueFull) {
      first_full = i;
    }
  }
  const ShardedServiceStats stats = service.stats();
  EXPECT_EQ(stats.routed[static_cast<std::size_t>(home)],
            static_cast<std::uint64_t>(kJobs));
  ASSERT_GE(first_shed, 0) << "one full shard never raised admission pressure"
                           << " (first queue_full refusal: job " << first_full
                           << ")";
  if (first_full >= 0) {
    EXPECT_LT(first_shed, first_full);
  }
  service.shutdown();
}

TEST(ShardedService, HandedOffJobExpiresOnTheReceivingShard) {
  const Fixture& f = fixture();
  ShardedServiceOptions so;
  so.shards = 2;
  so.shard.threads = 1;
  ShardedMissionService service(so);

  // Both workers are stuck building a gated planner until the gate
  // opens. The deadline job waits in shard 0's queue until kill(0) hands
  // it to shard 1, where it is still queued when its deadline passes.
  std::promise<void> gate;
  const std::shared_future<void> open = gate.get_future().share();
  std::vector<PlanJob> busy[2];
  for (int v = 0; busy[0].empty() || busy[1].empty(); ++v) {
    PlanJob job = testutil::gated_job(f.job("busy", v), open);
    std::vector<PlanJob>& slot = busy[service.placement_of(job).shard];
    if (slot.empty()) slot.push_back(std::move(job));
  }
  int doomed_variant = 0;
  while (service.placement_of(f.job("probe", doomed_variant)).shard != 0) {
    ++doomed_variant;
  }
  std::future<JobResult> busy0 = service.submit(std::move(busy[0][0]));
  std::future<JobResult> busy1 = service.submit(std::move(busy[1][0]));
  for (int s = 0; s < 2; ++s) {  // both busy jobs are inside a worker
    while (service.shard_service(s).active_jobs() == 0) {
      std::this_thread::yield();
    }
  }
  PlanJob doomed = f.job("doomed", doomed_variant);
  doomed.deadline_seconds = 0.05;
  std::future<JobResult> reaped = service.submit(std::move(doomed));
  service.kill(0);

  const bool in_time = reaped.wait_for(std::chrono::seconds(30)) ==
                       std::future_status::ready;
  gate.set_value();
  ASSERT_TRUE(in_time) << "the deadline waited for the worker";
  const JobResult r = reaped.get();
  EXPECT_EQ(r.status, JobStatus::kDeadlineExpired) << r.error;
  EXPECT_TRUE(busy0.get().ok);
  EXPECT_TRUE(busy1.get().ok);
  const ShardedServiceStats stats = service.stats();
  EXPECT_EQ(stats.rerouted, 1u);
  EXPECT_EQ(stats.shards[0].deadline_expired, 0u);
  EXPECT_EQ(stats.shards[1].deadline_expired, 1u);
  EXPECT_EQ(stats.shards[1].handoffs, 1u);
  service.shutdown();
}

TEST(ShardedService, NoLiveShardRejectsTyped) {
  const Fixture& f = fixture();
  ShardedServiceOptions so;
  so.shards = 2;
  so.shard.threads = 1;
  ShardedMissionService service(so);
  service.kill(0);
  service.kill(1);
  JobResult r = service.submit(f.job("nowhere", 0)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, JobStatus::kRejectedShutdown);
  EXPECT_NE(r.error.find("no live shard"), std::string::npos);
  EXPECT_EQ(service.stats().rejected_no_shard, 1u);

  // Revive one shard: service is usable again.
  service.revive(0);
  EXPECT_TRUE(service.submit(f.job("again", 0)).get().ok);
  service.shutdown();
}

TEST(ShardedService, RouterPlansAreByteIdenticalToDirectService) {
  const Fixture& f = fixture();
  // Golden diff: the router must not perturb planning in any way.
  ServiceOptions direct_so;
  direct_so.threads = 1;
  MissionService direct(direct_so);
  JobResult d = direct.submit(f.job("direct", 1)).get();
  ASSERT_TRUE(d.ok) << d.error;
  std::string reference = plan_to_json(d.plan).dump();

  // One shard is march_serve's default front door.
  for (int shards : {3, 1}) {
    ShardedServiceOptions so;
    so.shards = shards;
    so.shard.threads = 2;
    ShardedMissionService service(so);
    JobResult r1 = service.submit(f.job("routed", 1)).get();
    ASSERT_TRUE(r1.ok) << r1.error;
    EXPECT_EQ(plan_to_json(r1.plan).dump(), reference) << shards << " shards";
    if (shards == 1) continue;  // no peer to fall back to

    // Still identical when served through the fallback walk.
    const int home = service.placement_of(f.job("probe", 1)).shard;
    service.kill(home);
    JobResult r2 = service.submit(f.job("forwarded", 1)).get();
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(plan_to_json(r2.plan).dump(), reference);
    EXPECT_GE(service.stats().forwarded, 1u);
    service.shutdown();
  }
}

TEST(ShardedService, PerShardMetricsReconcileWithRouterTotals) {
  const Fixture& f = fixture();
  obs::Registry registry;
  ShardedServiceOptions so;
  so.shards = 3;
  so.shard.threads = 2;
  so.registry = &registry;
  ShardedMissionService service(so);

  constexpr int kJobs = 12;
  std::vector<PlanJob> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(f.job("j" + std::to_string(i), i % 3));
  }
  for (const JobResult& r : service.run_batch(std::move(jobs))) {
    EXPECT_TRUE(r.ok) << r.error;
  }
  service.shutdown();

  // Sum labeled series across shards and compare with the router family.
  std::map<std::string, double> sums;
  bool saw_shard_label = false;
  for (const obs::MetricSnapshot& m : registry.snapshot()) {
    for (const auto& [k, v] : m.labels) {
      if (k == "shard") saw_shard_label = true;
    }
    sums[m.name] += m.value;
  }
  EXPECT_TRUE(saw_shard_label);
  EXPECT_EQ(sums["anr_router_jobs_total"], static_cast<double>(kJobs));
  EXPECT_EQ(sums["anr_router_routed_total"], static_cast<double>(kJobs));
  EXPECT_EQ(sums["anr_jobs_submitted_total"], static_cast<double>(kJobs));
  EXPECT_EQ(sums["anr_jobs_total"], static_cast<double>(kJobs));
  EXPECT_EQ(sums["anr_cache_constructions_total"], 3.0);

  // The JSON snapshot reconciles the same way, with a derived hit rate.
  ShardedServiceStats stats = service.stats();
  json::Value j = shard::sharded_stats_to_json(stats);
  EXPECT_EQ(j.at("totals").at("submitted").as_number(),
            j.at("router").at("submitted").as_number());
  EXPECT_EQ(j.at("totals").at("resolved").as_number(),
            static_cast<double>(kJobs));
  EXPECT_EQ(j.at("shards").as_array().size(), 3u);
  double rate = j.at("totals").at("cache").at("hit_rate").as_number();
  EXPECT_NEAR(rate, static_cast<double>(kJobs - 3) / kJobs, 1e-12);
  // Every shard's own JSON also carries its derived hit rate.
  for (const json::Value& sh : j.at("shards").as_array()) {
    EXPECT_TRUE(sh.at("cache").as_object().count("hit_rate"));
  }
}

TEST(ShardedService, ConcurrentSubmitKillReviveStress) {
  const Fixture& f = fixture();
  ShardedServiceOptions so;
  so.shards = 3;
  so.shard.threads = 1;
  ShardedMissionService service(so);

  constexpr int kSubmitters = 2;
  constexpr int kPerThread = 6;
  std::vector<std::future<JobResult>> futures[kSubmitters];
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        futures[t].push_back(
            service.submit(f.job("t" + std::to_string(t) + "-j" +
                                     std::to_string(i),
                                 0)));
      }
    });
  }
  // Admin chaos alongside the submitters: kill / drain / revive cycles.
  std::thread admin([&] {
    for (int round = 0; round < 3; ++round) {
      int s = round % so.shards;
      service.kill(s);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      service.revive(s);
      int d = (round + 1) % so.shards;
      service.drain(d);
      service.revive(d);
    }
  });
  for (std::thread& t : threads) t.join();
  admin.join();

  std::uint64_t resolved = 0;
  for (auto& per_thread : futures) {
    for (auto& fut : per_thread) {
      JobResult r = fut.get();  // every future must resolve
      EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, static_cast<std::uint64_t>(kSubmitters * kPerThread));
  ShardedServiceStats stats = service.stats();
  EXPECT_EQ(resolved_sum(stats) + stats.rejected_no_shard,
            stats.submitted);
  service.shutdown();
}

}  // namespace
}  // namespace anr
