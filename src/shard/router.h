// ShardedMissionService: N independent MissionService shards behind a
// consistent-hash router.
//
// Each shard owns a full MissionService — its own worker pool, bounded
// queue, and PlannerCache — and the router assigns every job to a shard
// by jump-consistent-hashing its planner-cache fingerprint against the
// current ShardMap snapshot (src/shard/placement.h). Identical planner
// configurations therefore always land on the shard that already caches
// their planner: cache affinity is a property of placement, not of any
// shared state, which is what lets this same layout extend to real
// multi-node RPC later (every router replica computes the same answer
// from the same map version).
//
// Health + administration:
//   kill(i)   — simulated failure: shard i goes kDown (epoch bump); jobs
//               still waiting in its queue are handed to the next live
//               shard along the deterministic fallback walk, promises
//               intact, so no accepted job is lost. Jobs a worker already
//               picked up finish on i.
//   drain(i)  — graceful retirement: shard i goes kDraining (no new
//               placements), queued jobs are handed off the same way,
//               then drain() blocks until i's in-flight work completes.
//               The shard keeps its warm cache for a later revive().
//   revive(i) — back to kUp (epoch bump); the fallback traffic snaps
//               back to home placement on the next submission.
//
// When no shard is kUp, new submissions resolve immediately as
// kRejectedShutdown ("no live shard") and handed-off jobs park on their
// origin shard's queue until a revive.
//
// Admission: gateway_backend() is the whole wiring of a ServingGateway in
// front of the router. Its pressure probe reads the fullest kUp shard,
// not a fleet-wide sum: affinity can fill one shard while the others sit
// idle, and a job is refused by the queue of the shard it is placed on.
//
// Metrics (when `registry` is set): the router exports its own family
// (anr_router_*: accepted jobs, per-shard first placements, forwards off
// a dead home shard, kill/drain reroutes, shard-state + map-version
// gauges), and every member service registers its full MissionService
// family labeled {shard="<i>"} — per-shard submitted / cache hits /
// queue depth stay separable, and sums across shards reconcile with the
// router totals (asserted in tests/test_shard.cpp and the CI smoke job).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "runtime/admission.h"
#include "runtime/mission_service.h"
#include "shard/placement.h"
#include "shard/shard_map.h"

namespace anr::shard {

/// How the router picks a shard for a new job.
enum class RoutingPolicy {
  /// Jump consistent hash of the planner fingerprint (cache affinity).
  kAffinity,
  /// Seeded pseudo-random shard per submission, health-respecting.
  /// Deliberately cache-hostile: the control baseline that affinity is
  /// measured against (bench_service --sharded). Deterministic for a
  /// fixed seed and submission order.
  kRandom,
};

struct ShardedServiceOptions {
  /// Number of shards (>= 1). Each gets an independent MissionService.
  int shards = 2;
  /// Template for every member service. `threads` is PER SHARD — the
  /// default 0 (hardware concurrency) multiplies by the shard count, so
  /// deployments should set it explicitly. `registry` and
  /// `metric_labels` here are ignored; the router attaches its own
  /// registry with a {shard="<i>"} label per member.
  runtime::ServiceOptions shard;
  RoutingPolicy routing = RoutingPolicy::kAffinity;
  /// Seed for RoutingPolicy::kRandom.
  std::uint64_t random_seed = 1;
  /// Metrics sink for the router and every shard. Must outlive the
  /// service. nullptr disables exporting.
  obs::Registry* registry = nullptr;
};

struct ShardedServiceStats {
  std::uint64_t submitted = 0;         ///< jobs accepted by the router
  std::uint64_t rejected_no_shard = 0; ///< resolved with no live shard
  std::uint64_t forwarded = 0;         ///< first placement off the home shard
  std::uint64_t rerouted = 0;          ///< handed off by kill()/drain()
  std::uint64_t map_version = 0;
  std::vector<ShardState> states;
  std::vector<std::uint64_t> routed;          ///< first placements, per shard
  std::vector<std::uint64_t> forwarded_from;  ///< home shard skipped, per shard
  std::vector<runtime::ServiceStats> shards;

  /// Sum over shards of terminally-resolved jobs (every status). Equals
  /// `submitted - rejected_no_shard` once all futures have resolved.
  std::uint64_t resolved() const;
};

/// Serializes the router + per-shard breakdown, including an aggregate
/// "totals" object (resolved jobs, summed cache counters, derived cache
/// hit rate) whose fields must reconcile with the router counters.
json::Value sharded_stats_to_json(const ShardedServiceStats& s);

class ShardedMissionService {
 public:
  explicit ShardedMissionService(ShardedServiceOptions options = {});
  ~ShardedMissionService();  // graceful: drains every shard, then joins

  ShardedMissionService(const ShardedMissionService&) = delete;
  ShardedMissionService& operator=(const ShardedMissionService&) = delete;

  /// Routes the job by placement and enqueues it on the chosen shard.
  /// The future always resolves. With every shard down the job resolves
  /// immediately as kRejectedShutdown ("no live shard").
  std::future<runtime::JobResult> submit(runtime::PlanJob job);

  /// Submits every job, waits for all, returns results in input order.
  std::vector<runtime::JobResult> run_batch(
      std::vector<runtime::PlanJob> jobs);

  /// What a ServingGateway needs from this service: submit(), every
  /// shard's full-service latency histogram, and a depth probe reporting
  /// the fullest kUp shard's queue depth times the shard count. With the
  /// aggregate queue capacity as the admission denominator, occupancy is
  /// then the fullest shard's own. The service must outlive the backend.
  runtime::GatewayBackend gateway_backend();

  /// Administrative transitions; see the header comment. All are
  /// idempotent per target state and safe against concurrent submit().
  void kill(int shard);
  void drain(int shard);
  void revive(int shard);

  /// Stops intake and drains every shard. Idempotent.
  void shutdown();

  int shard_count() const { return static_cast<int>(services_.size()); }
  const ShardMap& map() const { return map_; }

  /// The shard this job would route to right now under kAffinity —
  /// exposes the pure placement function for tests and tooling.
  PlacementDecision placement_of(const runtime::PlanJob& job) const;

  /// Direct access to one member service (tests, stats tooling).
  runtime::MissionService& shard_service(int shard);

  ShardedServiceStats stats() const;

 private:
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* no_shard = nullptr;
    std::vector<obs::Counter*> routed;     ///< anr_router_routed_total{shard}
    std::vector<obs::Counter*> forwarded;  ///< home skipped, by home shard
    std::vector<obs::Counter*> rerouted;   ///< taken from shard on kill/drain
    std::vector<obs::Gauge*> state;        ///< anr_shard_state{shard}
    obs::Gauge* map_version = nullptr;
  };

  /// Routing decision under the current policy. Caller holds admin lock
  /// (shared suffices).
  PlacementDecision route(std::uint64_t fingerprint);
  /// Steals shard `from`'s queue and re-places every job. Caller holds
  /// the admin lock exclusively. Jobs with no live target park on `from`.
  void handoff_locked(int from);
  void publish_map_locked();

  ShardedServiceOptions opt_;
  ShardMap map_;
  std::vector<std::unique_ptr<runtime::MissionService>> services_;

  /// submit() holds this shared (concurrent submissions are fine — the
  /// member services are thread-safe); kill/drain/revive hold it
  /// exclusively so a state flip plus queue handoff is atomic against
  /// routing decisions.
  mutable std::shared_mutex admin_mutex_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_no_shard_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> random_sequence_{0};  ///< kRandom draw counter
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> routed_;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> forwarded_from_;
  Instruments ins_;
};

}  // namespace anr::shard
