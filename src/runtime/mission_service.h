// MissionService: a concurrent planning runtime for march jobs.
//
// The library's callers so far construct a MarchPlanner and call plan()
// inline. A deployment serving many swarms and many target geometries
// wants planning as a *service*: jobs go into a bounded queue, a fixed
// pool of workers executes them, planners are shared through a
// PlannerCache so each distinct (M1, M2, r_c, options) pays the expensive
// M2 precomputation once, and callers get std::futures.
//
// Backpressure: the queue is bounded. When full, submit() either blocks
// until a slot frees (OverflowPolicy::kBlock, the default) or resolves
// the returned future immediately with a rejection (kReject) — pick
// reject for latency-sensitive front ends that would rather shed load.
//
// Every full-service job plans once through MarchPlanner::plan_robust():
// primary pipeline, relaxed extraction, Hungarian baseline. The chain is a
// pure function of the job and its cached planner, so a job whose three
// attempts all fail resolves kError at once; repeating the chain could
// only fail the same way.
//
// Deadlines: a job with deadline_seconds > 0 that is still queued when
// its deadline passes resolves kDeadlineExpired without planning. A
// watchdog thread sleeps until the earliest queued deadline (with none
// queued, until a job with one arrives); a worker that picks up an
// already expired job resolves it the same way.
//
// Shutdown is graceful: shutdown() stops intake, lets the workers drain
// every job already accepted, and joins. The destructor does the same.
//
// Thread-safety contract (audited in tests/test_runtime.cpp): a cached
// MarchPlanner is shared across workers, so MarchPlanner::plan() const
// must be — and is — free of shared mutable state. Closures passed in
// PlannerOptions (density, custom disk weights) must themselves be pure
// and thread-safe, and must be named by PlanJob::closure_tag so the
// cache can tell configurations apart.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/json.h"
#include "march/planner.h"
#include "obs/metrics.h"
#include "runtime/planner_cache.h"

namespace anr {
class HungarianMarchPlanner;
}

namespace anr::runtime {

/// What submit() does when the job queue is full.
enum class OverflowPolicy {
  kBlock,   ///< block the submitter until a slot frees
  kReject,  ///< resolve the future immediately with ok=false
};

struct ServiceOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int threads = 0;
  /// Intra-plan threads: how many arena workers each plan() may fan out
  /// to (rotation candidates, harmonic color classes, interpolation and
  /// centroid batches — see common/task_arena.h). The default 1 spends
  /// all parallelism at the job level; raise it to trade job throughput
  /// for single-plan latency. Applied process-wide at construction
  /// (set_arena_threads); 0 leaves the process setting untouched. Plan
  /// bytes are identical at every value — this is a latency knob, never
  /// a result knob — so it is not part of the planner-cache fingerprint.
  int intra_threads = 1;
  std::size_t queue_capacity = 256;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Planner cache capacity (distinct configurations held).
  std::size_t cache_capacity = 64;
  /// Metrics sink. When set, the service exports job counters by final
  /// status (anr_jobs_total{status=...}), a queue-depth gauge, submit-to-
  /// resolution, queue-wait, planner-build and plan latency histograms,
  /// the planner-cache counters, and every planner the cache builds is
  /// attached to the same registry (per-stage spans, probe counters).
  /// Must outlive the service. nullptr (or an obs::NullRegistry)
  /// disables exporting: the service then records into a registry of its
  /// own, which only feeds stats().
  obs::Registry* registry = nullptr;
  /// Labels attached to every metric series this service (and its cache)
  /// registers. A sharded router gives each member service a distinct
  /// {{"shard", "<i>"}} label so per-shard series stay separable in the
  /// shared registry rather than all shards incrementing one aggregate.
  obs::Labels metric_labels;
};

/// Typed outcome of one job.
enum class JobStatus {
  kOk,                ///< planned by the primary pipeline
  kDegraded,          ///< planned, but by a fallback mode
  kRejectedQueueFull, ///< shed by kReject backpressure
  kRejectedInvalid,   ///< failed input validation at submit()
  kRejectedShutdown,  ///< submitted after shutdown()
  kRejectedOverload,  ///< refused by SLO-driven admission control
  kDeadlineExpired,   ///< spent longer than its deadline in the queue
  kError,             ///< every plan_robust() attempt failed
};

/// Stable lowercase name ("ok", "rejected_invalid", ...).
const char* job_status_name(JobStatus status);

/// What quality of service a job is entitled to. The admission layer
/// (runtime/admission.h) downgrades to kDegradedOnly under SLO pressure.
enum class ServiceLevel {
  kFull,          ///< the paper pipeline (plan / plan_robust chain)
  kDegradedOnly,  ///< shed: skip straight to the cheap baseline fallback
};

/// One planning job: the full planner configuration plus the swarm state.
struct PlanJob {
  std::string id;                ///< echoed in the result; free-form
  FieldOfInterest m1;
  FieldOfInterest m2_shape;
  double r_c = 80.0;
  Vec2 m2_offset{};
  std::vector<Vec2> positions;   ///< current deployment (inside M1)
  PlannerOptions options;
  /// Names any closures in `options` for cache keying (see PlannerCache).
  std::string closure_tag;
  /// Queue-wait deadline in seconds; 0 disables. A job still queued this
  /// long after submit() resolves as kDeadlineExpired without planning.
  double deadline_seconds = 0.0;
  /// Shed jobs (kDegradedOnly) bypass the planner cache and the primary
  /// pipeline entirely: they plan through a memoized Hungarian baseline,
  /// resolve as kDegraded with degradation.mode == kBaselineFallback,
  /// and cost a fraction of a full plan — the overload escape valve.
  ServiceLevel level = ServiceLevel::kFull;
};

struct JobResult {
  std::string id;
  bool ok = false;               ///< a plan was produced (kOk or kDegraded)
  JobStatus status = JobStatus::kError;
  std::string error;             ///< set when !ok
  MarchPlan plan;                ///< valid when ok
  /// plan_robust()'s fallback-chain record (every attempt, in order).
  DegradationRecord degradation;
  bool cache_hit = false;        ///< planner came from the cache
  double queue_seconds = 0.0;    ///< time spent waiting in the queue
  /// Time inside the cache lookup: the construction itself for the job
  /// that built, the single-flight wait for jobs that arrived while the
  /// planner was being built, ~0 for warm hits.
  double build_seconds = 0.0;
  double plan_seconds = 0.0;     ///< MarchPlanner::plan() proper
};

/// Latency summary over one pipeline stage, in seconds, read from the
/// stage's histogram: exact count and mean, and the p95 as the upper bound
/// of the bucket holding rank ceil(0.95 * count) (obs::bucket_quantile).
struct StageStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p95 = 0.0;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;          ///< planned by the primary pipeline
  std::uint64_t degraded = 0;           ///< planned by a fallback mode
  std::uint64_t errored = 0;            ///< every planning attempt failed
  std::uint64_t rejected_queue_full = 0;///< shed by kReject backpressure
  std::uint64_t rejected_invalid = 0;   ///< failed submit() validation
  std::uint64_t rejected_shutdown = 0;  ///< submitted after shutdown()
  std::uint64_t deadline_expired = 0;   ///< queued past their deadline
  std::uint64_t handoffs = 0;           ///< jobs accepted via submit_pending
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
  std::size_t active = 0;               ///< jobs currently inside a worker
  int workers = 0;
  PlannerCacheStats cache;
  StageStats queue_wait;     ///< submit -> worker pickup
  StageStats planner_build;  ///< cache-miss planner constructions only
  StageStats plan_exec;      ///< plan() proper
};

/// Serializes a stats snapshot (bench output, service introspection).
/// The cache object carries a derived "hit_rate" = hits / (hits + misses)
/// (0 when the cache was never consulted).
json::Value stats_to_json(const ServiceStats& s);

/// A job still waiting in the queue, extracted together with its promise
/// and original enqueue time so it can be re-queued elsewhere without the
/// submitter noticing (the future they hold resolves wherever the job
/// finally runs, and queue-deadline accounting keeps the original clock).
struct PendingJob {
  PlanJob job;
  std::promise<JobResult> promise;
  std::chrono::steady_clock::time_point enqueued;
};

class MissionService {
 public:
  explicit MissionService(ServiceOptions options = {});
  ~MissionService();  // graceful: drains accepted jobs, then joins

  MissionService(const MissionService&) = delete;
  MissionService& operator=(const MissionService&) = delete;

  /// Enqueues a job. The future always resolves (never broken), and
  /// JobResult::status says how: planned (kOk/kDegraded), typed rejection
  /// (invalid input, queue full under kReject, post-shutdown submit),
  /// deadline expiry, or kError when every plan_robust() attempt failed.
  /// Input validation happens here, synchronously: malformed jobs
  /// (empty swarm, non-finite positions/offset, r_c <= 0, negative
  /// deadline) never reach a worker.
  std::future<JobResult> submit(PlanJob job);

  /// Submits every job, waits for all, returns results in input order.
  std::vector<JobResult> run_batch(std::vector<PlanJob> jobs);

  /// Stops intake, drains every accepted job, joins the workers.
  /// Idempotent.
  void shutdown();

  /// Removes and returns every job still waiting in the queue, promises
  /// included, so a router can hand them to another service (shard drain /
  /// failover). Jobs a worker already picked up are not affected — they
  /// finish here. Wakes blocked submitters (their slots freed).
  std::vector<PendingJob> take_queued();

  /// Re-queues a job taken from a peer service, preserving its promise
  /// and original enqueue time (queue deadlines keep the original clock).
  /// Handed-off jobs were already accepted upstream, so they bypass the
  /// capacity check — backpressure applies at first submission only — and
  /// are never shed; after shutdown() the promise resolves
  /// kRejectedShutdown. Counted in ServiceStats::handoffs.
  void submit_pending(PendingJob&& pending);

  /// Jobs currently being executed by a worker.
  std::size_t active_jobs() const;

  /// Jobs currently waiting in the queue. Cheap (one mutex acquisition);
  /// the admission controller polls this as its occupancy signal.
  std::size_t queue_depth() const;
  std::size_t queue_capacity() const { return opt_.queue_capacity; }

  /// Submit-to-resolution latency of full-service jobs
  /// (anr_job_e2e_full_seconds): the admission controller's SLO signal.
  const obs::Histogram* full_latency() const { return ins_.e2e_full_seconds; }

  /// Blocks until the queue is empty and no worker is executing a job.
  /// Only guaranteed to terminate once new submissions stop arriving.
  void wait_idle() const;

  ServiceStats stats() const;
  int worker_count() const { return static_cast<int>(workers_.size()); }

 private:
  using QueuedJob = PendingJob;

  void worker_loop();
  void watchdog_loop();
  /// Appends a job under the held lock, releases it, then wakes a worker
  /// (and the watchdog, when the job has a deadline).
  void enqueue(QueuedJob&& job, std::unique_lock<std::mutex>& lock);
  /// Resolves a job that waited `waited` seconds, past its deadline.
  void expire(QueuedJob& job, double waited);
  /// Decrements the active-job count and signals idle waiters.
  void finish_active();
  JobResult execute(PlanJob&& job, double queue_seconds);
  JobResult execute_degraded(PlanJob&& job, double queue_seconds);
  /// Memoized Hungarian baseline for shed jobs: one per distinct
  /// (planner configuration, robot count). `hit` reports reuse.
  std::shared_ptr<const HungarianMarchPlanner> baseline_for(const PlanJob& job,
                                                            bool* hit);
  /// nullopt when the job is valid; otherwise the rejection message.
  static std::optional<std::string> validate(const PlanJob& job);

  /// Metric handles, resolved from ServiceOptions::registry when it is
  /// live and from own_registry_ otherwise.
  struct Instruments {
    obs::Gauge* queue_depth = nullptr;
    obs::Counter* submitted = nullptr;
    obs::Counter* by_status[8] = {};  ///< indexed by JobStatus
    obs::Histogram* e2e_seconds = nullptr;
    obs::Histogram* e2e_full_seconds = nullptr;  ///< full-level jobs only
    obs::Histogram* queue_seconds = nullptr;
    obs::Histogram* build_seconds = nullptr;
    obs::Histogram* plan_seconds = nullptr;
  };
  void count_job(JobStatus status) const;

  ServiceOptions opt_;
  /// Backs the instruments when the caller passes no live registry.
  std::unique_ptr<obs::Registry> own_registry_;
  PlannerCache cache_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_push_cv_;  ///< waits for space (kBlock)
  std::condition_variable queue_pop_cv_;   ///< workers wait for jobs
  std::condition_variable watchdog_cv_;    ///< a deadline queued, or shutdown
  mutable std::condition_variable idle_cv_;  ///< queue empty + no active job
  std::deque<QueuedJob> queue_;
  bool accepting_ = true;
  std::size_t queue_high_water_ = 0;
  std::size_t active_ = 0;  ///< jobs inside a worker (guarded by queue_mutex_)

  std::vector<std::thread> workers_;
  std::thread watchdog_;
  std::once_flag shutdown_once_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> errored_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> rejected_invalid_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> handoffs_{0};
  Instruments ins_;

  /// Shed-path planner memo (see PlanJob::level). Separate from the
  /// MarchPlanner cache on purpose: baselines are tiny, and an overloaded
  /// service must never wait behind a single-flight full-planner build.
  mutable std::mutex baseline_mutex_;
  std::unordered_map<std::string,
                     std::shared_ptr<const HungarianMarchPlanner>>
      baselines_;
};

}  // namespace anr::runtime
