#include "runtime/mission_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "baselines/hungarian_march.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "common/task_arena.h"

namespace anr::runtime {

namespace {

json::Value stage_to_json(const StageStats& s) {
  json::Object o;
  o.emplace("count", s.count);
  o.emplace("mean_s", s.mean);
  o.emplace("p95_s", s.p95);
  return json::Value(std::move(o));
}

StageStats stage_of(const obs::Histogram& h) {
  StageStats s;
  s.count = h.count();
  if (s.count == 0) return s;
  s.mean = h.sum() / static_cast<double>(s.count);
  s.p95 = h.quantile(0.95);
  return s;
}

obs::Labels with_label(obs::Labels base, const char* key, const char* value) {
  base.emplace_back(key, value);
  return base;
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Seconds a queued job may still wait; <= 0 once its deadline passed,
/// +inf without one.
double time_left(const PendingJob& q,
                 std::chrono::steady_clock::time_point now) {
  if (q.job.deadline_seconds <= 0.0) return HUGE_VAL;
  return q.job.deadline_seconds - seconds_between(q.enqueued, now);
}

/// The watchdog's longest single sleep. Only bounds the clock arithmetic
/// of a huge finite deadline; a sleep that ends early just re-checks.
constexpr double kLongestSleepSeconds = 3600.0;

}  // namespace

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kDegraded:
      return "degraded";
    case JobStatus::kRejectedQueueFull:
      return "rejected_queue_full";
    case JobStatus::kRejectedInvalid:
      return "rejected_invalid";
    case JobStatus::kRejectedShutdown:
      return "rejected_shutdown";
    case JobStatus::kRejectedOverload:
      return "rejected_overload";
    case JobStatus::kDeadlineExpired:
      return "deadline_expired";
    case JobStatus::kError:
      return "error";
  }
  return "unknown";
}

json::Value stats_to_json(const ServiceStats& s) {
  json::Object o;
  o.emplace("submitted", s.submitted);
  o.emplace("completed", s.completed);
  o.emplace("degraded", s.degraded);
  o.emplace("errored", s.errored);
  o.emplace("rejected_queue_full", s.rejected_queue_full);
  o.emplace("rejected_invalid", s.rejected_invalid);
  o.emplace("rejected_shutdown", s.rejected_shutdown);
  o.emplace("deadline_expired", s.deadline_expired);
  o.emplace("handoffs", s.handoffs);
  o.emplace("queue_depth", s.queue_depth);
  o.emplace("queue_high_water", s.queue_high_water);
  o.emplace("active", s.active);
  o.emplace("workers", s.workers);
  json::Object cache;
  cache.emplace("hits", s.cache.hits);
  cache.emplace("misses", s.cache.misses);
  cache.emplace("coalesced", s.cache.coalesced);
  cache.emplace("constructions", s.cache.constructions);
  cache.emplace("evictions", s.cache.evictions);
  cache.emplace("entries", s.cache.entries);
  const std::uint64_t lookups = s.cache.hits + s.cache.misses;
  cache.emplace("hit_rate",
                lookups > 0
                    ? static_cast<double>(s.cache.hits) /
                          static_cast<double>(lookups)
                    : 0.0);
  o.emplace("cache", std::move(cache));
  json::Object stages;
  stages.emplace("queue_wait", stage_to_json(s.queue_wait));
  stages.emplace("planner_build", stage_to_json(s.planner_build));
  stages.emplace("plan_exec", stage_to_json(s.plan_exec));
  o.emplace("stages", std::move(stages));
  return json::Value(std::move(o));
}

MissionService::MissionService(ServiceOptions options)
    : opt_(options),
      cache_(options.cache_capacity) {
  ANR_CHECK(opt_.queue_capacity >= 1);
  const bool live = opt_.registry != nullptr && opt_.registry->enabled();
  if (!live) own_registry_ = std::make_unique<obs::Registry>();
  obs::Registry& reg = live ? *opt_.registry : *own_registry_;
  const obs::Labels& base = opt_.metric_labels;
  ins_.queue_depth =
      reg.gauge("anr_service_queue_depth", base, "jobs waiting in the queue");
  ins_.submitted = reg.counter("anr_jobs_submitted_total", base,
                               "jobs handed to submit()");
  for (int s = 0; s <= static_cast<int>(JobStatus::kError); ++s) {
    ins_.by_status[s] =
        reg.counter("anr_jobs_total",
                    with_label(base, "status",
                               job_status_name(static_cast<JobStatus>(s))),
                    "jobs resolved, by final status");
  }
  ins_.e2e_seconds = reg.histogram("anr_job_e2e_seconds", base,
                                   "submit-to-resolution latency");
  ins_.e2e_full_seconds =
      reg.histogram("anr_job_e2e_full_seconds", base,
                    "submit-to-resolution latency, full-service jobs only "
                    "(the admission controller's SLO signal)");
  ins_.queue_seconds =
      reg.histogram("anr_job_queue_seconds", base, "queue-wait latency");
  ins_.build_seconds = reg.histogram(
      "anr_planner_build_seconds", base, "cache-miss planner constructions");
  ins_.plan_seconds = reg.histogram("anr_job_plan_seconds", base,
                                    "plan_robust() per job");
  if (live) cache_.set_observer(opt_.registry, opt_.metric_labels);
  int threads = opt_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (opt_.intra_threads >= 1) set_arena_threads(opt_.intra_threads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

MissionService::~MissionService() { shutdown(); }

void MissionService::shutdown() {
  std::call_once(shutdown_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      accepting_ = false;
    }
    // Wake everyone: blocked submitters give up, workers drain the queue
    // and exit once it is empty, the watchdog stops sweeping.
    queue_push_cv_.notify_all();
    queue_pop_cv_.notify_all();
    watchdog_cv_.notify_all();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    if (watchdog_.joinable()) watchdog_.join();
  });
}

std::optional<std::string> MissionService::validate(const PlanJob& job) {
  if (job.positions.empty()) return "job has no robots";
  for (std::size_t r = 0; r < job.positions.size(); ++r) {
    if (!std::isfinite(job.positions[r].x) ||
        !std::isfinite(job.positions[r].y)) {
      return "non-finite position for robot " + std::to_string(r);
    }
  }
  if (!std::isfinite(job.r_c) || job.r_c <= 0.0) {
    return "communication range must be positive";
  }
  // A robot farther than r_c outside M1's box is out of range of all of
  // M1: it is no part of the deployment the job describes.
  const BBox m1_box = job.m1.bbox();
  for (std::size_t r = 0; r < job.positions.size(); ++r) {
    const Vec2 p = job.positions[r];
    if (p.x < m1_box.lo.x - job.r_c || p.x > m1_box.hi.x + job.r_c ||
        p.y < m1_box.lo.y - job.r_c || p.y > m1_box.hi.y + job.r_c) {
      return "robot " + std::to_string(r) +
             " lies outside M1's bounding box grown by r_c";
    }
  }
  if (!std::isfinite(job.m2_offset.x) || !std::isfinite(job.m2_offset.y)) {
    return "non-finite m2 offset";
  }
  if (!std::isfinite(job.deadline_seconds) || job.deadline_seconds < 0.0) {
    return "deadline must be non-negative";
  }
  if (!std::isfinite(job.options.transition_time) ||
      job.options.transition_time <= 0.0) {
    return "transition time must be positive";
  }
  return std::nullopt;
}

void MissionService::count_job(JobStatus status) const {
  obs::inc(ins_.by_status[static_cast<int>(status)]);
}

std::future<JobResult> MissionService::submit(PlanJob job) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::inc(ins_.submitted);
  std::promise<JobResult> promise;
  std::future<JobResult> future = promise.get_future();

  auto reject = [&](JobStatus status, const std::string& why,
                    std::atomic<std::uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
    count_job(status);
    JobResult r;
    r.id = job.id;
    r.ok = false;
    r.status = status;
    r.error = why;
    promise.set_value(std::move(r));
    return std::move(future);
  };

  if (auto why = validate(job)) {
    return reject(JobStatus::kRejectedInvalid, *why, rejected_invalid_);
  }

  std::unique_lock<std::mutex> lock(queue_mutex_);
  if (!accepting_) {
    return reject(JobStatus::kRejectedShutdown, "service is shut down",
                  rejected_shutdown_);
  }
  if (queue_.size() >= opt_.queue_capacity) {
    if (opt_.overflow == OverflowPolicy::kReject) {
      return reject(JobStatus::kRejectedQueueFull,
                    "queue full (capacity " +
                        std::to_string(opt_.queue_capacity) + ")",
                    rejected_queue_full_);
    }
    queue_push_cv_.wait(lock, [this] {
      return !accepting_ || queue_.size() < opt_.queue_capacity;
    });
    if (!accepting_) {
      return reject(JobStatus::kRejectedShutdown, "service is shut down",
                    rejected_shutdown_);
    }
  }
  enqueue(QueuedJob{std::move(job), std::move(promise),
                     std::chrono::steady_clock::now()},
          lock);
  return future;
}

void MissionService::enqueue(QueuedJob&& job,
                             std::unique_lock<std::mutex>& lock) {
  const bool timed = job.job.deadline_seconds > 0.0;
  queue_.push_back(std::move(job));
  queue_high_water_ = std::max(queue_high_water_, queue_.size());
  obs::set(ins_.queue_depth, static_cast<double>(queue_.size()));
  lock.unlock();
  queue_pop_cv_.notify_one();
  if (timed) watchdog_cv_.notify_one();
}

void MissionService::expire(QueuedJob& job, double waited) {
  deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  count_job(JobStatus::kDeadlineExpired);
  obs::observe(ins_.e2e_seconds, waited);
  if (job.job.level == ServiceLevel::kFull) {
    obs::observe(ins_.e2e_full_seconds, waited);
  }
  JobResult r;
  r.id = job.job.id;
  r.status = JobStatus::kDeadlineExpired;
  r.error = "deadline expired after " + std::to_string(waited) + "s in queue";
  r.queue_seconds = waited;
  job.promise.set_value(std::move(r));
}

std::vector<JobResult> MissionService::run_batch(std::vector<PlanJob> jobs) {
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (PlanJob& job : jobs) futures.push_back(submit(std::move(job)));
  std::vector<JobResult> results;
  results.reserve(futures.size());
  for (std::future<JobResult>& f : futures) results.push_back(f.get());
  return results;
}

void MissionService::worker_loop() {
  for (;;) {
    QueuedJob item;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_pop_cv_.wait(lock, [this] { return !queue_.empty() || !accepting_; });
      if (queue_.empty()) return;  // draining done and intake closed
      item = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      obs::set(ins_.queue_depth, static_cast<double>(queue_.size()));
    }
    queue_push_cv_.notify_one();
    // A submitter that shares this CPU woke us from inside submit(): let
    // it return before the plan takes the CPU. On an idle core this
    // returns at once.
    std::this_thread::yield();

    const auto picked = std::chrono::steady_clock::now();
    const double waited = seconds_between(item.enqueued, picked);
    // A job can expire between the watchdog's wake-up and this pickup.
    if (time_left(item, picked) <= 0.0) {
      expire(item, waited);
      finish_active();
      continue;
    }
    obs::observe(ins_.queue_seconds, waited);
    const ServiceLevel level = item.job.level;
    JobResult result = execute(std::move(item.job), waited);
    switch (result.status) {
      case JobStatus::kOk:
        completed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case JobStatus::kDegraded:
        degraded_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        errored_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    count_job(result.status);
    const double e2e =
        seconds_between(item.enqueued, std::chrono::steady_clock::now());
    obs::observe(ins_.e2e_seconds, e2e);
    if (level == ServiceLevel::kFull) {
      obs::observe(ins_.e2e_full_seconds, e2e);
    }
    item.promise.set_value(std::move(result));
    finish_active();
  }
}

void MissionService::finish_active() {
  bool idle;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    --active_;
    idle = queue_.empty() && active_ == 0;
  }
  if (idle) idle_cv_.notify_all();
}

std::vector<PendingJob> MissionService::take_queued() {
  std::vector<PendingJob> taken;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    taken.reserve(queue_.size());
    while (!queue_.empty()) {
      taken.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    obs::set(ins_.queue_depth, 0.0);
  }
  queue_push_cv_.notify_all();  // slots freed for blocked submitters
  if (!taken.empty()) idle_cv_.notify_all();
  return taken;
}

void MissionService::submit_pending(PendingJob&& pending) {
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (accepting_) {
      handoffs_.fetch_add(1, std::memory_order_relaxed);
      enqueue(std::move(pending), lock);
      return;
    }
  }
  // Shut down: the promise must still resolve — the original submitter
  // holds the future.
  rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
  count_job(JobStatus::kRejectedShutdown);
  JobResult r;
  r.id = pending.job.id;
  r.ok = false;
  r.status = JobStatus::kRejectedShutdown;
  r.error = "service is shut down";
  pending.promise.set_value(std::move(r));
}

std::size_t MissionService::active_jobs() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return active_;
}

std::size_t MissionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

void MissionService::wait_idle() const {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void MissionService::watchdog_loop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (accepting_) {  // on shutdown the workers drain whatever is left
    const auto now = std::chrono::steady_clock::now();
    std::vector<QueuedJob> expired;
    double next = HUGE_VAL;  // seconds to the earliest remaining deadline
    for (auto it = queue_.begin(); it != queue_.end();) {
      const double left = time_left(*it, now);
      if (left <= 0.0) {
        expired.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        next = std::min(next, left);
        ++it;
      }
    }
    if (!expired.empty()) {
      obs::set(ins_.queue_depth, static_cast<double>(queue_.size()));
      lock.unlock();
      queue_push_cv_.notify_all();  // slots freed
      idle_cv_.notify_all();        // the sweep may have emptied the queue
      for (QueuedJob& q : expired) expire(q, seconds_between(q.enqueued, now));
      lock.lock();
    } else if (next == HUGE_VAL) {
      watchdog_cv_.wait(lock);
    } else {
      watchdog_cv_.wait_for(lock, std::chrono::duration<double>(std::min(
                                      next, kLongestSleepSeconds)));
    }
  }
}

std::shared_ptr<const HungarianMarchPlanner> MissionService::baseline_for(
    const PlanJob& job, bool* hit) {
  // Key on everything that feeds HungarianMarchPlanner construction: the
  // full planner fingerprint (a superset of the fields it reads — cheap
  // over-segmentation, never aliasing) plus the robot count, which sizes
  // the precomputed CVT coverage.
  CacheKey key = CacheKey::of(job.m1, job.m2_shape, job.r_c, job.options,
                              job.closure_tag);
  const std::string memo_key =
      key.bytes() + "#n=" + std::to_string(job.positions.size());
  {
    std::lock_guard<std::mutex> lock(baseline_mutex_);
    auto it = baselines_.find(memo_key);
    if (it != baselines_.end()) {
      if (hit != nullptr) *hit = true;
      return it->second;
    }
  }
  if (hit != nullptr) *hit = false;
  BaselineOptions base;
  base.transition_time = job.options.transition_time;
  auto built = std::make_shared<const HungarianMarchPlanner>(
      job.m1, job.m2_shape, job.r_c,
      static_cast<int>(job.positions.size()), base);
  std::lock_guard<std::mutex> lock(baseline_mutex_);
  // No single-flight here: concurrent misses may build twice, which is
  // acceptable for a baseline and keeps the shed path wait-free against
  // stalls in a peer's construction.
  auto [it, inserted] = baselines_.emplace(memo_key, std::move(built));
  const std::size_t cap = std::max<std::size_t>(1, opt_.cache_capacity);
  if (inserted && baselines_.size() > cap) {
    // Arbitrary eviction (whatever buckets first), never the entry we
    // just inserted. This is an overload escape valve, not a tuned cache.
    auto victim = baselines_.begin();
    if (victim->first == memo_key) ++victim;
    baselines_.erase(victim);
  }
  return it->second;
}

JobResult MissionService::execute_degraded(PlanJob&& job,
                                           double queue_seconds) {
  JobResult result;
  result.id = job.id;
  result.queue_seconds = queue_seconds;
  try {
    Stopwatch build_sw;
    bool hit = false;
    std::shared_ptr<const HungarianMarchPlanner> baseline =
        baseline_for(job, &hit);
    result.build_seconds = build_sw.seconds();
    result.cache_hit = hit;
    if (!hit) obs::observe(ins_.build_seconds, result.build_seconds);
    Stopwatch plan_sw;
    result.plan = baseline->plan(job.positions, job.m2_offset);
    result.plan_seconds = plan_sw.seconds();
    obs::observe(ins_.plan_seconds, result.plan_seconds);
    result.ok = true;
    // A shed job is degraded by definition: the caller asked for (at
    // most) the baseline, so the result always reports the fallback mode.
    result.status = JobStatus::kDegraded;
    result.degradation.degraded = true;
    result.degradation.mode = PlanMode::kBaselineFallback;
    result.degradation.attempts.push_back(
        PlanAttempt{PlanMode::kBaselineFallback, true, ""});
  } catch (const std::exception& e) {
    result.ok = false;
    result.status = JobStatus::kError;
    result.error = e.what();
    result.degradation.attempts.push_back(
        PlanAttempt{PlanMode::kBaselineFallback, false, e.what()});
  }
  return result;
}

JobResult MissionService::execute(PlanJob&& job, double queue_seconds) {
  if (job.level == ServiceLevel::kDegradedOnly) {
    return execute_degraded(std::move(job), queue_seconds);
  }
  JobResult result;
  result.id = job.id;
  result.queue_seconds = queue_seconds;
  try {
    bool constructed = false;
    Stopwatch build_sw;
    CacheKey key =
        CacheKey::of(job.m1, job.m2_shape, job.r_c, job.options,
                     job.closure_tag);
    std::shared_ptr<const MarchPlanner> planner = cache_.get_or_build(
        key,
        [&] {
          auto built = std::make_unique<MarchPlanner>(job.m1, job.m2_shape,
                                                      job.r_c, job.options);
          // Attach before the planner is published to other workers: only
          // the single-flight builder runs this, so the write is safe.
          built->set_observer(opt_.registry);
          return built;
        },
        &constructed);
    result.build_seconds = build_sw.seconds();
    result.cache_hit = !constructed;
    if (constructed) obs::observe(ins_.build_seconds, result.build_seconds);

    Stopwatch plan_sw;
    PlanOutcome outcome = planner->plan_robust(job.positions, job.m2_offset);
    result.plan_seconds = plan_sw.seconds();
    obs::observe(ins_.plan_seconds, result.plan_seconds);
    result.degradation = std::move(outcome.degradation);
    if (outcome.ok()) {
      result.plan = std::move(outcome.plan);
      result.ok = true;
      result.status = result.degradation.degraded ? JobStatus::kDegraded
                                                  : JobStatus::kOk;
    } else {
      result.status = JobStatus::kError;
      result.error = outcome.status.to_string();
    }
  } catch (const std::exception& e) {
    // Planner construction failures land here; planning errors are typed.
    result.ok = false;
    result.status = JobStatus::kError;
    result.error = e.what();
  }
  return result;
}

ServiceStats MissionService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.errored = errored_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.handoffs = handoffs_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.queue_depth = queue_.size();
    s.queue_high_water = queue_high_water_;
    s.active = active_;
  }
  s.workers = worker_count();
  s.cache = cache_.stats();
  s.queue_wait = stage_of(*ins_.queue_seconds);
  s.planner_build = stage_of(*ins_.build_seconds);
  s.plan_exec = stage_of(*ins_.plan_seconds);
  return s;
}

}  // namespace anr::runtime
