#include "shard/router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace anr::shard {

namespace {

/// Planner-cache fingerprint of a job: the routing key. Throws
/// ContractViolation when options carry closures without a closure_tag
/// (same contract as PlannerCache).
std::uint64_t fingerprint_of(const runtime::PlanJob& job) {
  return runtime::CacheKey::of(job.m1, job.m2_shape, job.r_c, job.options,
                               job.closure_tag)
      .hash();
}

}  // namespace

std::uint64_t ShardedServiceStats::resolved() const {
  std::uint64_t n = 0;
  for (const runtime::ServiceStats& s : shards) {
    n += s.completed + s.degraded + s.errored + s.rejected_queue_full +
         s.rejected_invalid + s.rejected_shutdown + s.deadline_expired;
  }
  return n;
}

json::Value sharded_stats_to_json(const ShardedServiceStats& s) {
  json::Object router;
  router.emplace("submitted", s.submitted);
  router.emplace("rejected_no_shard", s.rejected_no_shard);
  router.emplace("forwarded", s.forwarded);
  router.emplace("rerouted", s.rerouted);
  router.emplace("map_version", s.map_version);
  json::Array states;
  for (ShardState st : s.states) states.emplace_back(shard_state_name(st));
  router.emplace("states", std::move(states));
  json::Array routed;
  for (std::uint64_t r : s.routed) routed.emplace_back(r);
  router.emplace("routed", std::move(routed));
  json::Array fwd;
  for (std::uint64_t f : s.forwarded_from) fwd.emplace_back(f);
  router.emplace("forwarded_from", std::move(fwd));

  json::Array shards;
  std::uint64_t sub_sum = 0, hits = 0, misses = 0, built = 0, entries = 0;
  for (const runtime::ServiceStats& sh : s.shards) {
    shards.emplace_back(runtime::stats_to_json(sh));
    sub_sum += sh.submitted;
    hits += sh.cache.hits;
    misses += sh.cache.misses;
    built += sh.cache.constructions;
    entries += sh.cache.entries;
  }

  // Aggregate view whose sums must reconcile with the router counters:
  // submitted == router submitted - rejected_no_shard, and resolved()
  // matches it once every future has resolved.
  json::Object totals;
  totals.emplace("submitted", sub_sum);
  totals.emplace("resolved", s.resolved());
  json::Object cache;
  cache.emplace("hits", hits);
  cache.emplace("misses", misses);
  cache.emplace("constructions", built);
  cache.emplace("entries", entries);
  cache.emplace("hit_rate",
                hits + misses > 0
                    ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0);
  totals.emplace("cache", std::move(cache));

  json::Object o;
  o.emplace("router", std::move(router));
  o.emplace("totals", std::move(totals));
  o.emplace("shards", std::move(shards));
  return json::Value(std::move(o));
}

ShardedMissionService::ShardedMissionService(ShardedServiceOptions options)
    : opt_(options), map_(options.shards) {
  ANR_CHECK_MSG(opt_.shards >= 1, "need at least one shard");
  services_.reserve(static_cast<std::size_t>(opt_.shards));
  routed_.reserve(static_cast<std::size_t>(opt_.shards));
  forwarded_from_.reserve(static_cast<std::size_t>(opt_.shards));

  const bool live =
      opt_.registry != nullptr && opt_.registry->enabled();
  if (live) {
    obs::Registry& reg = *opt_.registry;
    ins_.submitted = reg.counter("anr_router_jobs_total", {},
                                 "jobs accepted by the shard router");
    ins_.no_shard = reg.counter("anr_router_no_shard_total", {},
                                "jobs rejected with no live shard");
    ins_.map_version =
        reg.gauge("anr_shard_map_version", {}, "shard-map epoch");
  }

  for (int i = 0; i < opt_.shards; ++i) {
    const std::string id = std::to_string(i);
    runtime::ServiceOptions so = opt_.shard;
    so.registry = opt_.registry;
    so.metric_labels = {{"shard", id}};
    services_.push_back(std::make_unique<runtime::MissionService>(so));
    routed_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    forwarded_from_.push_back(
        std::make_unique<std::atomic<std::uint64_t>>(0));
    if (live) {
      obs::Registry& reg = *opt_.registry;
      const obs::Labels labels = {{"shard", id}};
      ins_.routed.push_back(reg.counter(
          "anr_router_routed_total", labels, "first placements per shard"));
      ins_.forwarded.push_back(
          reg.counter("anr_router_forwarded_total", labels,
                      "jobs forwarded off this home shard (not routable)"));
      ins_.rerouted.push_back(
          reg.counter("anr_router_rerouted_total", labels,
                      "queued jobs handed off this shard on kill/drain"));
      ins_.state.push_back(
          reg.gauge("anr_shard_state", labels,
                    "shard health (0 up, 1 draining, 2 down)"));
    }
  }
  std::unique_lock<std::shared_mutex> lock(admin_mutex_);
  publish_map_locked();
}

ShardedMissionService::~ShardedMissionService() { shutdown(); }

void ShardedMissionService::publish_map_locked() {
  ShardMapView v = map_.view();
  obs::set(ins_.map_version, static_cast<double>(v.version));
  for (int i = 0; i < v.size(); ++i) {
    if (!ins_.state.empty()) {
      obs::set(ins_.state[static_cast<std::size_t>(i)],
               static_cast<double>(v.states[static_cast<std::size_t>(i)]));
    }
  }
}

PlacementDecision ShardedMissionService::route(std::uint64_t fingerprint) {
  ShardMapView view = map_.view();
  if (opt_.routing == RoutingPolicy::kRandom) {
    // Health-respecting but cache-hostile: a fresh pseudo-random draw
    // per submission (deterministic in seed + arrival order).
    std::uint64_t seq =
        random_sequence_.fetch_add(1, std::memory_order_relaxed);
    return place(splitmix64(opt_.random_seed) + seq, view);
  }
  return place(fingerprint, view);
}

std::future<runtime::JobResult> ShardedMissionService::submit(
    runtime::PlanJob job) {
  // Fingerprint first: a misconfigured closure_tag throws here, before
  // anything is counted (same contract as PlannerCache).
  const std::uint64_t fp = fingerprint_of(job);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::inc(ins_.submitted);

  std::shared_lock<std::shared_mutex> lock(admin_mutex_);
  PlacementDecision d = route(fp);
  if (!d.ok()) {
    rejected_no_shard_.fetch_add(1, std::memory_order_relaxed);
    obs::inc(ins_.no_shard);
    std::promise<runtime::JobResult> promise;
    runtime::JobResult r;
    r.id = job.id;
    r.ok = false;
    r.status = runtime::JobStatus::kRejectedShutdown;
    r.error = "no live shard (all shards down or draining)";
    promise.set_value(std::move(r));
    return promise.get_future();
  }
  routed_[static_cast<std::size_t>(d.shard)]->fetch_add(
      1, std::memory_order_relaxed);
  if (!ins_.routed.empty()) {
    obs::inc(ins_.routed[static_cast<std::size_t>(d.shard)]);
  }
  if (d.forwarded()) {
    forwarded_.fetch_add(1, std::memory_order_relaxed);
    forwarded_from_[static_cast<std::size_t>(d.home)]->fetch_add(
        1, std::memory_order_relaxed);
    if (!ins_.forwarded.empty()) {
      obs::inc(ins_.forwarded[static_cast<std::size_t>(d.home)]);
    }
  }
  return services_[static_cast<std::size_t>(d.shard)]->submit(
      std::move(job));
}

std::vector<runtime::JobResult> ShardedMissionService::run_batch(
    std::vector<runtime::PlanJob> jobs) {
  std::vector<std::future<runtime::JobResult>> futures;
  futures.reserve(jobs.size());
  for (runtime::PlanJob& job : jobs) futures.push_back(submit(std::move(job)));
  std::vector<runtime::JobResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

runtime::GatewayBackend ShardedMissionService::gateway_backend() {
  runtime::GatewayBackend backend;
  backend.submit = [this](runtime::PlanJob job) {
    return submit(std::move(job));
  };
  backend.queue_depth = [this] {
    std::size_t fullest = 0;
    for (int i = 0; i < shard_count(); ++i) {
      if (map_.state(i) != ShardState::kUp) continue;
      fullest = std::max(
          fullest, services_[static_cast<std::size_t>(i)]->queue_depth());
    }
    return fullest * services_.size();
  };
  for (const auto& s : services_) backend.latency.push_back(s->full_latency());
  return backend;
}

void ShardedMissionService::handoff_locked(int from) {
  std::vector<runtime::PendingJob> pending =
      services_[static_cast<std::size_t>(from)]->take_queued();
  if (pending.empty()) return;
  ShardMapView view = map_.view();
  for (runtime::PendingJob& p : pending) {
    // Queued jobs passed the router's fingerprint step already, so this
    // cannot throw for router-submitted work; re-placement always uses
    // affinity so the job lands where its planner will be cached.
    PlacementDecision d = place(fingerprint_of(p.job), view);
    int target = d.ok() ? d.shard : from;  // nowhere to go: park on origin
    if (target != from) {
      rerouted_.fetch_add(1, std::memory_order_relaxed);
      if (!ins_.rerouted.empty()) {
        obs::inc(ins_.rerouted[static_cast<std::size_t>(from)]);
      }
    }
    services_[static_cast<std::size_t>(target)]->submit_pending(
        std::move(p));
  }
}

void ShardedMissionService::kill(int shard) {
  ANR_CHECK(shard >= 0 && shard < shard_count());
  std::unique_lock<std::shared_mutex> lock(admin_mutex_);
  map_.set_state(shard, ShardState::kDown);
  publish_map_locked();
  handoff_locked(shard);
}

void ShardedMissionService::drain(int shard) {
  ANR_CHECK(shard >= 0 && shard < shard_count());
  {
    std::unique_lock<std::shared_mutex> lock(admin_mutex_);
    map_.set_state(shard, ShardState::kDraining);
    publish_map_locked();
    handoff_locked(shard);
  }
  // Graceful: wait out in-flight work with routing unblocked. No new job
  // can target this shard while it is kDraining, so the wait terminates.
  services_[static_cast<std::size_t>(shard)]->wait_idle();
}

void ShardedMissionService::revive(int shard) {
  ANR_CHECK(shard >= 0 && shard < shard_count());
  std::unique_lock<std::shared_mutex> lock(admin_mutex_);
  map_.set_state(shard, ShardState::kUp);
  publish_map_locked();
}

void ShardedMissionService::shutdown() {
  for (auto& s : services_) s->shutdown();
}

PlacementDecision ShardedMissionService::placement_of(
    const runtime::PlanJob& job) const {
  return place(fingerprint_of(job), map_.view());
}

runtime::MissionService& ShardedMissionService::shard_service(int shard) {
  ANR_CHECK(shard >= 0 && shard < shard_count());
  return *services_[static_cast<std::size_t>(shard)];
}

ShardedServiceStats ShardedMissionService::stats() const {
  ShardedServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected_no_shard = rejected_no_shard_.load(std::memory_order_relaxed);
  s.forwarded = forwarded_.load(std::memory_order_relaxed);
  s.rerouted = rerouted_.load(std::memory_order_relaxed);
  ShardMapView v = map_.view();
  s.map_version = v.version;
  s.states = std::move(v.states);
  s.routed.reserve(services_.size());
  s.forwarded_from.reserve(services_.size());
  s.shards.reserve(services_.size());
  for (std::size_t i = 0; i < services_.size(); ++i) {
    s.routed.push_back(routed_[i]->load(std::memory_order_relaxed));
    s.forwarded_from.push_back(
        forwarded_from_[i]->load(std::memory_order_relaxed));
    s.shards.push_back(services_[i]->stats());
  }
  return s;
}

}  // namespace anr::shard
