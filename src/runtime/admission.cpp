#include "runtime/admission.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace anr::runtime {

namespace {

obs::Labels with_label(obs::Labels base, const char* key, const char* value) {
  base.emplace_back(key, value);
  return base;
}

}  // namespace

const char* admit_decision_name(AdmitDecision d) {
  switch (d) {
    case AdmitDecision::kAccept:
      return "accept";
    case AdmitDecision::kShed:
      return "shed";
    case AdmitDecision::kReject:
      return "reject";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : opt_(options) {
  ANR_CHECK_MSG(opt_.slo_seconds > 0.0, "SLO must be positive");
  ANR_CHECK_MSG(opt_.queue_capacity >= 1, "queue capacity must be positive");
  ANR_CHECK_MSG(opt_.shed_pressure > 0.0 &&
                    opt_.reject_pressure >= opt_.shed_pressure,
                "need 0 < shed_pressure <= reject_pressure");
  ANR_CHECK_MSG(opt_.idle_decay >= 0.0 && opt_.idle_decay < 1.0,
                "idle_decay must be in [0, 1)");
  if (opt_.registry != nullptr && opt_.registry->enabled()) {
    obs::Registry& reg = *opt_.registry;
    const obs::Labels& base = opt_.metric_labels;
    for (int d = 0; d <= static_cast<int>(AdmitDecision::kReject); ++d) {
      ins_.by_decision[d] = reg.counter(
          "anr_admit_total",
          with_label(base, "decision",
                     admit_decision_name(static_cast<AdmitDecision>(d))),
          "admission decisions, by outcome");
    }
    ins_.pressure = reg.gauge("anr_admit_pressure", base,
                              "max(queue occupancy, p99/SLO) at last admit");
    ins_.p99 = reg.gauge("anr_admit_p99_seconds", base,
                         "held window p99 of full-service e2e latency");
    ins_.occupancy = reg.gauge("anr_admit_occupancy", base,
                               "queue_depth / queue_capacity at last admit");
  }
}

void AdmissionController::watch(const obs::Histogram* latency) {
  if (latency == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  Watched w;
  w.hist = latency;
  w.prev_buckets = latency->bucket_counts();
  watched_.push_back(std::move(w));
}

void AdmissionController::set_queue_probe(std::function<std::size_t()> probe) {
  probe_ = std::move(probe);
}

void AdmissionController::refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  // Merge this window's bucket deltas across every watched histogram into
  // (upper bound, count) pairs. Overflow (+Inf) observations are folded
  // in at one factor beyond the last finite bound — conservative, finite.
  std::vector<std::pair<double, std::uint64_t>> deltas;
  std::uint64_t total = 0;
  for (Watched& w : watched_) {
    std::vector<std::uint64_t> cur = w.hist->bucket_counts();
    if (w.prev_buckets.size() != cur.size()) w.prev_buckets.assign(cur.size(), 0);
    for (std::size_t i = 0; i < cur.size(); ++i) {
      const std::uint64_t d = cur[i] - w.prev_buckets[i];
      if (d == 0) continue;
      deltas.emplace_back(w.hist->bucket_bound(i), d);
      total += d;
    }
    w.prev_buckets = std::move(cur);
  }
  if (total < opt_.min_window_count) {
    p99_ *= opt_.idle_decay;
    return;
  }
  p99_ = obs::bucket_quantile(std::move(deltas), 0.99);
}

AdmitResult AdmissionController::admit() {
  AdmitResult r;
  const std::size_t depth = probe_ ? probe_() : 0;
  r.occupancy =
      static_cast<double>(depth) / static_cast<double>(opt_.queue_capacity);
  {
    std::lock_guard<std::mutex> lock(mu_);
    r.p99_seconds = p99_;
  }
  r.pressure = std::max(r.occupancy, r.p99_seconds / opt_.slo_seconds);
  if (r.pressure < opt_.shed_pressure) {
    r.decision = AdmitDecision::kAccept;
  } else if (r.pressure < opt_.reject_pressure) {
    r.decision = AdmitDecision::kShed;
  } else {
    r.decision = AdmitDecision::kReject;
  }
  obs::inc(ins_.by_decision[static_cast<int>(r.decision)]);
  obs::set(ins_.pressure, r.pressure);
  obs::set(ins_.p99, r.p99_seconds);
  obs::set(ins_.occupancy, r.occupancy);
  return r;
}

double AdmissionController::window_p99() const {
  std::lock_guard<std::mutex> lock(mu_);
  return p99_;
}

json::Value gateway_stats_to_json(const GatewayStats& s) {
  json::Object o;
  o.emplace("submitted", s.submitted);
  o.emplace("accepted", s.accepted);
  o.emplace("shed", s.shed);
  o.emplace("rejected", s.rejected);
  return json::Value(std::move(o));
}

ServingGateway::ServingGateway(GatewayBackend backend,
                               AdmissionController* controller,
                               int refresh_every)
    : backend_(std::move(backend)),
      ctrl_(controller),
      refresh_every_(static_cast<std::uint64_t>(std::max(1, refresh_every))) {
  ANR_CHECK_MSG(ctrl_ != nullptr, "gateway needs a controller");
  ANR_CHECK_MSG(static_cast<bool>(backend_.submit),
                "gateway backend needs a submit function");
  if (backend_.queue_depth) ctrl_->set_queue_probe(backend_.queue_depth);
  for (const obs::Histogram* h : backend_.latency) ctrl_->watch(h);
}

std::future<JobResult> ServingGateway::submit(PlanJob job,
                                              AdmitResult* decision) {
  const std::uint64_t n = submitted_.fetch_add(1, std::memory_order_relaxed);
  if (n % refresh_every_ == 0) ctrl_->refresh();
  const AdmitResult verdict = ctrl_->admit();
  if (decision != nullptr) *decision = verdict;
  switch (verdict.decision) {
    case AdmitDecision::kAccept:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      return backend_.submit(std::move(job));
    case AdmitDecision::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      job.level = ServiceLevel::kDegradedOnly;
      return backend_.submit(std::move(job));
    case AdmitDecision::kReject:
      break;
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  JobResult r;
  r.id = job.id;
  r.ok = false;
  r.status = JobStatus::kRejectedOverload;
  r.error = "admission reject: pressure " + std::to_string(verdict.pressure) +
            " >= " + std::to_string(ctrl_->options().reject_pressure);
  std::promise<JobResult> promise;
  std::future<JobResult> future = promise.get_future();
  promise.set_value(std::move(r));
  return future;
}

GatewayStats ServingGateway::stats() const {
  GatewayStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace anr::runtime
