// Low-overhead observability primitives (metrics side).
//
// The planning/runtime stack is instrumented with three metric kinds —
// Counter, Gauge, and Histogram — owned by a Registry and updated through
// plain pointers. The hot-path contract:
//
//   - updates are lock-free: counters and histogram buckets are relaxed
//     atomics, gauges a CAS loop; no mutex is ever taken on record;
//   - handles are resolved once (at component construction) and cached,
//     so the per-event cost is one null check plus one atomic RMW;
//   - a disabled registry hands out nullptr handles, and the obs::inc /
//     obs::observe / obs::set helpers no-op on nullptr — instrumentation
//     is compiled in but costs a single predictable branch when off.
//
// NullRegistry is the disabled sink: every resolve returns nullptr.
// bench/bench_hotpath compares a full plan against a live Registry vs a
// NullRegistry to keep the "<2% overhead" claim measurable.
//
// Registration (name + labels -> handle) takes a mutex; it is expected at
// setup time, not per event. The same (name, labels) pair always resolves
// to the same handle, so concurrent resolvers share one atomic cell.
// Exposition lives in io/metrics_io (Prometheus text + NDJSON) on top of
// Registry::snapshot().
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/span.h"

namespace anr::obs {

/// Monotone event count. Relaxed atomic increments only.
class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous value (queue depth, resident entries). Set/add via
/// atomics; add uses a CAS loop (no atomic<double>::fetch_add dependence).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed log-spaced bucket layout: finite bucket i covers
/// (min * factor^(i-1), min * factor^i]; values <= min land in bucket 0,
/// values beyond the last bound in the implicit overflow (+Inf) bucket.
/// The default spans 1 microsecond to ~268 seconds at factor 2.
struct HistogramSpec {
  double min = 1e-6;
  double factor = 2.0;
  int buckets = 28;  ///< finite buckets (the +Inf bucket is extra)
};

/// Latency histogram over fixed log buckets. observe() is lock-free: one
/// log() call to find the bucket, then relaxed atomic increments (bucket,
/// count) and a CAS-loop sum update.
class Histogram {
 public:
  explicit Histogram(HistogramSpec spec = {});

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  const HistogramSpec& spec() const { return spec_; }
  /// Upper bounds of the finite buckets (ascending).
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; last entry is the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  /// Inclusive upper bound of bucket i. The +Inf bucket (i == buckets)
  /// reports one factor past the last finite bound: conservative, finite.
  double bucket_bound(std::size_t i) const;
  /// bucket_quantile() over this histogram's buckets.
  double quantile(double q) const;

 private:
  int bucket_of(double v) const;

  HistogramSpec spec_;
  double inv_log_factor_ = 0.0;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // buckets + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double payload, CAS-added
};

/// The q-quantile of a bucketed distribution: the upper bound of the
/// bucket that holds rank ceil(q * n), where n is the total count and
/// `buckets` are (inclusive upper bound, count) pairs in any order. Never
/// below the exact q-quantile, and less than one bucket factor above it.
/// 0 when the buckets are empty.
double bucket_quantile(std::vector<std::pair<double, std::uint64_t>> buckets,
                       double q);

/// Metric labels, e.g. {{"stage", "extraction"}}. Order-insensitive for
/// identity (canonicalized by key on registration).
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Stable lowercase name ("counter", ...).
const char* metric_type_name(MetricType type);

/// Point-in-time copy of one metric, the exposition input.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;                       ///< canonical (key-sorted)
  double value = 0.0;                  ///< counter / gauge
  std::vector<double> bounds;          ///< histogram finite upper bounds
  std::vector<std::uint64_t> buckets;  ///< per-bucket; last is +Inf
  double sum = 0.0;                    ///< histogram
  std::uint64_t count = 0;             ///< histogram
};

/// Owns metrics and a span ring; hands out stable handles. Thread-safe.
/// Resolution (counter()/gauge()/histogram()) registers on first use and
/// returns the same handle for the same (name, labels) thereafter; a
/// type conflict on an existing name throws ContractViolation.
class Registry {
 public:
  Registry() : Registry(/*enabled=*/true) {}

  Counter* counter(std::string_view name, const Labels& labels = {},
                   std::string_view help = {});
  Gauge* gauge(std::string_view name, const Labels& labels = {},
               std::string_view help = {});
  Histogram* histogram(std::string_view name, const Labels& labels = {},
                       std::string_view help = {}, HistogramSpec spec = {});

  /// The span ring (nullptr when disabled).
  SpanRing* spans() { return enabled_ ? &spans_ : nullptr; }

  /// True for a live registry, false for NullRegistry.
  bool enabled() const { return enabled_; }

  /// Snapshot of every registered metric, in registration order (samples
  /// of one family are therefore contiguous when registered together).
  std::vector<MetricSnapshot> snapshot() const;

  /// Completed spans currently in the ring, oldest first.
  std::vector<SpanRecord> span_snapshot() const { return spans_.snapshot(); }

 protected:
  explicit Registry(bool enabled);

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricType type;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* resolve(std::string_view name, const Labels& labels,
                 std::string_view help, MetricType type, HistogramSpec spec);

  const bool enabled_;
  mutable std::mutex mu_;                 // registration + snapshot only
  std::deque<Entry> entries_;             // stable addresses
  std::map<std::string, std::size_t> index_;  // canonical key -> entry
  SpanRing spans_;
};

/// The no-op sink: a Registry whose resolves all return nullptr, so every
/// record site reduces to a single untaken branch. Instrument against a
/// NullRegistry (or a plain nullptr Registry*) to measure the disabled
/// cost — bench_hotpath does exactly that.
class NullRegistry : public Registry {
 public:
  NullRegistry() : Registry(/*enabled=*/false) {}
};

/// Null-tolerant record helpers: the instrumentation call sites.
inline void inc(Counter* c, std::uint64_t d = 1) {
  if (c != nullptr) c->inc(d);
}
inline void set(Gauge* g, double v) {
  if (g != nullptr) g->set(v);
}
inline void add(Gauge* g, double d) {
  if (g != nullptr) g->add(d);
}
inline void observe(Histogram* h, double v) {
  if (h != nullptr) h->observe(v);
}

}  // namespace anr::obs
