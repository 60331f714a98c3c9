#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace anr::obs {

const char* metric_type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

Histogram::Histogram(HistogramSpec spec) : spec_(spec) {
  ANR_CHECK(spec_.min > 0.0);
  ANR_CHECK(spec_.factor > 1.0);
  ANR_CHECK(spec_.buckets >= 1);
  inv_log_factor_ = 1.0 / std::log(spec_.factor);
  bounds_.reserve(static_cast<std::size_t>(spec_.buckets));
  double b = spec_.min;
  for (int i = 0; i < spec_.buckets; ++i) {
    bounds_.push_back(b);
    b *= spec_.factor;
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(spec_.buckets) + 1);
  for (int i = 0; i <= spec_.buckets; ++i) counts_[i].store(0);
}

int Histogram::bucket_of(double v) const {
  if (!(v > spec_.min)) return 0;  // NaN and <= min land in bucket 0
  // Finite bucket i covers (min * factor^(i-1), min * factor^i]; the log
  // gives the candidate, the boundary nudge keeps exact bounds inclusive.
  int i = static_cast<int>(std::ceil(std::log(v / spec_.min) *
                                     inv_log_factor_ - 1e-12));
  if (i < 0) i = 0;
  if (i >= spec_.buckets) return spec_.buckets;  // overflow (+Inf) bucket
  // Guard the float rounding near bucket edges.
  if (v > bounds_[static_cast<std::size_t>(i)]) ++i;
  while (i > 0 && v <= bounds_[static_cast<std::size_t>(i) - 1]) --i;
  return std::min(i, spec_.buckets);
}

void Histogram::observe(double v) {
  counts_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double s;
    std::memcpy(&s, &cur, sizeof(s));
    s += v;
    std::uint64_t next;
    std::memcpy(&next, &s, sizeof(next));
    if (sum_bits_.compare_exchange_weak(cur, next,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

double Histogram::sum() const {
  std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double s;
  std::memcpy(&s, &bits, sizeof(s));
  return s;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(spec_.buckets) + 1);
  for (int i = 0; i <= spec_.buckets; ++i) {
    out[static_cast<std::size_t>(i)] =
        counts_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::bucket_bound(std::size_t i) const {
  return i < bounds_.size() ? bounds_[i] : bounds_.back() * spec_.factor;
}

double Histogram::quantile(double q) const {
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::vector<std::pair<double, std::uint64_t>> buckets;
  buckets.reserve(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) buckets.emplace_back(bucket_bound(i), counts[i]);
  }
  return bucket_quantile(std::move(buckets), q);
}

double bucket_quantile(std::vector<std::pair<double, std::uint64_t>> buckets,
                       double q) {
  std::uint64_t total = 0;
  for (const auto& b : buckets) total += b.second;
  if (total == 0) return 0.0;
  std::sort(buckets.begin(), buckets.end());
  // ceil(q * n), shaved by a relative 1e-12 so that a product that is an
  // integer in exact arithmetic is not rounded up past it.
  const double exact = q * static_cast<double>(total) * (1.0 - 1e-12);
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(std::max(exact, 0.0))), 1, total);
  std::uint64_t seen = 0;
  for (const auto& [bound, count] : buckets) {
    seen += count;
    if (seen >= rank) return bound;
  }
  return buckets.back().first;
}

Registry::Registry(bool enabled) : enabled_(enabled) {}

namespace {

Labels canonical_labels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::string entry_key(std::string_view name, const Labels& canonical) {
  std::string key(name);
  for (const auto& [k, v] : canonical) {
    key.push_back('\x1f');
    key += k;
    key.push_back('\x1e');
    key += v;
  }
  return key;
}

}  // namespace

Registry::Entry* Registry::resolve(std::string_view name, const Labels& labels,
                                   std::string_view help, MetricType type,
                                   HistogramSpec spec) {
  ANR_CHECK_MSG(!name.empty(), "metric name must be non-empty");
  Labels canonical = canonical_labels(labels);
  std::string key = entry_key(name, canonical);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    ANR_CHECK_MSG(e.type == type,
                  "metric '" + std::string(name) +
                      "' re-registered with a different type");
    return &e;
  }
  Entry e;
  e.name = std::string(name);
  e.help = std::string(help);
  e.type = type;
  e.labels = std::move(canonical);
  switch (type) {
    case MetricType::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      e.histogram = std::make_unique<Histogram>(spec);
      break;
  }
  entries_.push_back(std::move(e));
  index_.emplace(std::move(key), entries_.size() - 1);
  return &entries_.back();
}

Counter* Registry::counter(std::string_view name, const Labels& labels,
                           std::string_view help) {
  if (!enabled_) return nullptr;
  return resolve(name, labels, help, MetricType::kCounter, {})->counter.get();
}

Gauge* Registry::gauge(std::string_view name, const Labels& labels,
                       std::string_view help) {
  if (!enabled_) return nullptr;
  return resolve(name, labels, help, MetricType::kGauge, {})->gauge.get();
}

Histogram* Registry::histogram(std::string_view name, const Labels& labels,
                               std::string_view help, HistogramSpec spec) {
  if (!enabled_) return nullptr;
  return resolve(name, labels, help, MetricType::kHistogram, spec)
      ->histogram.get();
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricSnapshot s;
    s.name = e.name;
    s.help = e.help;
    s.type = e.type;
    s.labels = e.labels;
    switch (e.type) {
      case MetricType::kCounter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case MetricType::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricType::kHistogram:
        s.bounds = e.histogram->upper_bounds();
        s.buckets = e.histogram->bucket_counts();
        s.sum = e.histogram->sum();
        s.count = e.histogram->count();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace anr::obs
