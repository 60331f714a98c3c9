// Measurement helpers, the per-op correctness gate and result printing.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <random>

#include "common/check.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "perfbench.h"

namespace perfbench {

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(const std::string& why) {
  // The first few violations are enough to diagnose a broken run.
  if (violations_ < 8) notes_.push_back("VIOLATION " + why);
  ++violations_;
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::info(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

void Report::print(
    const std::string& stamp_json,
    const std::vector<std::pair<const char*, const char*>>& schema) {
  std::string metrics = "{";
  for (const auto& [name, unit] : schema) {
    double value = 0.0;
    for (const Metric& m : metrics_) {
      if (m.name != name) continue;
      if (m.unit != unit) fail("metric " + m.name + " reported in " + m.unit);
      value = m.value;
    }
    metrics += (metrics.size() > 1 ? ", " : "") + quoted(name) +
               ": {\"value\": " + num(value) + ", \"unit\": " + quoted(unit) +
               "}";
  }
  for (const Metric& m : metrics_) {
    bool known = false;
    for (const auto& entry : schema) known = known || m.name == entry.first;
    if (!known) fail("metric " + m.name + " is not in the schema");
  }
  std::cout << "stamp " << stamp_json << "\n";
  for (const std::string& n : notes_) std::cout << n << "\n";
  std::string info = "{\"succeeded\": " + std::to_string(attempted - failed);
  for (const auto& [key, value] : info_) {
    info += ", " + quoted(key) + ": " + value;
  }
  std::cout << "info " << info << "}\n";
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics << "}}" << std::endl;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

std::size_t samples_above_p90(std::size_t n) {
  return n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return anr::splitmix64(anr::splitmix64(seed) ^ (stream + 1));
}

void SetupTimer::round(int min_reps, double min_seconds) {
  anr::Stopwatch total;
  for (int reps = 0; reps < min_reps || total.seconds() < min_seconds;
       ++reps) {
    anr::Stopwatch sw;
    build_();
    reps_.push_back(sw.seconds());
  }
}

namespace {

// Fixed work of one reference pass, sized to a few milliseconds so one
// pass per op costs a few percent of a run.
constexpr std::size_t kRefValues = 60000;
constexpr std::size_t kRefSlots = 1 << 16;  // open-addressing table
constexpr int kRefTableOps = 40000;

// The kernel's own hash, so it shares no code with the library.
std::size_t ref_slot(std::uint64_t key) {
  key ^= key >> 31;
  key *= 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(key ^ (key >> 29)) & (kRefSlots - 1);
}

}  // namespace

void HostGauge::sample() {
  // The buffers are allocated once: a pass allocates nothing, so it
  // neither depends on nor disturbs the program's heap.
  if (values_.empty()) {
    values_.resize(kRefValues);
    table_.resize(kRefSlots);
  }
  const Clock::time_point start = Clock::now();
  std::mt19937_64 rng(0x5eed);
  for (double& v : values_) v = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  std::sort(values_.begin(), values_.end());
  std::fill(table_.begin(), table_.end(), std::pair<std::uint64_t, double>{});
  for (int i = 0; i < kRefTableOps; ++i) {  // linear-probing upserts
    const std::uint64_t key = (rng() % (kRefSlots / 2)) + 1;
    std::size_t slot = ref_slot(key);
    while (table_[slot].first != 0 && table_[slot].first != key) {
      slot = (slot + 1) & (kRefSlots - 1);
    }
    table_[slot].first = key;
    table_[slot].second += values_[static_cast<std::size_t>(i)];
  }
  const Clock::time_point end = Clock::now();
  sink_ += table_[kRefSlots / 3].first +
           static_cast<std::uint64_t>(values_[kRefValues / 2] * 1e6);
  samples_.push_back({start + (end - start) / 2,
                      std::chrono::duration<double>(end - start).count()});
}

double HostGauge::last_seconds() const {
  return samples_.empty() ? 0.0 : samples_.back().seconds;
}

double HostGauge::local_seconds(Clock::time_point t) const {
  ANR_CHECK_MSG(!samples_.empty(), "host gauge has no samples");
  // Samples are in time order: widen a window around t's insertion point
  // towards whichever neighbour is nearer.
  const auto at = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const Sample& s, Clock::time_point x) { return s.mid < x; });
  std::size_t lo = static_cast<std::size_t>(at - samples_.begin());
  std::size_t hi = lo;  // window is [lo, hi)
  while (hi - lo < kNearest && (lo > 0 || hi < samples_.size())) {
    const bool take_left =
        hi == samples_.size() ||
        (lo > 0 && t - samples_[lo - 1].mid < samples_[hi].mid - t);
    if (take_left) {
      --lo;
    } else {
      ++hi;
    }
  }
  std::vector<double> window;
  for (std::size_t i = lo; i < hi; ++i) window.push_back(samples_[i].seconds);
  return median(std::move(window));
}

double HostGauge::median_seconds() const {
  std::vector<double> all;
  for (const Sample& s : samples_) all.push_back(s.seconds);
  return median(std::move(all));
}

Latency normalized(const HostGauge& gauge, HostGauge::Clock::time_point start,
                   double seconds) {
  const auto mid = start + std::chrono::duration_cast<HostGauge::Clock::duration>(
                               std::chrono::duration<double>(seconds / 2.0));
  return {seconds, seconds / gauge.local_seconds(mid)};
}

PlanQuality check_plan(const MarchPlan& plan, const std::vector<Vec2>& start,
                       double r_c, int samples, bool allow_disconnect,
                       const std::string& op_name, Report& report) {
  PlanQuality q;
  const std::size_t n = start.size();
  if (plan.trajectories.size() != n || plan.final_positions.size() != n) {
    report.fail(op_name + ": robot count changed (" + std::to_string(n) +
                " in, " + std::to_string(plan.trajectories.size()) + " out)");
    return q;
  }
  double chords = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const anr::Trajectory& t = plan.trajectories[r];
    if (t.empty() || anr::distance(t.start(), start[r]) > 1e-9) {
      report.fail(op_name + ": trajectory " + std::to_string(r) +
                  " does not start at its robot");
      return q;
    }
    chords += anr::distance(t.start(), t.end());
  }
  const anr::TransitionMetrics m = anr::simulate_transition(
      plan.trajectories, r_c, plan.transition_end, samples);
  q.stable_link_ratio = m.stable_link_ratio;
  q.distance = m.total_distance;
  q.connected = m.global_connectivity;
  if (!(m.stable_link_ratio >= 0.0 && m.stable_link_ratio <= 1.0)) {
    report.fail(op_name + ": L = " + num(m.stable_link_ratio) +
                " outside [0, 1]");
  }
  if (!(m.total_distance >= chords * (1.0 - 1e-12) - 1e-6)) {
    report.fail(op_name + ": D = " + num(m.total_distance) +
                " below the straight-chord sum " + num(chords));
  }
  if (!m.global_connectivity && !allow_disconnect) {
    report.fail(op_name + ": network split at t = " +
                num(m.first_disconnect_time));
  }
  return q;
}

bool same_persisted_plan(const MarchPlan& a, const MarchPlan& b) {
  if (a.trajectories.size() != b.trajectories.size()) return false;
  for (std::size_t r = 0; r < a.trajectories.size(); ++r) {
    if (a.trajectories[r].waypoints() != b.trajectories[r].waypoints() ||
        a.trajectories[r].times() != b.trajectories[r].times()) {
      return false;
    }
  }
  return a.start == b.start && a.mapped_targets == b.mapped_targets &&
         a.final_positions == b.final_positions &&
         a.rotation_angle == b.rotation_angle &&
         a.rotation_evaluations == b.rotation_evaluations &&
         a.adjust_steps == b.adjust_steps &&
         a.transition_end == b.transition_end && a.total_time == b.total_time;
}

void QualityTally::add(const PlanQuality& q, std::size_t robots,
                       std::string_view bytes) {
  ++plans_;
  connected_ += q.connected ? 1 : 0;
  link_sum_ += q.stable_link_ratio;
  distance_per_robot_sum_ += q.distance / static_cast<double>(robots);
  for (char c : bytes) {  // FNV-1a continued across plans
    digest_ ^= static_cast<unsigned char>(c);
    digest_ *= 1099511628211ull;
  }
}

double QualityTally::stable_link_ratio() const {
  return plans_ ? link_sum_ / static_cast<double>(plans_) : 0.0;
}

double QualityTally::distance_per_robot() const {
  return plans_ ? distance_per_robot_sum_ / static_cast<double>(plans_) : 0.0;
}

double QualityTally::connectivity_ratio() const {
  return plans_ ? static_cast<double>(connected_) / static_cast<double>(plans_)
                : 0.0;
}

std::string QualityTally::digest_hex() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest_));
  return buf;
}

void add_end_to_end(Report& report, double setup_s,
                    const std::vector<Latency>& latencies, double wall_s,
                    const HostGauge& gauge, const QualityTally& quality) {
  if (samples_above_p90(latencies.size()) < 10) {
    report.fail("only " + std::to_string(latencies.size()) +
                " latency samples; p90 needs 10 above it");
  }
  std::vector<double> raw, refs;
  for (const Latency& l : latencies) {
    raw.push_back(l.seconds);
    refs.push_back(l.refs);
  }
  report.add("setup_s", setup_s, "s");
  report.add("latency_p50_ref", percentile(refs, 0.5), "ref");
  report.add("latency_p90_ref", percentile(refs, 0.9), "ref");
  report.add("latency_mean_ref", mean(refs), "ref");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("stable_link_ratio", quality.stable_link_ratio(), "ratio");
  report.add("distance_per_robot_m", quality.distance_per_robot(), "m");
  report.add("connectivity_ratio", quality.connectivity_ratio(), "ratio");

  report.info("latency_p50_s", num(percentile(raw, 0.5)));
  report.info("latency_p90_s", num(percentile(raw, 0.9)));
  report.info("latency_mean_s", num(mean(raw)));
  report.info("throughput_per_s",
              num(wall_s > 0.0 ? static_cast<double>(raw.size()) / wall_s
                               : 0.0));
  report.info("ref_s", num(gauge.median_seconds()));
  report.info("ref_samples", std::to_string(gauge.samples()));
}

}  // namespace perfbench
