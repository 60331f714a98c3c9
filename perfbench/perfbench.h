// perfbench: the repository's end-to-end benchmark (see README.md here).
//
// One process runs one named workload for a fixed measuring time, checks
// every output, and prints one JSON result line. With tracing off it
// reports the end-to-end metrics; with tracing on, the per-layer
// metrics, timed only from this directory's own calls into the library's
// public entry points (planner observers, service registries, JobResult
// timings, direct calls to layer functions).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "anr/anr.h"

namespace perfbench {

using anr::MarchPlan;
using anr::Vec2;

/// Command-line settings of one run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";  ///< git SHA or source digest
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run prints: the result line plus report lines.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// Records a correctness violation; the run reports correct = false.
  void fail(const std::string& why);
  /// A human-readable report line printed before the result line.
  void note(const std::string& line);
  /// A key of the `info` object (value is raw JSON).
  void info(const std::string& key, const std::string& json_value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return violations_ == 0; }
  std::uint64_t violations() const { return violations_; }
  /// Prints the report lines, the info object and the result line with
  /// exactly the metrics of `schema`, in its order. A schema metric the
  /// workload did not report is 0: that layer is not on its path.
  void print(const std::string& stamp_json,
             const std::vector<std::pair<const char*, const char*>>& schema);

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::uint64_t violations_ = 0;
};

// ---- Measurement helpers (common.cpp) -------------------------------

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);
/// Samples strictly above the nearest-rank p90; each run needs >= 10.
std::size_t samples_above_p90(std::size_t n);
/// Peak resident set of this process, MB.
double peak_rss_mb();
/// Shortest round-trip decimal form of a double (JSON number).
std::string num(double v);
std::string quoted(std::string_view s);

/// Seed for the k-th stream derived from a run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Times a run's set-up. Set-up is short next to the measuring window and
/// the host's speed moves over seconds, so one timing, or a few back to
/// back, would be mostly noise: a run times rounds of it spread over the
/// run and reports the median of every repetition.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> build) : build_(std::move(build)) {}
  /// Repeats the set-up until this round ran it at least `min_reps` times
  /// and for at least `min_seconds`.
  void round(int min_reps, double min_seconds);
  double median_seconds() const { return median(reps_); }
  std::size_t reps() const { return reps_.size(); }

 private:
  std::function<void()> build_;
  std::vector<double> reps_;
};

// ---- Host-speed gauge (common.cpp) -------------------------------------

/// Times a fixed reference kernel between the ops of a run. The kernel is
/// this directory's own code: a sort and hash-table upserts over about
/// 1.5 MB, a few milliseconds long. The host this
/// benchmark runs on is shared, and its speed for memory- and
/// branch-heavy code moves by up to 50% over seconds to minutes as
/// neighbours come and go; the kernel's time moves with it (a plan's
/// ratio to it held within about 5% while both moved 40%). Dividing each
/// op's latency by the kernel time measured around it leaves the
/// program's own cost in "ref" units: 1 ref is one kernel pass on the
/// same host at the same moment. A change to the library cannot change
/// the kernel, so it shows in full.
class HostGauge {
 public:
  using Clock = std::chrono::steady_clock;

  /// Runs the kernel once and records when and how long.
  void sample();
  /// Seconds of the last sample (0 before the first).
  double last_seconds() const;
  /// Median of the `kNearest` samples whose midpoints lie nearest `t`.
  double local_seconds(Clock::time_point t) const;
  /// Median of every sample.
  double median_seconds() const;
  std::size_t samples() const { return samples_.size(); }

  static constexpr std::size_t kNearest = 5;

 private:
  struct Sample {
    Clock::time_point mid;
    double seconds;
  };
  std::vector<Sample> samples_;  ///< in time order
  std::vector<double> values_;   ///< kernel buffers, reused by every pass
  std::vector<std::pair<std::uint64_t, double>> table_;
  std::uint64_t sink_ = 0;       ///< keeps the kernel's result alive
};

/// One op's latency, raw and in units of the gauge's local kernel time.
struct Latency {
  double seconds = 0.0;
  double refs = 0.0;
};

/// Normalizes an op that started at `start` and took `seconds`.
Latency normalized(const HostGauge& gauge, HostGauge::Clock::time_point start,
                   double seconds);

// ---- Correctness gate ------------------------------------------------

/// Paper metrics of one checked plan (Sec. IV).
struct PlanQuality {
  double stable_link_ratio = 0.0;  ///< L
  double distance = 0.0;           ///< D
  bool connected = false;          ///< C = 1 over the sampled timeline
};

/// Checks one plan: robot count preserved, every trajectory starts at its
/// robot, L in [0, 1], D >= the sum of straight start-to-final chords,
/// and C = 1 over `samples` instants unless `allow_disconnect`. Failures
/// go to `report`; returns the measured quality either way.
PlanQuality check_plan(const MarchPlan& plan, const std::vector<Vec2>& start,
                       double r_c, int samples, bool allow_disconnect,
                       const std::string& op_name, Report& report);

/// True when every persisted field of the two plans is bit-identical.
bool same_persisted_plan(const MarchPlan& a, const MarchPlan& b);

/// Deterministic quality tally over a fixed, seed-defined set of ops:
/// the three paper metrics and an FNV-1a digest of the encoded plans in
/// op order.
class QualityTally {
 public:
  void add(const PlanQuality& q, std::size_t robots, std::string_view bytes);
  double stable_link_ratio() const;
  double distance_per_robot() const;
  double connectivity_ratio() const;
  std::size_t plans() const { return plans_; }
  std::string digest_hex() const;

 private:
  std::size_t plans_ = 0;
  std::size_t connected_ = 0;
  double link_sum_ = 0.0;
  double distance_per_robot_sum_ = 0.0;
  std::uint64_t digest_ = 14695981039346656037ull;  // FNV-1a offset basis
};

/// Adds the eight end-to-end metrics in their fixed order. The latency
/// metrics are in ref units; their raw seconds, the run's median kernel
/// time and the raw op rate over `wall_s` go to the info object.
void add_end_to_end(Report& report, double setup_s,
                    const std::vector<Latency>& latencies, double wall_s,
                    const HostGauge& gauge, const QualityTally& quality);

// ---- Per-layer probes (layers.cpp) -----------------------------------

/// One planner configuration a workload sets up.
struct PlannerConfig {
  anr::FieldOfInterest m1;
  anr::FieldOfInterest m2_shape;
  double r_c = 80.0;
  anr::PlannerOptions options;
};

/// Plan-stage time and counters read from a registry (delta-able).
struct StageTotals {
  double extraction = 0.0;
  double harmonic = 0.0;
  double rotation = 0.0;
  double interpolation = 0.0;
  double adjustment = 0.0;
  double routing = 0.0;
  double plans = 0.0;
  double multigrid = 0.0;

  static StageTotals read(anr::obs::Registry& registry);
  StageTotals minus(const StageTotals& before) const;
  double stage_sum() const;
};

/// Per-op plan counters summed from MarchPlan fields.
struct PlanCounters {
  double plans = 0.0;
  double robots = 0.0;
  double rotation_evals = 0.0;
  double snapped_targets = 0.0;
  double adjust_steps = 0.0;
  double fmm_solves = 0.0;
  double fmm_fallbacks = 0.0;

  void add(const MarchPlan& plan);
};

/// Plan-layer metrics: stages per op from the registry, counters per op,
/// the plan wall time (the whole) and its unattributed remainder. Checks
/// that the nested stage spans fit inside the measured plan time.
void add_plan_layers(Report& report, const StageTotals& stages,
                     const PlanCounters& counters, double plan_wall_per_op);

/// Times every config's planner construction (the whole) and its M2-side
/// parts (mesh_foi, harmonic_disk_map, GridCvt) by direct calls, and
/// prints them beside the run's `setup_s`.
void add_setup_layers(Report& report, const std::vector<PlannerConfig>& configs,
                      double setup_s);

/// Mean seconds per net::is_connected call at the deployment's size.
double time_is_connected(const std::vector<Vec2>& positions, double r_c);

/// Mean per-call seconds of fast_march and extract_geodesic over the
/// cost field a terrain plan of `config` routes over.
void add_terrain_calls(Report& report, const PlannerConfig& config,
                       const std::vector<Vec2>& starts, Vec2 m2_offset);

// ---- Workloads ---------------------------------------------------------

/// Seed of every workload's robot deployments ("the fleet"). The run
/// seed orders the ops over that fleet, so every seed plans the same
/// multiset of inputs: L, D and C do not move with the run seed and can
/// be held to tight bounds. With this fleet the paper-scenario planner
/// splits the network on some ops (see README.md), which each workload's
/// recorded connectivity ratio admits.
inline constexpr std::uint64_t kFleetSeed = 15;

/// Fixed open-loop rate of serve_zipf, jobs/s: a sixth to a third of the
/// capacity that `perfbench --workload serve_zipf --probe-capacity`
/// measures on one CPU of a 4-core host, as the host's speed varies.
/// Nearer half of capacity, cheap jobs queued behind cold-key builds
/// often enough to move the median (see README.md). Runs never re-probe
/// it.
inline constexpr double kServeRatePerSecond = 12.0;

void run_plan_workload(const RunArgs& args, Report& report,
                       std::string& layout);
void run_serve_workload(const RunArgs& args, Report& report,
                        std::string& layout);
/// Closed-loop capacity of the serve_zipf deployment, jobs/s.
int probe_serve_capacity(const RunArgs& args);

bool is_plan_workload(const std::string& name);

}  // namespace perfbench
