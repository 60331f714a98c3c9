// Open-loop load harness for the admission-controlled serving path.
//
// Replays a Zipf-distributed mix of planner configurations against the
// sharded mission service behind a ServingGateway, at arrival rates set
// as multiples of the deployment's measured closed-loop capacity:
//
//   1. Capacity probe: a closed-loop batch (every worker busy) measures
//      jobs/sec with warm planner caches — the 1.0x reference rate.
//   2. SLO: by default 8x the slowest single-job latency, so an
//      unloaded deployment sits far below it (clamped to [0.25s, 10s]).
//   3. For each rate multiplier the harness submits jobs open-loop —
//      deterministic uniform spacing, never waiting for responses, the
//      service queue set to OverflowPolicy::kReject so submission can
//      never block — and a drain thread records client-side end-to-end
//      latency per admission class.
//
// What to expect:
//   - At 0.5x capacity the gateway accepts everything: shed == 0,
//     rejected == 0, full-service p99 well under the SLO.
//   - At >= 2x capacity occupancy pressure crosses shed_pressure and
//     the gateway starts downgrading to the degraded baseline: shed > 0
//     while the *accepted* jobs' p99 stays within the SLO — that is the
//     whole point of shedding.
//   - lost == 0 at every rate: every submitted job resolves exactly
//     once (accounting identity accepted + shed + rejected == offered).
//
// Output: a table plus a JSON document (--out FILE, else stdout). The
// committed BENCH_load.json baseline is guarded by scripts/bench_check.sh
// (accounting identity, shed-curve shape, accepted p99 <= SLO).
//
// Flags:
//   --duration S       seconds of open-loop submission per rate (default 20)
//   --rates CSV        rate multipliers (default "0.5,1,2,4")
//   --shards N         router shards (default 2)
//   --threads N        worker threads per shard (default 2)
//   --slo S            SLO seconds; 0 = auto from single-job latency
//   --seed N           workload seed (default 1)
//   --max-requests N   cap on offered jobs per rate row (default 1000000)
//   --out FILE         write the JSON document to FILE
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "anr/anr.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace {

using namespace anr;
using steady = std::chrono::steady_clock;

// One entry of the workload mix: a scenario geometry plus a planner
// configuration. Distinct options => distinct planner-cache keys, so the
// mix exercises cache affinity across shards too.
struct LoadConfig {
  int scenario_id = 0;
  PlannerOptions options;
  FieldOfInterest m1;
  FieldOfInterest m2_shape;
  double r_c = 0.0;
  Vec2 m2_offset{};
  std::vector<Vec2> positions;
};

PlannerOptions mix_options(int grid_points, int cvt_samples) {
  PlannerOptions opt;
  opt.mesher.target_grid_points = grid_points;
  opt.cvt_samples = cvt_samples;
  opt.max_adjust_steps = 6;
  return opt;
}

// Six-key mix: scenarios 1-4 at the standard bench fidelity plus two
// variant fidelities of scenarios 1-2 (distinct cache keys).
std::vector<LoadConfig> make_mix() {
  std::vector<LoadConfig> mix;
  struct Spec {
    int id;
    int grid;
    int cvt;
  };
  const Spec specs[] = {{1, 450, 5000}, {2, 450, 5000}, {3, 450, 5000},
                        {4, 450, 5000}, {1, 360, 4000}, {2, 360, 4000}};
  for (const Spec& s : specs) {
    const Scenario sc = scenario(s.id);
    LoadConfig cfg;
    cfg.scenario_id = s.id;
    cfg.options = mix_options(s.grid, s.cvt);
    cfg.m1 = sc.m1;
    cfg.m2_shape = sc.m2_shape;
    cfg.r_c = sc.comm_range;
    cfg.m2_offset = sc.m1.centroid() + Vec2{15.0 * sc.comm_range, 0.0} -
                    sc.m2_shape.centroid();
    cfg.positions =
        optimal_coverage_positions(sc.m1, 100, /*seed=*/1, uniform_density())
            .positions;
    mix.push_back(std::move(cfg));
  }
  return mix;
}

runtime::PlanJob make_job(const LoadConfig& cfg, std::string id) {
  runtime::PlanJob job;
  job.id = std::move(id);
  job.m1 = cfg.m1;
  job.m2_shape = cfg.m2_shape;
  job.r_c = cfg.r_c;
  job.m2_offset = cfg.m2_offset;
  job.positions = cfg.positions;
  job.options = cfg.options;
  return job;
}

// Zipf(s = 1) sampler over the mix: config i has weight 1 / (i + 1).
class ZipfPicker {
 public:
  explicit ZipfPicker(std::size_t n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / static_cast<double>(i + 1);
      cum_.push_back(acc);
    }
  }

  std::size_t pick(Rng& rng) const {
    const double r = rng.uniform(0.0, cum_.back());
    const auto it = std::lower_bound(cum_.begin(), cum_.end(), r);
    return std::min(static_cast<std::size_t>(it - cum_.begin()),
                    cum_.size() - 1);
  }

 private:
  std::vector<double> cum_;
};

struct LatencySummary {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

LatencySummary summarize(std::vector<double>& samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(samples.size());
    std::size_t idx =
        pos <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(pos)) - 1;
    idx = std::min(idx, samples.size() - 1);
    return samples[idx];
  };
  s.p50 = at(0.50);
  s.p99 = at(0.99);
  s.p999 = at(0.999);
  s.max = samples.back();
  return s;
}

json::Value latency_to_json(const LatencySummary& s) {
  json::Object o;
  o.emplace("count", s.count);
  o.emplace("p50", s.p50);
  o.emplace("p99", s.p99);
  o.emplace("p999", s.p999);
  o.emplace("max", s.max);
  return json::Value(std::move(o));
}

struct BenchSettings {
  double duration = 20.0;
  std::vector<double> rates = {0.5, 1.0, 2.0, 4.0};
  int shards = 2;
  int threads_per_shard = 2;
  double slo = 0.0;  // 0 = derive from single-job latency
  std::uint64_t seed = 1;
  std::uint64_t max_requests = 1000000;
  std::string out_path;
};

struct RateRow {
  double multiplier = 0.0;
  double target_rate = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t lost = 0;
  std::uint64_t planned_ok = 0;  // a plan was produced (full or degraded)
  std::uint64_t queue_full = 0;  // kRejectedQueueFull past admission
  std::uint64_t errors = 0;      // kError / anything else !ok
  double wall = 0.0;             // first submit -> last response drained
  double goodput = 0.0;          // planned_ok / wall
  LatencySummary latency_full;   // accepted jobs that produced a plan
  LatencySummary latency_shed;   // shed jobs that produced a plan
};

shard::ShardedServiceOptions service_options(const BenchSettings& s,
                                             std::size_t queue_per_shard,
                                             obs::Registry* registry) {
  shard::ShardedServiceOptions so;
  so.shards = s.shards;
  so.shard.threads = s.threads_per_shard;
  so.shard.queue_capacity = queue_per_shard;
  so.shard.overflow = runtime::OverflowPolicy::kReject;
  so.registry = registry;
  return so;
}

// Warms every planner the run can touch: one full-service job builds the
// cached MarchPlanner per config, one shed job builds the baseline memo.
void warm(shard::ShardedMissionService& service,
          const std::vector<LoadConfig>& mix) {
  std::vector<std::future<runtime::JobResult>> futs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    futs.push_back(
        service.submit(make_job(mix[i], "warm-" + std::to_string(i))));
    runtime::PlanJob degraded =
        make_job(mix[i], "warm-shed-" + std::to_string(i));
    degraded.level = runtime::ServiceLevel::kDegradedOnly;
    futs.push_back(service.submit(std::move(degraded)));
  }
  for (auto& f : futs) {
    const runtime::JobResult r = f.get();
    if (!r.ok) {
      std::cerr << "warmup " << r.id << " failed: " << r.error << "\n";
    }
  }
}

// Closed-loop capacity probe on a fresh warmed deployment: a batch of
// `jobs` round-robin jobs keeps every worker busy. The batch runs
// kProbeRounds times and the highest rate counts: one batch can read low
// when the host slows for a moment, and an under-read capacity makes the
// overload rates too gentle to shed. Also reports the slowest single job
// run sequentially (the SLO anchor).
void measure_capacity(const BenchSettings& s,
                      const std::vector<LoadConfig>& mix,
                      double* jobs_per_sec, double* single_max,
                      std::vector<double>* probe_rates) {
  shard::ShardedMissionService service(service_options(s, 256, nullptr));
  warm(service, mix);

  *single_max = 0.0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    Stopwatch sw;
    const runtime::JobResult r =
        service.submit(make_job(mix[i], "single-" + std::to_string(i))).get();
    if (r.ok) *single_max = std::max(*single_max, sw.seconds());
  }

  const int jobs = 48;
  const int kProbeRounds = 3;
  *jobs_per_sec = 0.0;
  probe_rates->clear();
  for (int round = 0; round < kProbeRounds; ++round) {
    std::vector<runtime::PlanJob> batch;
    batch.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) {
      batch.push_back(make_job(mix[static_cast<std::size_t>(i) % mix.size()],
                               "cap-" + std::to_string(round) + "-" +
                                   std::to_string(i)));
    }
    Stopwatch sw;
    const std::vector<runtime::JobResult> results =
        service.run_batch(std::move(batch));
    const double wall = sw.seconds();
    int ok = 0;
    for (const runtime::JobResult& r : results) ok += r.ok ? 1 : 0;
    const double rate = wall > 0.0 ? static_cast<double>(ok) / wall : 0.0;
    probe_rates->push_back(rate);
    *jobs_per_sec = std::max(*jobs_per_sec, rate);
  }
}

struct InFlight {
  std::future<runtime::JobResult> future;
  runtime::AdmitDecision decision = runtime::AdmitDecision::kAccept;
  steady::time_point submitted;
};

RateRow run_rate(const BenchSettings& s, const std::vector<LoadConfig>& mix,
                 double multiplier, double capacity, double slo,
                 std::size_t queue_per_shard) {
  RateRow row;
  row.multiplier = multiplier;
  row.target_rate = multiplier * capacity;

  obs::Registry registry;
  shard::ShardedMissionService service(
      service_options(s, queue_per_shard, &registry));
  warm(service, mix);

  runtime::AdmissionOptions ao;
  ao.slo_seconds = slo;
  ao.queue_capacity = queue_per_shard * static_cast<std::size_t>(s.shards);
  ao.registry = &registry;
  runtime::AdmissionController controller(ao);
  runtime::ServingGateway gateway(service.gateway_backend(), &controller,
                                  /*refresh_every=*/16);

  row.offered = std::min<std::uint64_t>(
      s.max_requests,
      std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(row.target_rate * s.duration)));

  // Drain thread: FIFO over submission order, so a measured latency can
  // only overestimate (a response that beat an earlier one waits for the
  // drain cursor). Overestimates are conservative for the p99 <= SLO gate.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> inflight;
  bool submitting = true;

  std::vector<double> lat_full, lat_shed;
  std::uint64_t responses = 0;
  std::thread drain([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inflight.empty() || !submitting; });
        if (inflight.empty()) return;
        item = std::move(inflight.front());
        inflight.pop_front();
      }
      const runtime::JobResult r = item.future.get();
      const double e2e =
          std::chrono::duration<double>(steady::now() - item.submitted)
              .count();
      ++responses;
      if (r.ok) {
        ++row.planned_ok;
        if (item.decision == runtime::AdmitDecision::kAccept) {
          lat_full.push_back(e2e);
        } else if (item.decision == runtime::AdmitDecision::kShed) {
          lat_shed.push_back(e2e);
        }
      } else if (r.status == runtime::JobStatus::kRejectedQueueFull) {
        ++row.queue_full;
      } else if (r.status != runtime::JobStatus::kRejectedOverload) {
        ++row.errors;
      }
    }
  });

  Rng rng(s.seed + static_cast<std::uint64_t>(multiplier * 1000.0));
  const ZipfPicker picker(mix.size());
  const double spacing = 1.0 / row.target_rate;
  Stopwatch wall;
  const steady::time_point start = steady::now();
  for (std::uint64_t i = 0; i < row.offered; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<steady::duration>(
                    std::chrono::duration<double>(
                        spacing * static_cast<double>(i))));
    const LoadConfig& cfg = mix[picker.pick(rng)];
    InFlight item;
    runtime::AdmitResult verdict;
    item.submitted = steady::now();
    item.future =
        gateway.submit(make_job(cfg, "load-" + std::to_string(i)), &verdict);
    item.decision = verdict.decision;
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back(std::move(item));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitting = false;
  }
  cv.notify_all();
  drain.join();
  row.wall = wall.seconds();

  const runtime::GatewayStats gs = gateway.stats();
  row.accepted = gs.accepted;
  row.shed = gs.shed;
  row.rejected = gs.rejected;
  row.lost = row.offered - responses;
  row.goodput =
      row.wall > 0.0 ? static_cast<double>(row.planned_ok) / row.wall : 0.0;
  row.latency_full = summarize(lat_full);
  row.latency_shed = summarize(lat_shed);
  return row;
}

json::Value row_to_json(const RateRow& r) {
  json::Object o;
  o.emplace("rate_multiplier", r.multiplier);
  o.emplace("target_rate_jobs_per_sec", r.target_rate);
  o.emplace("offered", r.offered);
  o.emplace("accepted", r.accepted);
  o.emplace("shed", r.shed);
  o.emplace("rejected", r.rejected);
  o.emplace("lost", r.lost);
  o.emplace("planned_ok", r.planned_ok);
  o.emplace("queue_full", r.queue_full);
  o.emplace("errors", r.errors);
  o.emplace("shed_fraction",
            r.offered > 0 ? static_cast<double>(r.shed) /
                                static_cast<double>(r.offered)
                          : 0.0);
  o.emplace("wall_seconds", r.wall);
  o.emplace("goodput_jobs_per_sec", r.goodput);
  o.emplace("latency_full", latency_to_json(r.latency_full));
  o.emplace("latency_shed", latency_to_json(r.latency_shed));
  return json::Value(std::move(o));
}

bool parse_rates(const std::string& csv, std::vector<double>* out) {
  out->clear();
  std::stringstream ss(csv);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() || v <= 0.0) return false;
    out->push_back(v);
  }
  return !out->empty();
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--duration S] [--rates CSV] [--shards N] [--threads N]"
               " [--slo S] [--seed N] [--max-requests N] [--out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  BenchSettings s;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--duration") {
      const char* v = next();
      if (v == nullptr || (s.duration = std::atof(v)) <= 0.0)
        return usage(argv[0]);
    } else if (arg == "--rates") {
      const char* v = next();
      if (v == nullptr || !parse_rates(v, &s.rates)) return usage(argv[0]);
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr || (s.shards = std::atoi(v)) < 1) return usage(argv[0]);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr || (s.threads_per_shard = std::atoi(v)) < 1)
        return usage(argv[0]);
    } else if (arg == "--slo") {
      const char* v = next();
      if (v == nullptr || (s.slo = std::atof(v)) < 0.0) return usage(argv[0]);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      s.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-requests") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      s.max_requests = std::strtoull(v, nullptr, 10);
      if (s.max_requests == 0) return usage(argv[0]);
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      s.out_path = v;
    } else {
      return usage(argv[0]);
    }
  }

  std::cout << "preparing workload mix (6 configs, Zipf s=1)...\n";
  const std::vector<LoadConfig> mix = make_mix();

  std::cout << "measuring closed-loop capacity (" << s.shards << " shards x "
            << s.threads_per_shard << " threads)...\n";
  double capacity = 0.0, single_max = 0.0;
  std::vector<double> probe_rates;
  measure_capacity(s, mix, &capacity, &single_max, &probe_rates);
  if (capacity <= 0.0) {
    std::cerr << "capacity probe failed (no successful jobs)\n";
    return 1;
  }
  const double slo =
      s.slo > 0.0 ? s.slo : std::clamp(8.0 * single_max, 0.25, 10.0);
  // Aggregate queue sized so occupancy at shed_pressure corresponds to
  // well under half the SLO of queueing delay.
  const std::size_t queue_total = std::max<std::size_t>(
      8, static_cast<std::size_t>(std::ceil(0.35 * slo * capacity)));
  const std::size_t queue_per_shard = std::max<std::size_t>(
      2, (queue_total + static_cast<std::size_t>(s.shards) - 1) /
             static_cast<std::size_t>(s.shards));
  std::cout << "capacity " << fmt(capacity, 1) << " jobs/s (best of";
  for (double r : probe_rates) std::cout << " " << fmt(r, 1);
  std::cout << "), slowest single job "
            << fmt(single_max * 1e3, 1) << " ms, slo " << fmt(slo, 2)
            << " s, queue " << queue_per_shard << "/shard\n\n";

  std::vector<RateRow> rows;
  for (double mult : s.rates) {
    std::cout << "rate " << fmt(mult, 2) << "x (" << fmt(mult * capacity, 1)
              << " jobs/s) for " << fmt(s.duration, 0) << "s...\n";
    rows.push_back(run_rate(s, mix, mult, capacity, slo, queue_per_shard));
  }

  TextTable table;
  table.header({"rate", "offered", "accepted", "shed", "rejected", "lost",
                "goodput/s", "full p50 (ms)", "full p99 (ms)",
                "shed p99 (ms)"});
  for (const RateRow& r : rows) {
    table.row({fmt(r.multiplier, 2) + "x", std::to_string(r.offered),
               std::to_string(r.accepted), std::to_string(r.shed),
               std::to_string(r.rejected), std::to_string(r.lost),
               fmt(r.goodput, 1), fmt(r.latency_full.p50 * 1e3, 1),
               fmt(r.latency_full.p99 * 1e3, 1),
               fmt(r.latency_shed.p99 * 1e3, 1)});
  }
  std::cout << "\n== open-loop load vs capacity (SLO " << fmt(slo, 2)
            << " s)\n"
            << table.str() << "\n";

  json::Object doc;
  doc.emplace("bench", "bench_load");
  doc.emplace("capacity_jobs_per_sec", capacity);
  json::Array probes;
  for (double r : probe_rates) probes.emplace_back(r);
  doc.emplace("capacity_probe_jobs_per_sec", std::move(probes));
  doc.emplace("single_job_seconds_max", single_max);
  doc.emplace("slo_seconds", slo);
  doc.emplace("shed_pressure", runtime::AdmissionOptions{}.shed_pressure);
  doc.emplace("reject_pressure", runtime::AdmissionOptions{}.reject_pressure);
  doc.emplace("queue_per_shard", queue_per_shard);
  doc.emplace("shards", s.shards);
  doc.emplace("threads_per_shard", s.threads_per_shard);
  doc.emplace("duration_seconds", s.duration);
  doc.emplace("seed", s.seed);
  doc.emplace("configs", mix.size());
  json::Array rows_json;
  for (const RateRow& r : rows) rows_json.push_back(row_to_json(r));
  doc.emplace("rows", std::move(rows_json));
  const std::string text = json::Value(std::move(doc)).dump(2) + "\n";

  if (!s.out_path.empty()) {
    std::ofstream f(s.out_path);
    if (!f) {
      std::cerr << "cannot write " << s.out_path << "\n";
      return 1;
    }
    f << text;
  } else {
    std::cout << text;
  }
  return 0;
}
