// serve_zipf: an open loop at one fixed absolute rate through the whole
// serving path — ServingGateway (admission) -> ShardedMissionService
// (2 shards x 1 worker, intra-plan threads 1) -> PlannerCache -> plan —
// and every response plan through encode_plan / decode_plan.
//
// Jobs draw a planner key from Zipf(s = 1) over 14 keys (7 scenarios x 2
// fidelities); the shard that is sent most keys caches fewer planners
// than that, so the hot head hits while the cold tail builds and evicts.
//
// Timing: a job's latency runs from the instant it was due, not from when
// the generator got to submit it, so a stalled generator shows up as
// latency; it ends when its future is ready (a polling completion thread
// stamps each future as it becomes ready, in any order) plus the job's
// own encode + decode. Plans are checked after the window, off the clock.
// The generator times the host-speed kernel in its slack between jobs.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "perfbench.h"

namespace perfbench {

namespace {

namespace rt = anr::runtime;
using Clock = std::chrono::steady_clock;

constexpr int kShards = 2;
constexpr int kRobots = 100;
// Planners each shard keeps; by today's planner fingerprints one shard is
// sent 11 of the 14 keys.
constexpr std::size_t kCacheCapacity = 5;
constexpr std::size_t kQueueCapacity = 512;
constexpr double kSloSeconds = 2.0;
constexpr int kCheckSamples = 120;
// Share of served plans that keep C = 1, as recorded for this mix: some
// reduced-fidelity plans split the network late in the transition. A
// run below it fails; single split plans do not.
constexpr double kMinConnectivity = 0.96;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct JobSpec {
  std::size_t key = 0;    ///< index into ServeInputs::keys
  double separation = 0;  ///< M1-M2 separation, x r_c
};

struct ServeInputs {
  std::vector<PlannerConfig> keys;  ///< in popularity order
  std::vector<std::size_t> scenario;           ///< per key: deployment index
  std::vector<std::vector<Vec2>> deployments;  ///< per scenario
  std::vector<JobSpec> jobs;

  rt::PlanJob job(std::size_t i) const { return job_for(jobs[i], i); }

  rt::PlanJob job_for(const JobSpec& spec, std::size_t i) const {
    const PlannerConfig& c = keys[spec.key];
    rt::PlanJob job;
    job.id = "job-" + std::to_string(i);
    job.m1 = c.m1;
    job.m2_shape = c.m2_shape;
    job.r_c = c.r_c;
    job.m2_offset = c.m1.centroid() + Vec2{spec.separation * c.r_c, 0.0} -
                    c.m2_shape.centroid();
    job.positions = deployment_of(spec.key);
    job.options = c.options;
    return job;
  }

  const std::vector<Vec2>& deployment_of(std::size_t key) const {
    return deployments[scenario[key]];
  }
};

// Planner keys in popularity order: (paper scenario, full fidelity?).
// The four cheapest plans (scenarios 1 and 2) lead, so the hot head --
// about 60% of jobs, nearly all cache hits -- is one dense cluster of
// latencies and the median falls inside it, not on the edge between two
// keys' clusters. The cold tail builds and evicts.
constexpr std::pair<int, bool> kKeyOrder[] = {
    {1, true},  {1, false}, {2, true},  {2, false}, {5, false},
    {6, false}, {3, true},  {4, true},  {5, true},  {6, true},
    {7, true},  {3, false}, {4, false}, {7, false},
};

ServeInputs serve_inputs(std::uint64_t seed, std::size_t jobs) {
  ServeInputs in;
  for (int id = 1; id <= 7; ++id) {  // one swarm per scenario, both keys
    in.deployments.push_back(
        anr::optimal_coverage_positions(anr::scenario(id).m1, kRobots,
                                        derive_seed(kFleetSeed, id),
                                        anr::uniform_density())
            .positions);
  }
  for (const auto& [id, full] : kKeyOrder) {
    const anr::Scenario sc = anr::scenario(id);
    PlannerConfig c{sc.m1, sc.m2_shape, sc.comm_range, {}};
    c.options.mesher.target_grid_points = full ? 450 : 360;
    c.options.cvt_samples = full ? 5000 : 4000;
    c.options.max_adjust_steps = 6;
    in.keys.push_back(std::move(c));
    in.scenario.push_back(static_cast<std::size_t>(id - 1));
  }
  // Zipf(s = 1) in exact proportions (largest remainder), in an order
  // fixed by the fleet seed: every run sends the same key sequence, so
  // the caches hit and miss on the same jobs whatever the run seed. The
  // run seed deals each key's separations over that key's jobs (its j-th
  // job in the dealt order gets 10 * (1 + j mod 10) x r_c), so every
  // seed serves the same multiset of (key, separation) jobs and the mix
  // adds no run-to-run spread.
  const std::size_t k_count = in.keys.size();
  double total_weight = 0.0;
  for (std::size_t k = 0; k < k_count; ++k) total_weight += 1.0 / (k + 1.0);
  std::vector<std::size_t> count(k_count);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < k_count; ++k) {
    const double exact = jobs / (k + 1.0) / total_weight;
    count[k] = static_cast<std::size_t>(exact);
    assigned += count[k];
    remainder.emplace_back(count[k] - exact, k);  // most negative first
  }
  std::sort(remainder.begin(), remainder.end());
  for (std::size_t r = 0; assigned < jobs; ++r, ++assigned) {
    ++count[remainder[r].second];
  }
  std::vector<std::vector<double>> separations(k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    for (std::size_t j = 0; j < count[k]; ++j) {
      in.jobs.push_back({k, 0.0});
      separations[k].push_back(10.0 * static_cast<double>(1 + j % 10));
    }
    anr::Rng dealer(derive_seed(seed, 200 + k));
    std::shuffle(separations[k].begin(), separations[k].end(),
                 dealer.engine());
  }
  anr::Rng order(derive_seed(kFleetSeed, 100));
  std::shuffle(in.jobs.begin(), in.jobs.end(), order.engine());
  std::vector<std::size_t> dealt(k_count, 0);
  for (JobSpec& job : in.jobs) {
    job.separation = separations[job.key][dealt[job.key]++];
  }
  return in;
}

/// The serving stack: sharded service, admission controller, gateway.
class ServingStack {
 public:
  explicit ServingStack(anr::obs::Registry* registry)
      : service_(service_options(registry)),
        controller_(admission_options(registry)),
        gateway_(backend(), &controller_) {
    if (registry == nullptr) return;
    for (int s = 0; s < kShards; ++s) {
      controller_.watch(registry->histogram("anr_job_e2e_full_seconds",
                                            {{"shard", std::to_string(s)}}));
    }
  }
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  anr::shard::ShardedMissionService& service() { return service_; }
  rt::ServingGateway& gateway() { return gateway_; }

 private:
  static anr::shard::ShardedServiceOptions service_options(
      anr::obs::Registry* registry) {
    anr::shard::ShardedServiceOptions o;
    o.shards = kShards;
    o.shard.threads = 1;
    o.shard.intra_threads = 1;
    o.shard.queue_capacity = kQueueCapacity;
    o.shard.overflow = rt::OverflowPolicy::kReject;
    o.shard.cache_capacity = kCacheCapacity;
    o.registry = registry;
    return o;
  }
  static rt::AdmissionOptions admission_options(anr::obs::Registry* registry) {
    rt::AdmissionOptions o;
    o.slo_seconds = kSloSeconds;
    o.queue_capacity = kQueueCapacity * kShards;
    o.registry = registry;
    return o;
  }
  rt::GatewayBackend backend() {
    rt::GatewayBackend b;
    b.submit = [this](rt::PlanJob job) {
      return service_.submit(std::move(job));
    };
    b.queue_depth = [this] {
      std::size_t depth = 0;
      for (int s = 0; s < kShards; ++s) {
        depth += service_.shard_service(s).queue_depth();
      }
      return depth;
    };
    return b;
  }

  anr::shard::ShardedMissionService service_;
  rt::AdmissionController controller_;
  rt::ServingGateway gateway_;
};

/// Warms a stack's caches: one job per key, coldest first, so each shard
/// ends holding its hottest keys.
void warm(ServingStack& stack, const ServeInputs& in) {
  std::vector<rt::PlanJob> jobs;
  for (std::size_t k = in.keys.size(); k-- > 0;) {
    jobs.push_back(in.job_for({k, 10.0}, k));
  }
  for (const rt::JobResult& r : stack.service().run_batch(std::move(jobs))) {
    ANR_CHECK_MSG(r.ok, "warm-up job failed: " + r.error);
  }
}

struct JobRecord {
  // Written by the generator before the job is handed to the completer.
  Clock::time_point due;
  double lag_s = 0.0;    ///< due -> submit
  double admit_s = 0.0;  ///< the gateway's submit call
  rt::AdmitDecision decision = rt::AdmitDecision::kAccept;
  // Written by the completer.
  double ready_s = 0.0;  ///< due -> future ready
  double encode_s = 0.0;
  double decode_s = 0.0;
  bool codec_ok = false;
  rt::JobResult result;  ///< plan moved out into `bytes`
  std::string bytes;
  double e2e() const { return ready_s + encode_s + decode_s; }
};

struct PassResult {
  double setup_s = 0.0;
  std::size_t setup_reps = 0;
  double window_s = 0.0;  ///< first due -> last ready
  double late_p99_s = 0.0;
  double late_max_s = 0.0;
  std::vector<JobRecord> jobs;
  rt::GatewayStats gateway;
  std::vector<std::uint64_t> routed;  ///< per shard, window only
  std::uint64_t evictions = 0;        ///< window only
  StageTotals stages;                 ///< window only (traced)
  HostGauge gauge;  ///< kernel samples before, during and after the window
};

std::uint64_t total_evictions(const anr::shard::ShardedServiceStats& s) {
  std::uint64_t n = 0;
  for (const rt::ServiceStats& shard : s.shards) n += shard.cache.evictions;
  return n;
}

PassResult run_pass(const ServeInputs& in, anr::obs::Registry* registry) {
  PassResult out;
  std::unique_ptr<ServingStack> stack;
  // Set-up rounds before and after the window; the median of all.
  SetupTimer setup([&] {
    stack.reset();
    stack = std::make_unique<ServingStack>(registry);
    warm(*stack, in);
  });
  setup.round(/*min_reps=*/3, /*min_seconds=*/1.0);

  const std::size_t n = in.jobs.size();
  std::vector<rt::PlanJob> jobs;
  for (std::size_t i = 0; i < n; ++i) jobs.push_back(in.job(i));
  out.jobs.resize(n);
  const anr::shard::ShardedServiceStats before = stack->service().stats();
  if (registry != nullptr) out.stages = StageTotals::read(*registry);

  struct Inflight {
    std::size_t index;
    Clock::time_point due;
    std::future<rt::JobResult> future;
  };
  std::mutex mu;  // guards inflight, generating
  std::deque<Inflight> inflight;
  bool generating = true;
  Clock::time_point last_ready{};

  // The completer polls: a library future has no completion callback, and
  // waiting on one future at a time would stamp a job only once every
  // earlier job finished.
  std::thread completer([&] {
    for (;;) {
      std::vector<std::pair<Inflight, Clock::time_point>> ready;
      bool finished = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (auto it = inflight.begin(); it != inflight.end();) {
          if (it->future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            ready.emplace_back(std::move(*it), Clock::now());
            it = inflight.erase(it);
          } else {
            ++it;
          }
        }
        finished = !generating && inflight.empty();
      }
      for (auto& [item, stamp] : ready) {
        JobRecord& rec = out.jobs[item.index];
        rec.ready_s = seconds_between(item.due, stamp);
        last_ready = std::max(last_ready, stamp);
        rec.result = item.future.get();
        if (!rec.result.ok) continue;
        anr::Stopwatch sw;
        rec.bytes = anr::encode_plan(rec.result.plan);
        rec.encode_s = sw.seconds();
        sw.reset();
        const std::optional<MarchPlan> decoded = anr::decode_plan(rec.bytes);
        rec.decode_s = sw.seconds();
        rec.codec_ok =
            decoded && same_persisted_plan(*decoded, rec.result.plan);
        rec.result.plan = MarchPlan{};  // the bytes now carry it
      }
      if (finished) return;
      if (ready.empty()) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  const double spacing = 1.0 / kServeRatePerSecond;
  const auto as_duration = [](double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  };
  // The first and last jobs need gauge samples on both sides of them.
  for (std::size_t k = 0; k < HostGauge::kNearest; ++k) out.gauge.sample();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<double> late;
  auto stop_completer = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      generating = false;
    }
    completer.join();
  };
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point due = start + as_duration(spacing * i);
      std::this_thread::sleep_until(due);
      const Clock::time_point submit = Clock::now();
      rt::AdmitResult verdict;
      std::future<rt::JobResult> future =
          stack->gateway().submit(std::move(jobs[i]), &verdict);
      JobRecord& rec = out.jobs[i];
      rec.due = due;
      rec.lag_s = seconds_between(due, submit);
      rec.admit_s = seconds_between(submit, Clock::now());
      rec.decision = verdict.decision;
      late.push_back(rec.lag_s);
      {
        std::lock_guard<std::mutex> lock(mu);
        inflight.push_back({i, due, std::move(future)});
      }
      // Time the reference kernel just before the next job is due, if no
      // job is in flight then: every thread shares one CPU (see
      // pin_to_current_cpu), so the kernel measures the CPU the jobs run
      // on and never takes it from one.
      const Clock::time_point next = start + as_duration(spacing * (i + 1));
      const Clock::duration budget =
          as_duration(2.0 * out.gauge.last_seconds() + 0.002);
      std::this_thread::sleep_until(next - budget);
      bool idle = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        idle = inflight.empty();
      }
      if (idle && Clock::now() + budget / 2 < next) out.gauge.sample();
    }
  } catch (...) {
    stop_completer();
    throw;
  }
  stop_completer();
  for (std::size_t k = 0; k < HostGauge::kNearest; ++k) out.gauge.sample();

  out.window_s = seconds_between(start, last_ready);
  out.late_p99_s = percentile(late, 0.99);
  out.late_max_s = percentile(late, 1.0);
  out.gateway = stack->gateway().stats();
  const anr::shard::ShardedServiceStats after = stack->service().stats();
  for (int s = 0; s < kShards; ++s) {
    out.routed.push_back(after.routed[s] - before.routed[s]);
  }
  out.evictions = total_evictions(after) - total_evictions(before);
  if (registry != nullptr) {
    out.stages = StageTotals::read(*registry).minus(out.stages);
  }
  setup.round(/*min_reps=*/2, /*min_seconds=*/0.5);
  out.setup_s = setup.median_seconds();
  out.setup_reps = setup.reps();
  return out;
}

/// Counts failures, checks every served plan and tallies quality.
void check_pass(const RunArgs& args, const ServeInputs& in, PassResult& pass,
                Report& report, QualityTally& quality,
                PlanCounters& counters) {
  const double spacing = 1.0 / kServeRatePerSecond;
  std::string split_keys;
  // A generator that runs late offers less than the fixed rate.
  if (pass.late_p99_s > spacing) {
    report.fail("generator fell behind: p99 lateness " +
                num(pass.late_p99_s) + " s exceeds the " + num(spacing) +
                " s spacing; run invalid");
  }
  for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
    JobRecord& rec = pass.jobs[i];
    ++report.attempted;
    const std::string op_name = args.workload + " job " + std::to_string(i);
    if (rec.decision != rt::AdmitDecision::kAccept ||
        rec.result.status != rt::JobStatus::kOk) {
      ++report.failed;  // shed, rejected, expired, degraded or errored
      continue;
    }
    const std::uint64_t violations = report.violations();
    const std::optional<MarchPlan> plan = anr::decode_plan(rec.bytes);
    if (!plan || !rec.codec_ok) {
      report.fail(op_name + ": decoded plan differs from the served plan");
    } else {
      const std::size_t key = in.jobs[i].key;
      const PlanQuality q =
          check_plan(*plan, in.deployment_of(key), in.keys[key].r_c,
                     kCheckSamples, /*allow_disconnect=*/true, op_name,
                     report);
      if (!q.connected) {
        split_keys.append(" key").append(std::to_string(key)).append("@").append(
            num(in.jobs[i].separation));
      }
      quality.add(q, kRobots, rec.bytes);
      counters.add(*plan);
    }
    if (report.violations() != violations) ++report.failed;
  }
  if (!split_keys.empty()) report.note("split plans:" + split_keys);
  if (quality.connectivity_ratio() < kMinConnectivity) {
    report.fail("connectivity ratio " + num(quality.connectivity_ratio()) +
                " below the recorded " + num(kMinConnectivity));
  }
}

void add_pass_info(Report& report, const PassResult& pass,
                   const QualityTally& quality) {
  report.info("plan_digest", quoted(quality.digest_hex()));
  report.info("jobs", std::to_string(pass.jobs.size()));
  report.info("generator_late_p99_s", num(pass.late_p99_s));
  report.info("generator_late_max_s", num(pass.late_max_s));
  report.info("setup_reps", std::to_string(pass.setup_reps));
}

/// Served jobs' latencies from their due times, raw and in ref units.
std::vector<Latency> e2e_latencies(const PassResult& pass) {
  std::vector<Latency> out;
  for (const JobRecord& rec : pass.jobs) {
    if (rec.result.status == rt::JobStatus::kOk) {
      out.push_back(normalized(pass.gauge, rec.due, rec.e2e()));
    }
  }
  return out;
}

double median_refs(const std::vector<Latency>& latencies) {
  std::vector<double> refs;
  for (const Latency& l : latencies) refs.push_back(l.refs);
  return median(std::move(refs));
}

void add_serve_layers(Report& report, const PassResult& pass, const PlanCounters& counters) {
  std::vector<double> lag, admit, queue, build, built, plan, encode, decode,
      bytes, e2e, rest;
  double hits = 0.0, builds = 0.0;
  for (const JobRecord& rec : pass.jobs) {
    const rt::JobResult& r = rec.result;
    if (r.status != rt::JobStatus::kOk) continue;
    lag.push_back(rec.lag_s);
    admit.push_back(rec.admit_s);
    queue.push_back(r.queue_seconds);
    build.push_back(r.build_seconds);
    plan.push_back(r.plan_seconds);
    encode.push_back(rec.encode_s);
    decode.push_back(rec.decode_s);
    bytes.push_back(static_cast<double>(rec.bytes.size()));
    e2e.push_back(rec.e2e());
    (r.cache_hit ? hits : builds) += 1.0;
    if (!r.cache_hit) built.push_back(r.build_seconds);
    rest.push_back(rec.e2e() - (rec.lag_s + rec.admit_s + r.queue_seconds +
                                r.build_seconds + r.plan_seconds +
                                rec.encode_s + rec.decode_s));
  }
  const double jobs = static_cast<double>(pass.jobs.size());
  report.add("runtime.admit_s", mean(admit), "s");
  report.add("runtime.queue_wait_p50_s", percentile(queue, 0.5), "s");
  report.add("runtime.queue_wait_p90_s", percentile(queue, 0.9), "s");
  report.add("runtime.cache_hit_ratio", hits / (hits + builds), "ratio");
  report.add("runtime.cache_builds", builds, "count");
  report.add("runtime.cache_evictions", static_cast<double>(pass.evictions),
             "count");
  report.add("runtime.cache_build_s", mean(built), "s");
  report.add("runtime.plan_s", mean(plan), "s");
  report.add("runtime.shed_ratio", static_cast<double>(pass.gateway.shed) / jobs,
             "ratio");
  report.add("runtime.reject_ratio",
             static_cast<double>(pass.gateway.rejected) / jobs, "ratio");
  const double most =
      static_cast<double>(*std::max_element(pass.routed.begin(), pass.routed.end()));
  report.add("shard.load_imbalance", most / (jobs / kShards), "ratio");
  report.add("io.encode_plan_s", mean(encode), "s");
  report.add("io.decode_plan_s", mean(decode), "s");
  report.add("io.plan_bytes", mean(bytes), "bytes");

  // Client e2e = generator lag + admit + queue + build + plan + codec +
  // the remainder (promise hand-off, completion polling).
  const double whole = mean(e2e), unattributed = mean(rest);
  report.add("serve.e2e_s", whole, "s");
  report.add("serve.unattributed_s", unattributed, "s");
  report.note("reconcile serve: whole " + num(whole) + " s = lag " +
              num(mean(lag)) + " s + admit " + num(mean(admit)) +
              " s + queue " + num(mean(queue)) + " s + build " +
              num(mean(build)) + " s + plan " +
              num(mean(plan)) + " s + codec " +
              num(mean(encode) + mean(decode)) + " s + unattributed " +
              num(unattributed) + " s");
  if (std::abs(unattributed) > 0.1 * whole) {
    report.fail("served-job parts miss the client e2e by " +
                num(unattributed) + " s of " + num(whole) + " s");
  }

  add_plan_layers(report, pass.stages, counters, mean(plan));
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the CPU it runs on. The host's CPUs differ in speed by up to 30% from
/// moment to moment, so the kernel must run on the CPU the jobs run on:
/// with the generator on one CPU and a worker on another, the ratio of a
/// job's time to the kernel's jumped between runs (a p90 of 5.8 or 8.3
/// refs).
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);  // best effort
}

}  // namespace

void run_serve_workload(const RunArgs& args, Report& report,
                        std::string& layout) {
  pin_to_current_cpu();
  layout = "generator + completion thread + " + std::to_string(kShards) +
           " shards x 1 worker, intra-plan threads 1, all on one CPU";
  const auto jobs = static_cast<std::size_t>(
      std::llround(kServeRatePerSecond * args.seconds));
  const ServeInputs in = serve_inputs(args.seed, jobs);

  QualityTally quality;
  PlanCounters counters;
  if (!args.trace) {
    PassResult pass = run_pass(in, nullptr);
    check_pass(args, in, pass, report, quality, counters);
    add_pass_info(report, pass, quality);
    add_end_to_end(report, pass.setup_s, e2e_latencies(pass), pass.window_s,
                   pass.gauge, quality);
    return;
  }
  // Traced: an untraced pass for the overhead baseline, then the traced
  // pass whose registry feeds the per-layer metrics.
  PassResult plain = run_pass(in, nullptr);
  anr::obs::Registry registry;
  PassResult pass = run_pass(in, &registry);
  QualityTally plain_quality;
  PlanCounters plain_counters;
  check_pass(args, in, plain, report, plain_quality, plain_counters);
  check_pass(args, in, pass, report, quality, counters);
  add_pass_info(report, pass, quality);
  add_serve_layers(report, pass, counters);
  add_setup_layers(report, in.keys, pass.setup_s);
  report.add("net.is_connected_s",
             time_is_connected(in.deployments[0], in.keys[0].r_c), "s");
  report.add("trace.overhead_ratio",
             median_refs(e2e_latencies(pass)) /
                 median_refs(e2e_latencies(plain)),
             "ratio");
}

int probe_serve_capacity(const RunArgs& args) {
  // Closed loop: the whole job stream at once, so each shard drains its
  // own queue flat out and the busier shard bounds the wall time, as it
  // bounds the open loop's sustainable rate.
  pin_to_current_cpu();
  const auto jobs =
      static_cast<std::size_t>(std::llround(kServeRatePerSecond * args.seconds));
  const ServeInputs in = serve_inputs(args.seed, jobs);
  ServingStack stack(nullptr);
  warm(stack, in);
  std::vector<rt::PlanJob> batch;
  for (std::size_t i = 0; i < jobs; ++i) batch.push_back(in.job(i));
  anr::Stopwatch sw;
  std::size_t ok = 0;
  for (const rt::JobResult& r : stack.service().run_batch(std::move(batch))) {
    ok += r.ok ? 1 : 0;
  }
  const double wall = sw.seconds();
  std::printf("capacity_jobs_per_s %.2f (%zu of %zu jobs in %.2f s)\n",
              static_cast<double>(ok) / wall, ok, jobs, wall);
  return 0;
}

}  // namespace perfbench
