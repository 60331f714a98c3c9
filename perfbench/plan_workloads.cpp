// Closed-loop planner workloads: one caller, two arena threads, one plan()
// call per op, every plan checked off the clock.
//
//   plan_paper     the seven paper scenarios (144 robots, default
//                  full-quality options), one planner per scenario,
//                  separations 10..100 x r_c. Adjustment dominates;
//                  rotation search and interpolation over holed M2s
//                  (scenarios 3-7) are the rest.
//   plan_swarm_4k  scaled scenario 1 with 4096 lattice robots and the
//                  scale-bench options: extraction, the multigrid
//                  harmonic solve and interpolation dominate.
//   plan_terrain   144 robots, geodesic motion over hills + mud + a
//                  keep-out block: per-robot fast marching, geodesic
//                  extraction and the transition connectivity guard.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/task_arena.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using anr::FieldOfInterest;
using anr::PlannerOptions;

// Two arena threads leave cores to the rest of a 4-core host; with four,
// identical runs differed by up to 20%.
constexpr int kArenaThreads = 2;
// Every run makes at least this many ops, so its p90 has 10 samples above.
constexpr std::size_t kMinOps = 100;
// Measured seconds between the set-up rounds spread over a run.
constexpr double kSetupEvery = 5.0;

struct PlanOp {
  std::size_t planner = 0;
  std::size_t deployment = 0;
  Vec2 offset;
  std::string label;  ///< names the input in reports
};

struct PlanWorkload {
  std::vector<PlannerConfig> configs;
  std::vector<std::vector<Vec2>> deployments;
  /// Op i of the run, a pure function of (seed, i).
  std::function<PlanOp(std::size_t)> op;
  /// Ops per balanced block; a run stops only at a block boundary so
  /// every run mixes its inputs in the same proportions.
  std::size_t block = 1;
  /// The first ops, a whole number of blocks, over which L, D, C, the
  /// per-op counters and the plan digest are taken: the same set on
  /// every run of a seed however fast it goes.
  std::size_t quality_ops = 1;
  int check_samples = 120;  ///< simulate_transition instants per check
  /// Recorded share of plans that keep C = 1 on this fleet; a run below
  /// it fails. 1 makes every split plan a violation.
  double min_connectivity = 1.0;
};

/// A seeded permutation of [0, n) for block `b`.
std::vector<std::size_t> block_order(std::uint64_t seed, std::size_t b,
                                     std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  anr::Rng rng(derive_seed(seed, 1000 + b));
  std::shuffle(order.begin(), order.end(), rng.engine());
  return order;
}

Vec2 offset_at(const FieldOfInterest& m1, const FieldOfInterest& m2_shape,
               double gap) {
  return m1.centroid() + Vec2{gap, 0.0} - m2_shape.centroid();
}

PlanWorkload plan_paper(std::uint64_t seed) {
  PlanWorkload w;
  for (int id = 1; id <= 7; ++id) {
    const anr::Scenario sc = anr::scenario(id);
    w.configs.push_back({sc.m1, sc.m2_shape, sc.comm_range, PlannerOptions{}});
    w.deployments.push_back(
        anr::optimal_coverage_positions(sc.m1, sc.num_robots,
                                        derive_seed(kFleetSeed, id),
                                        anr::uniform_density())
            .positions);
  }
  // Block b plans every scenario once, in a seeded order; scenario s sits
  // at separation index (b + shift[s]) mod 10, so ten blocks cover every
  // (scenario, separation) pair exactly once.
  const std::vector<std::size_t> shift = block_order(seed, 0, 10);
  w.op = [w_configs = w.configs, shift, seed](std::size_t i) {
    const std::size_t b = i / 7;
    const std::size_t s = block_order(seed, b + 1, 7)[i % 7];
    const double sep = 10.0 * static_cast<double>(1 + (b + shift[s]) % 10);
    const PlannerConfig& c = w_configs[s];
    return PlanOp{s, s, offset_at(c.m1, c.m2_shape, sep * c.r_c),
                  "scenario" + std::to_string(s + 1) + "@" + num(sep)};
  };
  w.block = 7;
  w.quality_ops = 70;
  w.min_connectivity = 68.0 / 70.0;
  return w;
}

FieldOfInterest scaled_foi(const FieldOfInterest& foi, double s) {
  const Vec2 c = foi.centroid();
  auto scale = [&](const anr::Polygon& p) {
    std::vector<Vec2> pts;
    for (Vec2 q : p.points()) pts.push_back(c + (q - c) * s);
    return anr::Polygon(std::move(pts));
  };
  std::vector<anr::Polygon> holes;
  for (const anr::Polygon& h : foi.holes()) holes.push_back(scale(h));
  return FieldOfInterest(scale(foi.outer()), std::move(holes));
}

PlanWorkload plan_swarm_4k(std::uint64_t seed) {
  // The scale bench's geometry: scenario 1 scaled so density (and the
  // unit-disk degree at r_c) stays that of 144 robots.
  const int n = 4096;
  const anr::Scenario sc = anr::scenario(1);
  const double s = std::sqrt(n / static_cast<double>(sc.num_robots));
  PlannerConfig c{scaled_foi(sc.m1, s), scaled_foi(sc.m2_shape, s),
                  sc.comm_range, PlannerOptions{}};
  c.options.mesher.target_grid_points = n;
  c.options.cvt_samples = 2 * n;
  c.options.max_adjust_steps = 3;

  // Triangular lattice of exactly n robots, each nudged by a seeded
  // jitter of at most a tenth of the spacing (links stay within r_c).
  double h = std::sqrt(2.0 * c.m1.area() / (std::sqrt(3.0) * n));
  std::vector<Vec2> pts = c.m1.lattice_points(h);
  for (int guard = 0; static_cast<int>(pts.size()) < n && guard < 64; ++guard) {
    h *= 0.97;
    pts = c.m1.lattice_points(h);
  }
  pts.resize(n);
  anr::Rng rng(derive_seed(kFleetSeed, 1));
  for (Vec2& p : pts) {
    const double a = rng.uniform(0.0, 2.0 * M_PI);
    const double r = 0.1 * h * std::sqrt(rng.uniform(0.0, 1.0));
    const Vec2 q = p + Vec2{r * std::cos(a), r * std::sin(a)};
    if (c.m1.contains(q)) p = q;
  }

  PlanWorkload w;
  const double half_widths =
      (c.m1.bbox().width() + c.m2_shape.bbox().width()) / 2.0;
  w.op = [c, half_widths, seed](std::size_t i) {
    const std::size_t k = block_order(seed, i / 10 + 1, 10)[i % 10];
    const double gap_cr = 10.0 + 2.0 * k;
    return PlanOp{0, 0,
                  offset_at(c.m1, c.m2_shape, half_widths + gap_cr * c.r_c),
                  "gap" + num(gap_cr)};
  };
  w.configs.push_back(std::move(c));
  w.deployments.push_back(std::move(pts));
  w.block = 10;
  w.quality_ops = 10;
  // One instant costs about 5 ms at 4096 robots.
  w.check_samples = 8;
  return w;
}

PlanWorkload plan_terrain(std::uint64_t seed) {
  // The hardest row of examples/terrain_cost at 144 robots: rolling hills,
  // a mud patch and a keep-out block in the corridor at 12 x r_c.
  const anr::Scenario sc = anr::scenario(1);
  const double rc = sc.comm_range;
  const Vec2 off12 = offset_at(sc.m1, sc.m2_shape, 12.0 * rc);
  const FieldOfInterest m2_world = sc.m2_shape.translated(off12);
  anr::BBox box = sc.m1.bbox();
  box.expand(m2_world.bbox().lo);
  box.expand(m2_world.bbox().hi);
  const Vec2 mid = anr::lerp(sc.m1.centroid(), m2_world.centroid(), 0.5);

  PlannerConfig c{sc.m1, sc.m2_shape, rc, PlannerOptions{}};
  c.options.mesher.target_grid_points = 350;
  c.options.cvt_samples = 4000;
  c.options.max_adjust_steps = 5;
  anr::TerrainCostOptions& t = c.options.trajectory.terrain;
  c.options.trajectory.motion = anr::MotionModel::kTerrainGeodesic;
  t.terrain = anr::HeightField::rolling(box, 10, 35.0, 160.0, /*seed=*/99);
  t.slope_weight = 2.5;
  t.uphill_penalty = 0.4;
  t.mud.push_back(anr::MudPatch{{mid.x, mid.y + 2.0 * rc}, 90.0, 3.0});
  t.keep_out.push_back(anr::make_rect({mid.x - rc, mid.y - 0.75 * rc},
                                      {mid.x + rc, mid.y + 0.75 * rc}));

  PlanWorkload w;
  constexpr std::size_t kDeployments = 3;
  for (std::size_t k = 0; k < kDeployments; ++k) {
    w.deployments.push_back(
        anr::optimal_coverage_positions(sc.m1, sc.num_robots,
                                        derive_seed(kFleetSeed, 10 + k),
                                        anr::uniform_density())
            .positions);
  }
  // A block plans each deployment at 11, 12 and 13 x r_c (the keep-out
  // block stays in the corridor), in a seeded order.
  w.op = [c, seed](std::size_t i) {
    const std::size_t k = block_order(seed, i / 9 + 1, 9)[i % 9];
    const double sep = 11.0 + static_cast<double>(k % 3);
    return PlanOp{0, k / 3, offset_at(c.m1, c.m2_shape, sep * c.r_c),
                  "swarm" + std::to_string(k / 3) + "@" + num(sep)};
  };
  w.configs.push_back(std::move(c));
  w.block = 9;
  w.quality_ops = 9;
  return w;
}

PlanWorkload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "plan_paper") return plan_paper(seed);
  if (name == "plan_swarm_4k") return plan_swarm_4k(seed);
  return plan_terrain(seed);
}

}  // namespace

bool is_plan_workload(const std::string& name) {
  return name == "plan_paper" || name == "plan_swarm_4k" ||
         name == "plan_terrain";
}

void run_plan_workload(const RunArgs& args, Report& report,
                       std::string& layout) {
  anr::set_arena_threads(kArenaThreads);
  layout = "1 closed-loop caller, " + std::to_string(kArenaThreads) +
           " arena threads";
  const PlanWorkload w = make_workload(args.workload, args.seed);

  // Set-up: every planner construction (M2 meshing, harmonic map, CVT
  // sampling; terrain fields are rasterized per plan). A first round
  // before the ops, then one round off the clock every kSetupEvery
  // measured seconds, each rebuilding the planners the ops use.
  std::vector<std::unique_ptr<anr::MarchPlanner>> planners;
  SetupTimer setup([&] {
    planners.clear();
    for (const PlannerConfig& c : w.configs) {
      planners.push_back(std::make_unique<anr::MarchPlanner>(
          c.m1, c.m2_shape, c.r_c, c.options));
    }
  });
  setup.round(/*min_reps=*/1, /*min_seconds=*/1.0);
  double next_setup = kSetupEvery;

  // With tracing on, even ops run observed and odd ops unobserved, so
  // both halves see the same inputs and trace.overhead_ratio compares
  // like with like.
  anr::obs::Registry registry;
  // Op timings, normalized once the gauge has samples on both sides.
  struct Timed {
    HostGauge::Clock::time_point start;
    double seconds;
    bool observed;
  };
  std::vector<Timed> timed;
  HostGauge gauge;
  std::vector<double> encode_s, decode_s, plan_bytes;
  QualityTally quality;
  PlanCounters counters;
  double measured = 0.0;
  std::string split_ops;
  for (std::size_t i = 0;; ++i) {
    if (measured >= args.seconds && i >= kMinOps && i >= w.quality_ops &&
        i % w.block == 0) {
      break;
    }
    if (measured >= next_setup) {
      setup.round(/*min_reps=*/1, /*min_seconds=*/0.25);
      next_setup += kSetupEvery;
    }
    const PlanOp op = w.op(i);
    anr::MarchPlanner& planner = *planners[op.planner];
    const std::vector<Vec2>& start = w.deployments[op.deployment];
    const bool observed = args.trace && i % 2 == 0;
    if (args.trace) planner.set_observer(observed ? &registry : nullptr);
    const std::string op_name =
        args.workload + " op " + std::to_string(i) + " (" + op.label + ")";

    ++report.attempted;
    const std::uint64_t violations = report.violations();
    gauge.sample();  // off the clock, right before the op
    MarchPlan plan;
    const HostGauge::Clock::time_point began = HostGauge::Clock::now();
    anr::Stopwatch sw;
    try {
      plan = planner.plan(start, op.offset);
    } catch (const std::exception& e) {
      measured += sw.seconds();
      ++report.failed;
      report.fail(op_name + ": plan() threw: " + e.what());
      continue;
    }
    const double latency = sw.seconds();
    measured += latency;
    timed.push_back({began, latency, observed});

    const PlanQuality q = check_plan(plan, start, planner.comm_range(),
                                     w.check_samples, w.min_connectivity < 1.0,
                                     op_name, report);
    if (i < w.quality_ops) {
      anr::Stopwatch codec;
      const std::string bytes = anr::encode_plan(plan);
      encode_s.push_back(codec.seconds());
      codec.reset();
      const std::optional<MarchPlan> decoded = anr::decode_plan(bytes);
      decode_s.push_back(codec.seconds());
      plan_bytes.push_back(static_cast<double>(bytes.size()));
      if (!decoded || !same_persisted_plan(plan, *decoded)) {
        report.fail(op_name + ": plan does not survive the binary codec");
      }
      quality.add(q, start.size(), bytes);
      counters.add(plan);
      if (!q.connected) split_ops.append(" ").append(op.label);
    }
    if (report.violations() != violations) ++report.failed;
  }
  gauge.sample();  // the last op has a sample after it too
  for (auto& p : planners) p->set_observer(nullptr);
  std::vector<Latency> latencies, traced;
  for (const Timed& t : timed) {
    (t.observed ? traced : latencies)
        .push_back(normalized(gauge, t.start, t.seconds));
  }
  if (!split_ops.empty()) report.note("split plans:" + split_ops);
  if (quality.connectivity_ratio() < w.min_connectivity) {
    report.fail("connectivity ratio " + num(quality.connectivity_ratio()) +
                " below the recorded " + num(w.min_connectivity));
  }

  report.info("plan_digest", quoted(quality.digest_hex()));
  report.info("ops", std::to_string(report.attempted));
  report.info("quality_ops", std::to_string(quality.plans()));
  report.info("measured_s", num(measured));
  report.info("setup_reps", std::to_string(setup.reps()));
  const double setup_s = setup.median_seconds();

  if (!args.trace) {
    add_end_to_end(report, setup_s, latencies, measured, gauge, quality);
    return;
  }
  std::vector<double> traced_s, traced_refs, plain_refs;
  for (const Latency& l : traced) {
    traced_s.push_back(l.seconds);
    traced_refs.push_back(l.refs);
  }
  for (const Latency& l : latencies) plain_refs.push_back(l.refs);
  add_plan_layers(report, StageTotals::read(registry), counters,
                  mean(traced_s));
  add_setup_layers(report, w.configs, setup_s);
  report.add("net.is_connected_s",
             time_is_connected(w.deployments[0], w.configs[0].r_c), "s");
  if (w.configs[0].options.trajectory.motion ==
      anr::MotionModel::kTerrainGeodesic) {
    add_terrain_calls(report, w.configs[0], w.deployments[0], w.op(0).offset);
  }
  report.add("io.encode_plan_s", mean(encode_s), "s");
  report.add("io.decode_plan_s", mean(decode_s), "s");
  report.add("io.plan_bytes", mean(plan_bytes), "bytes");
  report.add("trace.overhead_ratio", median(traced_refs) / median(plain_refs),
             "ratio");
}

}  // namespace perfbench
