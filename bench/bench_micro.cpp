// Micro-benchmarks and ablations (google-benchmark).
//
// Component costs behind the pipeline (Delaunay, harmonic relaxation,
// Hungarian, grid-CVT) plus the ablations DESIGN.md Sec. 5 calls out:
// uniform vs mean-value harmonic weights, paper's depth-4 rotation search
// vs exhaustive sweep, centralized vs distributed triangulation
// extraction, and the message complexity of flooding aggregation.
#include <benchmark/benchmark.h>

#include "anr/anr.h"

namespace {

using namespace anr;

std::vector<Vec2> random_points(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  return pts;
}

void BM_Delaunay(benchmark::State& state) {
  auto pts = random_points(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(delaunay(pts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Delaunay)->Arg(144)->Arg(512)->Arg(1024)->Arg(2048)->Complexity();

void BM_AlphaExtract(benchmark::State& state) {
  Scenario sc = scenario(1);
  auto deploy = optimal_coverage_positions(sc.m1, sc.num_robots, 1,
                                           uniform_density())
                    .positions;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_triangulation(deploy, sc.comm_range));
  }
}
BENCHMARK(BM_AlphaExtract);

void BM_TriangulationExtractDistributed(benchmark::State& state) {
  Scenario sc = scenario(1);
  auto deploy = optimal_coverage_positions(sc.m1, sc.num_robots, 1,
                                           uniform_density())
                    .positions;
  std::size_t messages = 0;
  for (auto _ : state) {
    auto r = extract_triangulation_distributed(deploy, sc.comm_range);
    messages = r.messages;
    benchmark::DoNotOptimize(r);
  }
  state.counters["messages"] = static_cast<double>(messages);
}
BENCHMARK(BM_TriangulationExtractDistributed);

void BM_HarmonicMap(benchmark::State& state) {
  FieldOfInterest foi(make_circle({0, 0}, 500.0, 64));
  MesherOptions opt;
  opt.target_grid_points = static_cast<int>(state.range(0));
  FoiMesh fm = mesh_foi(foi, opt);
  DiskMapOptions dopt;
  dopt.weights = state.range(1) == 0 ? HarmonicWeights::kUniform
                                     : HarmonicWeights::kMeanValue;
  for (auto _ : state) {
    DiskMap map = harmonic_disk_map(fm.mesh, dopt);
    benchmark::DoNotOptimize(map);
  }
  state.counters["vertices"] = static_cast<double>(fm.mesh.num_vertices());
}
BENCHMARK(BM_HarmonicMap)
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({1500, 0})
    ->Args({1500, 1});

void BM_DistributedHarmonicMap(benchmark::State& state) {
  Scenario sc = scenario(1);
  auto deploy = optimal_coverage_positions(sc.m1, sc.num_robots, 1,
                                           uniform_density())
                    .positions;
  auto ext = extract_triangulation(deploy, sc.comm_range);
  std::size_t messages = 0;
  for (auto _ : state) {
    auto r = distributed_harmonic_disk_map(ext.mesh, 1e-8);
    messages = r.boundary_messages + r.relax_messages;
    benchmark::DoNotOptimize(r);
  }
  state.counters["messages"] = static_cast<double>(messages);
}
BENCHMARK(BM_DistributedHarmonicMap);

void BM_Hungarian(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto from = random_points(n, 3);
  auto to = random_points(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_distance_assignment(from, to));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Hungarian)->Arg(64)->Arg(144)->Arg(256)->Arg(512)->Complexity();

void BM_GridCvtCentroids(benchmark::State& state) {
  FieldOfInterest foi(make_circle({0, 0}, 500.0, 64));
  GridCvt grid(foi, uniform_density(), static_cast<int>(state.range(0)));
  Rng rng(5);
  std::vector<Vec2> sites;
  for (int i = 0; i < 144; ++i) sites.push_back(foi.sample_point(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.centroids(sites));
  }
}
BENCHMARK(BM_GridCvtCentroids)->Arg(10000)->Arg(30000);

void BM_RotationSearch(benchmark::State& state) {
  // Full objective evaluation cost through the real interpolator.
  Scenario sc = scenario(3);
  auto deploy = optimal_coverage_positions(sc.m1, sc.num_robots, 1,
                                           uniform_density())
                    .positions;
  PlannerOptions opt;
  opt.exhaustive_rotation = state.range(0) == 1;
  MarchPlanner planner(sc.m1, sc.m2_shape, sc.comm_range, opt);
  Vec2 off = sc.m1.centroid() + Vec2{20.0 * sc.comm_range, 0.0} -
             sc.m2_shape.centroid();
  double objective = 0.0;
  int evals = 0;
  for (auto _ : state) {
    MarchPlan plan = planner.plan(deploy, off);
    objective = plan.rotation_objective;
    evals = plan.rotation_evaluations;
    benchmark::DoNotOptimize(plan);
  }
  state.counters["objective_L"] = objective;
  state.counters["evals"] = evals;
}
// Ablation: the paper's depth-4 search (arg 0) leaves some L on the table
// vs a 360-probe sweep (arg 1); compare the objective_L counters.
BENCHMARK(BM_RotationSearch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FloodSum(benchmark::State& state) {
  Scenario sc = scenario(1);
  auto deploy = optimal_coverage_positions(sc.m1, sc.num_robots, 1,
                                           uniform_density())
                    .positions;
  std::vector<double> values(deploy.size(), 1.0);
  std::size_t messages = 0;
  for (auto _ : state) {
    net::Network network(deploy, sc.comm_range);
    auto r = net::run_flood_sum(network, values);
    messages = r.messages;
    benchmark::DoNotOptimize(r);
  }
  state.counters["messages"] = static_cast<double>(messages);
}
BENCHMARK(BM_FloodSum);

void BM_GossipVsFlood(benchmark::State& state) {
  // Message-cost comparison: arg 0 = one gossip round, arg 1 = full flood.
  Scenario sc = scenario(1);
  auto deploy = optimal_coverage_positions(sc.m1, sc.num_robots, 1,
                                           uniform_density())
                    .positions;
  std::vector<double> values(deploy.size(), 1.0);
  std::size_t messages = 0;
  for (auto _ : state) {
    net::Network network(deploy, sc.comm_range);
    if (state.range(0) == 0) {
      auto r = net::run_gossip_mean(network, values, 1);
      messages = r.messages;
      benchmark::DoNotOptimize(r);
    } else {
      auto r = net::run_flood_sum(network, values);
      messages = r.messages;
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["messages"] = static_cast<double>(messages);
}
BENCHMARK(BM_GossipVsFlood)->Arg(0)->Arg(1);

void BM_ArticulationPoints(benchmark::State& state) {
  Scenario sc = scenario(1);
  auto deploy = optimal_coverage_positions(sc.m1, sc.num_robots, 1,
                                           uniform_density())
                    .positions;
  auto adj = net::unit_disk_adjacency(deploy, sc.comm_range);
  int count = 0;
  for (auto _ : state) {
    auto aps = net::articulation_points(adj);
    count = static_cast<int>(aps.size());
    benchmark::DoNotOptimize(aps);
  }
  state.counters["cut_vertices"] = count;
}
BENCHMARK(BM_ArticulationPoints);

void BM_TransitionSimulation(benchmark::State& state) {
  Scenario sc = scenario(1);
  auto deploy = optimal_coverage_positions(sc.m1, sc.num_robots, 1,
                                           uniform_density())
                    .positions;
  MarchPlanner planner(sc.m1, sc.m2_shape, sc.comm_range);
  Vec2 off = sc.m1.centroid() + Vec2{20.0 * sc.comm_range, 0.0} -
             sc.m2_shape.centroid();
  MarchPlan plan = planner.plan(deploy, off);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_transition(
        plan.trajectories, sc.comm_range, plan.transition_end,
        static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_TransitionSimulation)->Arg(60)->Arg(240);

}  // namespace

BENCHMARK_MAIN();
