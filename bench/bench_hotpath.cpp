// Hot-path micro-benchmarks for the allocation-free planning pass
// (google-benchmark). Tracks the structures the rotation search and the
// connectivity-safe adjustment hammer per plan:
//
//   - GridIndex build + radius queries;
//   - GridCvt::centroids_into, one Lloyd step's Voronoi assignment and
//     centroid sums at the planner's default sampling, on fixed sites
//     (cached candidate lists) and over real Lloyd steps (list rebuilds
//     included);
//   - OverlapInterpolator::map_all at a fixed theta (pure warm-start) and
//     across a theta sweep (the rotation-search access pattern), with and
//     without caller-owned buffers;
//   - the mesh kernels of steps 1-2 on the plan_swarm_4k deployment
//     geometry: Delaunay construction, the whole T extraction (Delaunay,
//     alpha filter, manifold cleanup, compaction) and one TriangleMesh
//     adjacency build;
//   - lattice sampling of an M2 at the CVT and mesher spacings, and a
//     cold build of the seven paper planners;
//   - one full MarchPlanner::plan() with the connectivity-safe adjustment
//     enabled, and one geodesic plan over the plan_terrain cost field.
//
// Baseline workflow: scripts/bench_check.sh runs this with
// --benchmark_format=json and diffs against BENCH_hotpath.json (±25%).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "anr/anr.h"
#include "march/stages.h"

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

constexpr double kRadius = 40.0;

void BM_GridIndexBuild(benchmark::State& state) {
  auto pts = random_points(static_cast<int>(state.range(0)), 7);
  GridIndex index;  // rebuilt in place: steady-state build cost
  for (auto _ : state) {
    index.rebuild(pts, kRadius);
    benchmark::DoNotOptimize(index);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GridIndexBuild)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

void BM_GridIndexRadiusQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto pts = random_points(n, 7);
  GridIndex index(pts, kRadius);
  std::vector<int> hits;
  std::size_t total = 0, qi = 0;
  for (auto _ : state) {
    index.query_radius_into(pts[qi], kRadius, hits);
    total += hits.size();
    qi = (qi + 1) % pts.size();
  }
  state.counters["hits"] = static_cast<double>(total) /
                           static_cast<double>(state.iterations());
}
BENCHMARK(BM_GridIndexRadiusQuery)->Arg(256)->Arg(1024)->Arg(4096);

void BM_UnitDiskAdjacency(benchmark::State& state) {
  auto pts = random_points(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::unit_disk_adjacency(pts, 80.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UnitDiskAdjacency)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

// --- CVT centroids -----------------------------------------------------------
// One adjustment step's centroid pass: scenario 1's M2 at the planner's
// default 24000 samples, Arg = site count (144 is the paper's swarm),
// scratch reused across steps as in the planner. One arena thread: the
// pass is ~1 ms, so waking workers on a shared host would dominate its
// spread; the BM_*Threads benches cover fork-join scaling.

const GridCvt& scenario1_cvt() {
  static const GridCvt grid(scenario(1).m2_shape, uniform_density(),
                            PlannerOptions{}.cvt_samples);
  return grid;
}

std::vector<Vec2> cvt_start(const GridCvt& grid, std::int64_t n) {
  Rng rng(29);
  std::vector<Vec2> sites;
  for (std::int64_t i = 0; i < n; ++i) {
    sites.push_back(grid.foi().sample_point(rng));
  }
  return sites;
}

// The same sites on every call: after the first, every call reuses the
// scratch's cached candidate lists, so this measures the cache-hit path
// only. BM_GridCvtLloydSteps below counts the list rebuilds too.
void BM_GridCvtCentroids(benchmark::State& state) {
  const GridCvt& grid = scenario1_cvt();
  const std::vector<Vec2> sites = cvt_start(grid, state.range(0));
  GridCvt::Scratch scratch;
  std::vector<Vec2> out;
  set_arena_threads(1);
  for (auto _ : state) {
    grid.centroids_into(sites, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
  set_arena_threads(0);
  state.counters["samples"] = static_cast<double>(grid.samples().size());
}
BENCHMARK(BM_GridCvtCentroids)->Arg(144)->Arg(4096);

// Ten real Lloyd steps per iteration from one fixed random start, the
// scratch reused across steps and iterations as in the planner: the
// early steps move the sites far enough to rebuild the candidate lists,
// the later ones reuse them, and each iteration's jump back to the start
// rebuilds them once more.
void BM_GridCvtLloydSteps(benchmark::State& state) {
  constexpr int kSteps = 10;
  const GridCvt& grid = scenario1_cvt();
  const std::vector<Vec2> start = cvt_start(grid, state.range(0));
  GridCvt::Scratch scratch;
  std::vector<Vec2> sites, out;
  set_arena_threads(1);
  for (auto _ : state) {
    sites = start;
    for (int k = 0; k < kSteps; ++k) {
      grid.centroids_into(sites, scratch, out);
      sites.swap(out);
    }
    benchmark::DoNotOptimize(sites.data());
  }
  set_arena_threads(0);
  state.counters["steps"] = kSteps;
}
BENCHMARK(BM_GridCvtLloydSteps)->Arg(144)->Arg(4096)->Unit(benchmark::kMillisecond);

// --- interpolator ----------------------------------------------------------

struct MapAllFixture {
  FieldOfInterest m2;
  HoleFillResult filled;
  DiskMap disk;
  OverlapInterpolator interp;
  std::vector<Vec2> robot_disk;

  static MapAllFixture make() {
    Scenario sc = scenario(1);
    MesherOptions mo;
    mo.target_grid_points = 600;
    FoiMesh mesh = mesh_foi(sc.m2_shape, mo);
    HoleFillResult filled = fill_holes(mesh.mesh);
    DiskMap disk = harmonic_disk_map(filled.mesh);
    OverlapInterpolator interp(filled, disk);
    // Robot disk positions: T's own harmonic image for a realistic spread.
    auto deploy =
        optimal_coverage_positions(sc.m1, 144, 1, uniform_density()).positions;
    auto ext = extract_triangulation(deploy, sc.comm_range);
    HoleFillResult t_filled = fill_holes(ext.mesh);
    DiskMap t_disk = harmonic_disk_map(t_filled.mesh);
    std::vector<Vec2> robot_disk;
    for (std::size_t v = 0; v < ext.mesh.num_vertices(); ++v) {
      robot_disk.push_back(t_disk.disk_pos[v]);
    }
    return MapAllFixture{sc.m2_shape, std::move(filled), std::move(disk),
                         std::move(interp), std::move(robot_disk)};
  }
};

MapAllFixture& map_fixture() {
  static MapAllFixture f = MapAllFixture::make();
  return f;
}

void BM_MapAllFixedTheta(benchmark::State& state) {
  MapAllFixture& f = map_fixture();
  std::vector<int> hints;
  std::vector<MappedTarget> out;
  for (auto _ : state) {
    f.interp.map_all_into(f.robot_disk, 0.37, hints, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["robots"] = static_cast<double>(f.robot_disk.size());
}
BENCHMARK(BM_MapAllFixedTheta);

void BM_MapAllVaryingTheta(benchmark::State& state) {
  // The rotation-search pattern: consecutive probes at nearby angles,
  // hint cache carried across probes.
  MapAllFixture& f = map_fixture();
  std::vector<int> hints;
  std::vector<MappedTarget> out;
  double theta = 0.0;
  for (auto _ : state) {
    theta += 0.02;
    if (theta > 6.28) theta = 0.0;
    f.interp.map_all_into(f.robot_disk, theta, hints, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MapAllVaryingTheta);

void BM_MapAllColdNoHints(benchmark::State& state) {
  // Reference: the pre-optimization pattern (fresh buffers, bucket scan
  // for every robot on every probe).
  MapAllFixture& f = map_fixture();
  double theta = 0.0;
  for (auto _ : state) {
    theta += 0.02;
    if (theta > 6.28) theta = 0.0;
    std::vector<MappedTarget> out;
    out.reserve(f.robot_disk.size());
    for (Vec2 z : f.robot_disk) out.push_back(f.interp.map_point(z.rotated(theta)));
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MapAllColdNoHints);

// --- intra-plan parallelism -------------------------------------------------
// The serial-vs-parallel hot paths behind common/task_arena. Arg = arena
// thread count; results are byte-identical across Args (asserted by
// tests/test_parallel_determinism) so these benches track only latency.
// On a single-core host the >1-thread Args measure scheduling overhead,
// not speedup.

void BM_HarmonicSweepThreads(benchmark::State& state) {
  MapAllFixture& f = map_fixture();
  set_arena_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(harmonic_disk_map(f.filled.mesh));
  }
  set_arena_threads(0);
  state.counters["vertices"] =
      static_cast<double>(f.filled.mesh.num_vertices());
}
BENCHMARK(BM_HarmonicSweepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_MapAllThreads(benchmark::State& state) {
  MapAllFixture& f = map_fixture();
  set_arena_threads(static_cast<int>(state.range(0)));
  std::vector<int> hints;
  std::vector<MappedTarget> out;
  double theta = 0.0;
  for (auto _ : state) {
    theta += 0.02;
    if (theta > 6.28) theta = 0.0;
    f.interp.map_all_into(f.robot_disk, theta, hints, out);
    benchmark::DoNotOptimize(out.data());
  }
  set_arena_threads(0);
}
BENCHMARK(BM_MapAllThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_RotationSearchThreads(benchmark::State& state) {
  // The planner's candidate-evaluation pattern: one batch objective call
  // per probe round, candidates partitioned across workers with
  // per-worker interpolation scratch.
  MapAllFixture& f = map_fixture();
  set_arena_threads(static_cast<int>(state.range(0)));
  struct Slot {
    std::vector<int> hints;
    std::vector<MappedTarget> out;
  };
  RotationBatchObjective batch = [&](const std::vector<double>& thetas,
                                     std::vector<double>& values) {
    values.resize(thetas.size());
    const std::size_t threads =
        static_cast<std::size_t>(std::max(1, arena_threads()));
    const std::size_t grain = (thetas.size() + threads - 1) / threads;
    std::vector<Slot> slots((thetas.size() + grain - 1) / grain);
    parallel_chunks(thetas.size(), grain,
                    [&](std::size_t c, std::size_t b, std::size_t e) {
                      Slot& s = slots[c];
                      for (std::size_t i = b; i < e; ++i) {
                        f.interp.map_all_into(f.robot_disk, thetas[i],
                                              s.hints, s.out);
                        double sum = 0.0;
                        for (const MappedTarget& t : s.out) {
                          sum -= t.world.x * t.world.x +
                                 t.world.y * t.world.y;
                        }
                        values[i] = sum;
                      }
                    });
  };
  RotationSearchOptions opt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(search_rotation(batch, opt));
  }
  set_arena_threads(0);
}
BENCHMARK(BM_RotationSearchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- fast marching ---------------------------------------------------------
// The terrain-routing hot path: one narrow-band sweep to exhaustion per
// robot start, then per-goal gradient-descent extraction. Propagation is
// O(N log N) in cells; the router parallelizes over robots with
// byte-identical fields at any thread count (tests/test_fmm.cpp), so the
// thread bench tracks only latency.

CostField fmm_field(int max_cells) {
  BBox bb;
  bb.expand({0.0, 0.0});
  bb.expand({1000.0, 1000.0});
  CostFieldSpec spec;
  spec.bounds = bb;
  spec.max_cells = max_cells;
  spec.slope_weight = 2.5;
  spec.uphill_penalty = 0.4;
  spec.mud.push_back({{500.0, 620.0}, 90.0, 3.0});
  spec.keep_out.push_back(make_rect({420.0, 430.0}, {580.0, 540.0}));
  return CostField::build(spec,
                          HeightField::rolling(bb, 10, 35.0, 160.0, 99));
}

void BM_FastMarchPropagation(benchmark::State& state) {
  CostField field = fmm_field(static_cast<int>(state.range(0)));
  const Vec2 src{80.0, 80.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast_march(field, src));
  }
  state.counters["cells"] = static_cast<double>(field.cell_count());
  state.SetComplexityN(field.cell_count());
}
BENCHMARK(BM_FastMarchPropagation)->Arg(64)->Arg(128)->Arg(256)->Complexity();

void BM_GeodesicExtraction(benchmark::State& state) {
  CostField field = fmm_field(static_cast<int>(state.range(0)));
  const Vec2 src{80.0, 80.0};
  const Vec2 goal{920.0, 920.0};
  FastMarchResult fm = fast_march(field, src);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_geodesic(field, fm, src, goal));
  }
}
BENCHMARK(BM_GeodesicExtraction)->Arg(64)->Arg(256);

void BM_TerrainRouterSolveThreads(benchmark::State& state) {
  TrajectoryOptions topt;
  topt.motion = MotionModel::kTerrainGeodesic;
  BBox bb;
  bb.expand({0.0, 0.0});
  bb.expand({1000.0, 1000.0});
  topt.terrain.terrain = HeightField::rolling(bb, 10, 35.0, 160.0, 99);
  topt.terrain.slope_weight = 2.5;
  auto starts = random_points(32, 13);
  set_arena_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    TerrainRouter router(topt, bb, 80.0);
    router.solve(starts);
    benchmark::DoNotOptimize(router.stats().solves);
  }
  set_arena_threads(0);
}
BENCHMARK(BM_TerrainRouterSolveThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- mesh kernels (steps 1-2) -----------------------------------------------
// Scenario 1's M1 scaled to hold n lattice robots at the density of its
// 144, each nudged by up to a tenth of the spacing: the plan_swarm_4k
// deployment geometry (own jitter seed).

std::vector<Vec2> jittered_lattice(int n) {
  const Scenario sc = scenario(1);
  const double s = std::sqrt(n / static_cast<double>(sc.num_robots));
  const Vec2 c = sc.m1.centroid();
  std::vector<Vec2> outer;
  for (Vec2 q : sc.m1.outer().points()) outer.push_back(c + (q - c) * s);
  const FieldOfInterest m1{Polygon(std::move(outer))};
  double h = std::sqrt(2.0 * m1.area() / (std::sqrt(3.0) * n));
  std::vector<Vec2> pts = m1.lattice_points(h);
  for (int guard = 0; static_cast<int>(pts.size()) < n && guard < 64; ++guard) {
    h *= 0.97;
    pts = m1.lattice_points(h);
  }
  pts.resize(static_cast<std::size_t>(n));
  Rng rng(41);
  for (Vec2& p : pts) {
    const double a = rng.uniform(0.0, 2.0 * M_PI);
    const double r = 0.1 * h * std::sqrt(rng.uniform(0.0, 1.0));
    const Vec2 q = p + Vec2{r * std::cos(a), r * std::sin(a)};
    if (m1.contains(q)) p = q;
  }
  return pts;
}

void BM_Delaunay(benchmark::State& state) {
  const std::vector<Vec2> pts = jittered_lattice(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(delaunay(pts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Delaunay)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

// Step 1 as the planner runs it, minus the stats: Delaunay, the r_c
// filter, the manifold cleanup and the compaction to the meshed robots.
void BM_ExtractT(benchmark::State& state) {
  const std::vector<Vec2> pts = jittered_lattice(static_cast<int>(state.range(0)));
  const double r_c = scenario(1).comm_range;
  for (auto _ : state) {
    const ExtractionResult ext = extract_triangulation(pts, r_c);
    benchmark::DoNotOptimize(compact_t(ext.mesh));
  }
}
BENCHMARK(BM_ExtractT)->Arg(4096)->Unit(benchmark::kMillisecond);

// One lazy adjacency build of the extracted T (neighbours, vertex and
// edge incidence), after the edit that invalidates it.
void BM_MeshAdjacency(benchmark::State& state) {
  const std::vector<Vec2> pts = jittered_lattice(static_cast<int>(state.range(0)));
  TriangleMesh mesh = extract_triangulation(pts, scenario(1).comm_range).mesh;
  const std::vector<Tri> tris = mesh.triangles();
  for (auto _ : state) {
    mesh.set_triangles(tris);
    mesh.build_adjacency();
    benchmark::DoNotOptimize(mesh.neighbors(0).size());
  }
}
BENCHMARK(BM_MeshAdjacency)->Arg(4096)->Unit(benchmark::kMicrosecond);

// --- planner set-up ----------------------------------------------------------
// FieldOfInterest::lattice_points on scenario 3's M2, the sampler behind
// GridCvt (Arg 0: the CVT spacing of the default 24000 samples, no
// margin) and mesh_foi (Arg 1: the spacing of the default 1200-point
// mesher lattice, kept 0.45 h clear of the boundary).
void BM_LatticePoints(benchmark::State& state) {
  const FieldOfInterest m2 = scenario(3).m2_shape;
  const bool mesher = state.range(0) == 1;
  const int target = mesher ? MesherOptions{}.target_grid_points
                            : PlannerOptions{}.cvt_samples;
  const double h =
      std::sqrt(2.0 * m2.area() / (std::sqrt(3.0) * static_cast<double>(target)));
  const double margin = mesher ? 0.45 * h : 0.0;
  std::size_t points = 0;
  for (auto _ : state) {
    const std::vector<Vec2> pts = m2.lattice_points(h, margin);
    points = pts.size();
    benchmark::DoNotOptimize(pts.data());
  }
  state.counters["points"] = static_cast<double>(points);
}
BENCHMARK(BM_LatticePoints)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// A cold build of the seven paper planners at default options, as a
// planner-cache miss or perfbench's plan_paper set-up builds them: M2's
// mesh, disk map and CVT grid for each scenario.
void BM_PaperPlannerBuilds(benchmark::State& state) {
  const std::vector<Scenario> scenarios = paper_scenarios();
  for (auto _ : state) {
    for (const Scenario& sc : scenarios) {
      const MarchPlanner planner(sc.m1, sc.m2_shape, sc.comm_range,
                                 PlannerOptions{});
      benchmark::DoNotOptimize(&planner);
    }
  }
}
BENCHMARK(BM_PaperPlannerBuilds)->Unit(benchmark::kMillisecond);

// --- full plan -------------------------------------------------------------

void BM_FullPlanWithAdjustment(benchmark::State& state) {
  Scenario sc = scenario(1);
  PlannerOptions opt;
  opt.mesher.target_grid_points = 350;
  opt.cvt_samples = 4000;
  opt.max_adjust_steps = 5;
  MarchPlanner planner(sc.m1, sc.m2_shape, sc.comm_range, opt);
  auto deploy =
      optimal_coverage_positions(sc.m1, 100, 1, uniform_density()).positions;
  Vec2 offset = sc.m1.centroid() + Vec2{12.0 * sc.comm_range, 0.0} -
                sc.m2_shape.centroid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(deploy, offset));
  }
}
BENCHMARK(BM_FullPlanWithAdjustment)->Unit(benchmark::kMillisecond);

// One geodesic plan as perfbench's plan_terrain runs it: 144 robots of
// scenario 1 marched 12 r_c over rolling hills, a mud patch and a
// keep-out block in the corridor, at 2 arena threads. Per-robot fast
// marching, geodesic extraction and the transition guard run only here.
void BM_FullPlanTerrain(benchmark::State& state) {
  const Scenario sc = scenario(1);
  const double rc = sc.comm_range;
  const Vec2 offset =
      sc.m1.centroid() + Vec2{12.0 * rc, 0.0} - sc.m2_shape.centroid();
  const FieldOfInterest m2_world = sc.m2_shape.translated(offset);
  BBox hills = sc.m1.bbox();
  hills.expand(m2_world.bbox().lo);
  hills.expand(m2_world.bbox().hi);
  const Vec2 mid = lerp(sc.m1.centroid(), m2_world.centroid(), 0.5);
  PlannerOptions opt;
  opt.mesher.target_grid_points = 350;
  opt.cvt_samples = 4000;
  opt.max_adjust_steps = 5;
  opt.trajectory.motion = MotionModel::kTerrainGeodesic;
  TerrainCostOptions& t = opt.trajectory.terrain;
  t.terrain = HeightField::rolling(hills, 10, 35.0, 160.0, 99);
  t.slope_weight = 2.5;
  t.uphill_penalty = 0.4;
  t.mud.push_back(MudPatch{{mid.x, mid.y + 2.0 * rc}, 90.0, 3.0});
  t.keep_out.push_back(make_rect({mid.x - rc, mid.y - 0.75 * rc},
                                 {mid.x + rc, mid.y + 0.75 * rc}));
  MarchPlanner planner(sc.m1, sc.m2_shape, rc, opt);
  const auto deploy = optimal_coverage_positions(sc.m1, sc.num_robots, 10,
                                                 uniform_density())
                          .positions;
  set_arena_threads(2);
  int solves = 0;
  for (auto _ : state) {
    const MarchPlan plan = planner.plan(deploy, offset);
    solves = plan.fmm_solves;
    benchmark::DoNotOptimize(plan.trajectories.data());
  }
  set_arena_threads(0);
  state.counters["fmm_solves"] = solves;
}
BENCHMARK(BM_FullPlanTerrain)->Unit(benchmark::kMillisecond);

// --- observability overhead -------------------------------------------------
// The "<2% overhead" contract of src/obs: the same full plan against a
// live Registry (spans + histograms + counters recording) and against a
// NullRegistry (every handle nullptr, one untaken branch per site) must
// track BM_FullPlanWithAdjustment within noise.

void BM_FullPlanLiveRegistry(benchmark::State& state) {
  Scenario sc = scenario(1);
  PlannerOptions opt;
  opt.mesher.target_grid_points = 350;
  opt.cvt_samples = 4000;
  opt.max_adjust_steps = 5;
  MarchPlanner planner(sc.m1, sc.m2_shape, sc.comm_range, opt);
  obs::Registry registry;
  planner.set_observer(&registry);
  auto deploy =
      optimal_coverage_positions(sc.m1, 100, 1, uniform_density()).positions;
  Vec2 offset = sc.m1.centroid() + Vec2{12.0 * sc.comm_range, 0.0} -
                sc.m2_shape.centroid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(deploy, offset));
  }
  state.counters["spans"] =
      static_cast<double>(registry.spans()->total_recorded());
}
BENCHMARK(BM_FullPlanLiveRegistry)->Unit(benchmark::kMillisecond);

void BM_FullPlanNullRegistry(benchmark::State& state) {
  Scenario sc = scenario(1);
  PlannerOptions opt;
  opt.mesher.target_grid_points = 350;
  opt.cvt_samples = 4000;
  opt.max_adjust_steps = 5;
  MarchPlanner planner(sc.m1, sc.m2_shape, sc.comm_range, opt);
  obs::NullRegistry null_registry;
  planner.set_observer(&null_registry);
  auto deploy =
      optimal_coverage_positions(sc.m1, 100, 1, uniform_density()).positions;
  Vec2 offset = sc.m1.centroid() + Vec2{12.0 * sc.comm_range, 0.0} -
                sc.m2_shape.centroid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(deploy, offset));
  }
}
BENCHMARK(BM_FullPlanNullRegistry)->Unit(benchmark::kMillisecond);

void BM_CounterInc(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter* c = registry.counter("bench_counter");
  for (auto _ : state) {
    obs::inc(c);
  }
  benchmark::DoNotOptimize(c->value());
}
BENCHMARK(BM_CounterInc);

void BM_CounterIncNull(benchmark::State& state) {
  obs::NullRegistry registry;
  obs::Counter* c = registry.counter("bench_counter");  // nullptr
  for (auto _ : state) {
    obs::inc(c);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CounterIncNull);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram* h = registry.histogram("bench_hist");
  double v = 1e-6;
  for (auto _ : state) {
    v = v > 1.0 ? 1e-6 : v * 1.01;
    obs::observe(h, v);
  }
  benchmark::DoNotOptimize(h->count());
}
BENCHMARK(BM_HistogramObserve);

}  // namespace

BENCHMARK_MAIN();
