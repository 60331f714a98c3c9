// Per-layer probes for the traced run: registry reads around the plan
// stages, MarchPlan counters, and direct timed calls into layer entry
// points (mesh_foi, harmonic_disk_map, GridCvt, is_connected, fast_march,
// extract_geodesic). Nothing here runs with tracing off.
#include <algorithm>

#include "common/check.h"
#include "common/stopwatch.h"
#include "perfbench.h"

namespace perfbench {

namespace {

double stage_seconds(anr::obs::Registry& registry, const char* stage) {
  return registry.histogram("anr_plan_stage_seconds", {{"stage", stage}})
      ->sum();
}

// An is_connected call is microseconds at 144 robots, so time a batch.
constexpr double kMinCallSeconds = 0.2;

}  // namespace

StageTotals StageTotals::read(anr::obs::Registry& registry) {
  StageTotals t;
  t.extraction = stage_seconds(registry, "extraction");
  t.harmonic = stage_seconds(registry, "harmonic_map");
  t.rotation = stage_seconds(registry, "rotation_search");
  t.interpolation = stage_seconds(registry, "interpolation");
  t.adjustment = stage_seconds(registry, "adjustment");
  t.routing = stage_seconds(registry, "terrain_routing");
  t.plans = static_cast<double>(registry.counter("anr_plans_total")->value());
  t.multigrid = static_cast<double>(
      registry.counter("anr_harmonic_multigrid_total")->value());
  return t;
}

StageTotals StageTotals::minus(const StageTotals& b) const {
  return {extraction - b.extraction, harmonic - b.harmonic,
          rotation - b.rotation,     interpolation - b.interpolation,
          adjustment - b.adjustment, routing - b.routing,
          plans - b.plans,           multigrid - b.multigrid};
}

double StageTotals::stage_sum() const {
  return extraction + harmonic + rotation + interpolation + adjustment +
         routing;
}

void PlanCounters::add(const MarchPlan& plan) {
  plans += 1.0;
  robots += static_cast<double>(plan.start.size());
  rotation_evals += plan.rotation_evaluations;
  snapped_targets += plan.snapped_targets;
  adjust_steps += plan.adjust_steps;
  fmm_solves += plan.fmm_solves;
  fmm_fallbacks += plan.fmm_fallbacks;
}

void add_plan_layers(Report& report, const StageTotals& stages,
                     const PlanCounters& counters, double plan_wall_per_op) {
  if (stages.plans <= 0.0 || counters.plans <= 0.0) {
    report.fail("traced run observed no plans");
    return;
  }
  const double per = 1.0 / stages.plans;
  report.add("march.extraction_s", stages.extraction * per, "s");
  report.add("harmonic.disk_map_s", stages.harmonic * per, "s");
  report.add("harmonic.multigrid_plans", stages.multigrid * per, "count");
  report.add("harmonic.rotation_search_s", stages.rotation * per, "s");
  report.add("harmonic.interpolation_s", stages.interpolation * per, "s");
  report.add("march.adjustment_s", stages.adjustment * per, "s");
  report.add("terrain.routing_s", stages.routing * per, "s");

  const double cper = 1.0 / counters.plans;
  report.add("harmonic.rotation_evals", counters.rotation_evals * cper,
             "count");
  report.add("march.snapped_targets", counters.snapped_targets * cper,
             "count");
  report.add("march.adjust_steps", counters.adjust_steps * cper, "count");
  report.add("terrain.fmm_solves", counters.fmm_solves * cper, "count");
  report.add("terrain.fmm_fallback_ratio",
             counters.fmm_solves > 0.0
                 ? counters.fmm_fallbacks / counters.robots
                 : 0.0,
             "ratio");

  // The stage spans nest inside the plan() call, so they cannot add up to
  // more than its wall time; the remainder is time no stage span covers.
  const double parts = stages.stage_sum() * per;
  const double unattributed = plan_wall_per_op - parts;
  report.add("march.plan_s", plan_wall_per_op, "s");
  report.add("march.plan_unattributed_s", unattributed, "s");
  report.note("reconcile plan: whole " + num(plan_wall_per_op) +
              " s = stages " + num(parts) + " s + unattributed " +
              num(unattributed) + " s");
  if (parts > plan_wall_per_op * 1.01 + 1e-4) {
    report.fail("plan stage sum " + num(parts) + " s exceeds plan wall " +
                num(plan_wall_per_op) + " s");
  }
}

void add_setup_layers(Report& report, const std::vector<PlannerConfig>& configs,
                      double setup_s) {
  // The whole (every planner construction) and its parts are timed in
  // alternation, so a change in host speed hits both alike; medians over
  // repeats, as for setup_s.
  std::vector<double> wholes, meshes, disks, cvts;
  anr::Stopwatch total;
  while (wholes.size() < 3 || total.seconds() < 1.0) {
    anr::Stopwatch sw;
    for (const PlannerConfig& c : configs) {
      const anr::MarchPlanner planner(c.m1, c.m2_shape, c.r_c, c.options);
    }
    wholes.push_back(sw.seconds());
    double mesh = 0.0, disk = 0.0, cvt = 0.0;
    for (const PlannerConfig& c : configs) {
      sw.reset();
      const anr::FoiMesh m2 = anr::mesh_foi(c.m2_shape, c.options.mesher);
      mesh += sw.seconds();
      const anr::HoleFillResult filled = anr::fill_holes(m2.mesh);
      sw.reset();
      const anr::DiskMap map =
          anr::harmonic_disk_map(filled.mesh, c.options.disk);
      disk += sw.seconds();
      sw.reset();
      const anr::GridCvt grid(c.m2_shape,
                              c.options.density ? c.options.density
                                                : anr::uniform_density(),
                              c.options.cvt_samples);
      cvt += sw.seconds();
      if (!map.converged) report.fail("set-up probe: M2 disk map diverged");
    }
    meshes.push_back(mesh);
    disks.push_back(disk);
    cvts.push_back(cvt);
  }
  const double whole = median(wholes), mesh = median(meshes),
               disk = median(disks), cvt = median(cvts);
  const double parts = mesh + disk + cvt;
  const double unattributed = whole - parts;
  report.add("foi.mesh_foi_s", mesh, "s");
  report.add("harmonic.m2_disk_map_s", disk, "s");
  report.add("coverage.cvt_build_s", cvt, "s");
  report.add("setup.total_s", whole, "s");
  report.add("setup.unattributed_s", unattributed, "s");
  report.note("reconcile setup: whole " + num(whole) + " s = mesh_foi " +
              num(mesh) + " s + m2_disk_map " + num(disk) + " s + cvt_build " +
              num(cvt) + " s + unattributed " + num(unattributed) +
              " s (setup_s " + num(setup_s) + " s)");
  // Medians of separately timed calls; a larger excess means the whole
  // was measured around less than its parts.
  if (parts > whole * 1.25) {
    report.fail("set-up parts " + num(parts) + " s exceed the whole " +
                num(whole) + " s");
  }
}

double time_is_connected(const std::vector<Vec2>& positions, double r_c) {
  int calls = 0, connected = 0;
  anr::Stopwatch sw;
  while (calls < 5 || sw.seconds() < kMinCallSeconds) {
    connected += anr::net::is_connected(positions, r_c) ? 1 : 0;
    ++calls;
  }
  const double per_call = sw.seconds() / calls;
  ANR_CHECK_MSG(connected == calls, "probe deployment is not connected");
  return per_call;
}

void add_terrain_calls(Report& report, const PlannerConfig& config,
                       const std::vector<Vec2>& starts, Vec2 m2_offset) {
  // The router's own domain rule: both FoIs, the offset M1 band, starts.
  anr::BBox domain = config.m1.bbox();
  const anr::BBox m2 = config.m2_shape.bbox();
  domain.expand(m2.lo + m2_offset);
  domain.expand(m2.hi + m2_offset);
  domain.expand(config.m1.bbox().lo + m2_offset);
  domain.expand(config.m1.bbox().hi + m2_offset);
  for (Vec2 p : starts) domain.expand(p);
  const anr::TerrainRouter router(config.options.trajectory, domain,
                                  config.r_c);
  const anr::CostField& field = router.field();

  double march = 0.0, extract = 0.0;
  int calls = 0;
  const std::size_t stride = std::max<std::size_t>(1, starts.size() / 24);
  for (std::size_t r = 0; r < starts.size(); r += stride) {
    anr::Stopwatch sw;
    const anr::FastMarchResult fm = anr::fast_march(field, starts[r]);
    march += sw.seconds();
    sw.reset();
    anr::extract_geodesic(field, fm, starts[r], starts[r] + m2_offset);
    extract += sw.seconds();
    ++calls;
  }
  report.add("terrain.fast_march_s", march / calls, "s");
  report.add("terrain.extract_geodesic_s", extract / calls, "s");
}

}  // namespace perfbench
