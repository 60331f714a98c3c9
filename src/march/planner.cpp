#include "march/planner.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "baselines/hungarian_march.h"
#include "common/check.h"
#include "harmonic/disk_map.h"
#include "harmonic/distributed_disk_map.h"
#include "march/distributed_rotation.h"
#include "march/metrics.h"
#include "march/triangulation_extract.h"
#include "mesh/hole_fill.h"
#include "net/connectivity.h"
#include "net/incremental_connectivity.h"
#include "net/unit_disk_graph.h"

namespace anr {

struct PlanContext {
  PlanContext(const std::vector<Vec2>& p, Vec2 offset)
      : positions(p), m2_offset(offset) {}

  const std::vector<Vec2>& positions;
  const Vec2 m2_offset;
  std::vector<std::vector<int>> adjacency;  ///< M1 unit-disk graph
  std::vector<std::pair<int, int>> links;   ///< M1 links
  std::unique_ptr<TerrainRouter> router;    ///< kTerrainGeodesic only
  bool terrain_active = false;              ///< router over a non-uniform field
  int prior_fmm_solves = 0;  ///< solves of a router replaced by regrowth
  CompactT t;
  DiskMap t_disk;
  std::optional<TargetMapper> mapper;
  std::vector<Polygon> obstacles;          ///< FoI holes of the transition
  std::vector<Polygon> guarded_obstacles;  ///< plus keep-out (terrain only)
  MarchPlan plan;
};

namespace {

// Re-spaces the ring robots' targets uniformly by arc length along `rim`,
// keeping their cyclic order, which bounds every gap by perimeter / b.
void respace_ring(const Polygon& rim, const std::vector<int>& ring,
                  std::vector<Vec2>& targets) {
  const std::size_t ring_size = ring.size();
  double perimeter = rim.perimeter();
  // Walk direction: follow the majority orientation of the current
  // mapped ring along the rim.
  double s0 = rim.perimeter_param(targets[static_cast<std::size_t>(ring[0])]);
  double forward_votes = 0.0;
  double prev = s0;
  for (std::size_t i = 1; i < ring_size; ++i) {
    double s = rim.perimeter_param(targets[static_cast<std::size_t>(ring[i])]);
    double delta = std::fmod(s - prev + perimeter, perimeter);
    forward_votes += (delta <= perimeter / 2.0) ? 1.0 : -1.0;
    prev = s;
  }
  double dir = forward_votes >= 0.0 ? 1.0 : -1.0;
  for (std::size_t i = 0; i < ring_size; ++i) {
    double s = s0 + dir * static_cast<double>(i) * perimeter /
                        static_cast<double>(ring_size);
    targets[static_cast<std::size_t>(ring[i])] = rim.point_at_param(s);
  }
}

// Geodesic path-length bound of each robot's route to its target.
void path_bounds_into(const TerrainRouter& router, const std::vector<Vec2>& q,
                      std::vector<double>& lens) {
  lens.resize(q.size());
  for (std::size_t r = 0; r < q.size(); ++r) {
    lens[r] = router.path_length_bound(static_cast<int>(r), q[r]);
  }
}

// True when robot r starts or ends inside a keep-out polygon. Its
// straight chord then detours around the FoI holes only: route_around
// needs both endpoints outside every obstacle.
bool endpoint_in_keep_out(const PlanContext& ctx,
                          const std::vector<Polygon>& keep_out, std::size_t r) {
  for (const Polygon& ko : keep_out) {
    if (ko.contains(ctx.positions[r]) || ko.contains(ctx.plan.mapped_targets[r])) {
      return true;
    }
  }
  return false;
}

}  // namespace

MarchPlanner::MarchPlanner(FieldOfInterest m1, FieldOfInterest m2_shape,
                           double r_c, PlannerOptions options)
    : m1_(std::move(m1)),
      m2_(std::move(m2_shape)),
      r_c_(r_c),
      opt_(std::move(options)) {
  ANR_CHECK(r_c_ > 0.0);
  if (!opt_.density) opt_.density = uniform_density();
  m2_model_ = precompute_m2(m2_, opt_.mesher, opt_.disk, opt_.density,
                            opt_.cvt_samples);
  if (opt_.adjustment == AdjustmentEngine::kLocalVoronoi) {
    local_lloyd_ = std::make_unique<LocalVoronoiLloyd>(m2_, opt_.density, r_c_);
  }
}

void MarchPlanner::set_observer(obs::Registry* registry) {
  ins_ = Instruments{};
  if (registry == nullptr || !registry->enabled()) return;
  ins_.spans = registry->spans();
  auto stage = [&](const char* name) {
    return registry->histogram("anr_plan_stage_seconds", {{"stage", name}},
                               "per-stage planning latency");
  };
  ins_.stage_extraction = stage("extraction");
  ins_.stage_harmonic = stage("harmonic_map");
  ins_.stage_rotation = stage("rotation_search");
  ins_.stage_interpolation = stage("interpolation");
  ins_.stage_adjustment = stage("adjustment");
  ins_.stage_adjust_cvt = stage("adjust_cvt");
  ins_.stage_adjust_connectivity = stage("adjust_connectivity");
  ins_.stage_adjust_append = stage("adjust_append");
  ins_.stage_routing = stage("terrain_routing");
  ins_.stage_transition_guard = stage("transition_guard");
  ins_.plan_seconds =
      registry->histogram("anr_plan_seconds", {}, "end-to-end plan() latency");
  ins_.plans = registry->counter("anr_plans_total", {}, "plans produced");
  ins_.rotation_probes = registry->counter(
      "anr_rotation_probes_total", {}, "rotation-search objective probes");
  ins_.snapped_targets = registry->counter(
      "anr_plan_snapped_targets_total", {},
      "targets snapped off holes / off-mesh landings");
  ins_.repaired_robots = registry->counter(
      "anr_plan_repaired_robots_total", {},
      "robots rerouted by global-connectivity repair");
  ins_.fallback_relaxed = registry->counter(
      "anr_plan_fallbacks_total", {{"mode", "relaxed_extraction"}},
      "plan_robust fallback attempts that produced the plan");
  ins_.fallback_baseline = registry->counter(
      "anr_plan_fallbacks_total", {{"mode", "baseline_fallback"}},
      "plan_robust fallback attempts that produced the plan");
  ins_.plans_degraded = registry->counter(
      "anr_plans_degraded_total", {}, "plans produced by a fallback mode");
  ins_.harmonic_nonconverged = registry->counter(
      "anr_harmonic_nonconverged_total", {},
      "harmonic relaxations that exhausted their sweep budget");
  ins_.harmonic_multigrid = registry->counter(
      "anr_harmonic_multigrid_total", {},
      "harmonic relaxations solved by the multigrid engine");
  ins_.fmm_solves = registry->counter(
      "anr_fmm_solves_total", {}, "per-robot fast-marching ToA solves");
  ins_.fmm_goal_snapped = registry->counter(
      "anr_fmm_goal_snapped_total", {},
      "targets snapped out of keep-out cells");
  auto fmm_fallback = [&](const char* reason) {
    return registry->counter(
        "anr_fmm_fallbacks_total", {{"reason", reason}},
        "geodesic routes degraded to straight-line motion");
  };
  ins_.fmm_fb_blocked_start = fmm_fallback("blocked_start");
  ins_.fmm_fb_unreachable = fmm_fallback("unreachable");
  ins_.fmm_fb_stuck_descent = fmm_fallback("stuck_descent");
  ins_.fmm_fb_out_of_domain = fmm_fallback("out_of_domain");
  ins_.fmm_fb_connectivity = fmm_fallback("connectivity");
  ins_.guard_unresolved = registry->counter(
      "anr_transition_guard_unresolved_total", {},
      "terrain plans still split at a guard sample after every candidate "
      "route was straightened");
}

const char* plan_mode_name(PlanMode mode) {
  switch (mode) {
    case PlanMode::kPrimary:
      return "primary";
    case PlanMode::kRelaxedExtraction:
      return "relaxed_extraction";
    case PlanMode::kBaselineFallback:
      return "baseline_fallback";
  }
  return "unknown";
}

MarchPlan MarchPlanner::plan(const std::vector<Vec2>& positions,
                             Vec2 m2_offset) const {
  return plan_impl(positions, m2_offset, opt_.alpha_scale);
}

MarchPlan MarchPlanner::plan_impl(const std::vector<Vec2>& positions,
                                  Vec2 m2_offset, double alpha_scale) const {
  ANR_CHECK_MSG(positions.size() >= 4, "need at least 4 robots");

  // Whole-pipeline span; the stage spans below nest inside it. Recording
  // only reads clocks and bumps atomics — the plan bytes stay identical
  // with or without an observer.
  obs::Span plan_span(ins_.spans, "plan", ins_.plan_seconds);

  PlanContext ctx(positions, m2_offset);
  ctx.plan.start = positions;
  ctx.plan.m2_stats = m2_model_.stats;
  ctx.plan.transition_end = opt_.transition_time;
  ctx.adjacency = net::unit_disk_adjacency(positions, r_c_);
  ANR_CHECK_MSG(net::is_connected(ctx.adjacency),
                "initial deployment is not connected");
  ctx.links = communication_links(positions, r_c_);

  route_terrain(ctx);
  extract_t(ctx, alpha_scale);
  map_t_to_disk(ctx);
  // Step 3, M2's disk map, is the constructor's precompute.
  ctx.mapper.emplace(*m2_model_.interpolator, positions, ctx.t,
                     ctx.t_disk.disk_pos, ctx.adjacency, m2_offset);
  search_rotation_angle(ctx);
  {
    obs::Span interp_span(ins_.spans, "interpolation",
                          ins_.stage_interpolation);
    interpolate_targets(ctx);
    repair_targets_stage(ctx);
    build_transitions(ctx);
  }
  if (ctx.terrain_active) guard_transition(ctx);
  adjust(ctx);

  obs::inc(ins_.plans);
  return std::move(ctx.plan);
}

// Terrain routing precomputation: one fast-marching ToA solve per robot
// start; rotation probes then read travel times by bilinear sampling
// instead of re-solving. A uniform cost field routes, times, and costs
// exactly like straight-line motion, so the planner bypasses the router
// entirely in that case — uniform-field kTerrainGeodesic plans are
// byte-identical to kStraight plans by construction.
void MarchPlanner::route_terrain(PlanContext& ctx) const {
  if (opt_.trajectory.motion != MotionModel::kTerrainGeodesic) return;
  obs::Span route_span(ins_.spans, "terrain_routing", ins_.stage_routing);
  BBox domain = m1_.bbox();
  const BBox m2_box = m2_.bbox();
  domain.expand(m2_box.lo + ctx.m2_offset);
  domain.expand(m2_box.hi + ctx.m2_offset);
  // Repair parallel-marches may target M1 translated by the full march
  // offset; cover that band so their goals stay inside the field.
  domain.expand(m1_.bbox().lo + ctx.m2_offset);
  domain.expand(m1_.bbox().hi + ctx.m2_offset);
  for (Vec2 p : ctx.positions) domain.expand(p);
  ctx.router = std::make_unique<TerrainRouter>(opt_.trajectory, domain, r_c_);
  ctx.router->solve(ctx.positions);
  ctx.terrain_active = !ctx.router->uniform();
}

// Step 1: triangulation T, compacted to the robots it meshes.
void MarchPlanner::extract_t(PlanContext& ctx, double alpha_scale) const {
  obs::Span ext_span(ins_.spans, "extraction", ins_.stage_extraction);
  const double r_ext = r_c_ * alpha_scale;
  ExtractionResult ext =
      opt_.extraction == ExtractionMode::kGabriel
          ? extract_triangulation_gabriel(ctx.positions, r_ext)
          : (opt_.distributed
                 ? extract_triangulation_distributed(ctx.positions, r_ext)
                 : extract_triangulation(ctx.positions, r_ext));
  ctx.plan.protocol_messages += ext.messages;
  ctx.plan.unmeshed_robots = static_cast<int>(ext.unmeshed.size());
  ctx.plan.t_stats = mesh_stats(ext.mesh);
  ctx.t = compact_t(ext.mesh);
}

// Step 2: harmonic map of T (holes filled when M1 had holes).
void MarchPlanner::map_t_to_disk(PlanContext& ctx) const {
  obs::Span harm_span(ins_.spans, "harmonic_map", ins_.stage_harmonic);
  HoleFillResult t_filled = fill_holes(ctx.t.mesh);
  if (opt_.distributed) {
    DistributedDiskMap dmap = distributed_harmonic_disk_map(t_filled.mesh);
    ctx.plan.protocol_messages += dmap.boundary_messages + dmap.relax_messages;
    ctx.t_disk = std::move(dmap.map);
  } else {
    ctx.t_disk = harmonic_disk_map(t_filled.mesh, opt_.disk);
  }
  if (ctx.t_disk.used_multigrid) obs::inc(ins_.harmonic_multigrid);
  if (!ctx.t_disk.converged) {
    // Surface the typed status instead of silently planning from a
    // half-relaxed map (the centralized path used to do exactly that);
    // plan_robust treats the throw as a degradation trigger.
    obs::inc(ins_.harmonic_nonconverged);
    ANR_CHECK_MSG(false, ctx.t_disk.status.to_string());
  }
}

// Step 4: rotation search over the overlapped disks.
void MarchPlanner::search_rotation_angle(PlanContext& ctx) const {
  const std::size_t n = ctx.positions.size();
  const std::vector<Vec2>& positions = ctx.positions;
  const TerrainRouter* router = ctx.router.get();
  const bool terrain_active = ctx.terrain_active;

  // Distance-normalization scale for the stable-links tie-breaker below.
  // Chosen so that the across-theta *variation* of the displacement term
  // (at most ~n * FoI diameter) stays far below one preserved link
  // (1 / |links|).
  double diag = std::max(m1_.bbox().width() + m1_.bbox().height(), 1.0) *
                static_cast<double>(n) * 1e4;

  // Under terrain routing, method (a) predicts link survival from the
  // geodesic path-length bounds (curved paths deviate from the chord) and
  // method (b) / the tie-breaker minimize cost-metric travel time instead
  // of Euclidean displacement, so the rotation search optimizes L and D
  // under realistic motion.
  auto motion_cost = [&](const std::vector<Vec2>& q) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += router->travel_time(static_cast<int>(r), q[r]);
    }
    return total;
  };
  auto objective_value = [&](const std::vector<Vec2>& q,
                             std::vector<double>& lens) {
    if (opt_.objective == MarchObjective::kMaxStableLinks) {
      // The link ratio is quantized (k / |links|), so plateaus are common
      // and the interval search would pick among ties arbitrarily. Break
      // ties toward less displacement — too small to ever outvote a
      // single preserved link.
      double ratio;
      if (terrain_active) {
        path_bounds_into(*router, q, lens);
        ratio = predicted_stable_link_ratio_bounded(positions, q, lens,
                                                    ctx.links, r_c_);
      } else {
        ratio = predicted_stable_link_ratio(positions, q, ctx.links, r_c_);
      }
      const double disp = terrain_active ? motion_cost(q)
                                         : total_displacement(positions, q);
      return ratio - disp / diag;
    }
    return -(terrain_active ? motion_cost(q)
                            : total_displacement(positions, q));
  };

  obs::Span rot_span(ins_.spans, "rotation_search", ins_.stage_rotation);
  RotationSearchResult rot;
  if (opt_.exhaustive_rotation) {
    rot = sweep_rotation(batch_rotation_objective(*ctx.mapper, objective_value));
  } else if (opt_.distributed) {
    // Faithful protocol: per-probe 1-hop exchange + network flood.
    DistributedRotationResult dr = distributed_rotation_search(
        [&](double theta) {
          MapScratch s;
          ctx.mapper->map_into(theta, s);
          return s.q;
        },
        positions, r_c_, opt_.objective, opt_.rotation);
    ctx.plan.protocol_messages += dr.messages;
    rot.angle = dr.angle;
    rot.evaluations = dr.evaluations;
    // Method (a) floods preserved-link counts; normalize to the ratio the
    // centralized path reports.
    rot.value = opt_.objective == MarchObjective::kMaxStableLinks &&
                        !ctx.links.empty()
                    ? dr.value / static_cast<double>(ctx.links.size())
                    : dr.value;
  } else {
    rot = search_rotation(batch_rotation_objective(*ctx.mapper, objective_value),
                          opt_.rotation);
  }
  ctx.plan.rotation_angle = rot.angle;
  ctx.plan.rotation_objective = rot.value;
  ctx.plan.rotation_evaluations = rot.evaluations;
  rot_span.finish();
  if (rot.evaluations > 0) {
    obs::inc(ins_.rotation_probes, static_cast<std::uint64_t>(rot.evaluations));
  }
}

// Step 5: targets at the chosen rotation.
void MarchPlanner::interpolate_targets(PlanContext& ctx) const {
  MapScratch final_map;
  ctx.plan.snapped_targets =
      ctx.mapper->map_into(ctx.plan.rotation_angle, final_map);
  ctx.plan.mapped_targets = std::move(final_map.q);
  obs::inc(ins_.snapped_targets,
           static_cast<std::uint64_t>(ctx.plan.snapped_targets));

  // Boundary-ring check-and-require (Sec. III-D-1): consecutive boundary
  // robots must stay within range at their destinations for the rim to
  // stay a connected chain. On strongly stretched M2 shapes the harmonic
  // map can leave a gap wider than r_c; in that case re-space the ring
  // along M2's outer boundary.
  const std::vector<int>& ring = ctx.t.ring;
  std::vector<Vec2>& targets = ctx.plan.mapped_targets;
  ctx.plan.max_boundary_gap = ring_gap(ring, targets);
  if (ctx.plan.max_boundary_gap > r_c_ && ring.size() >= 3) {
    respace_ring(m2_.outer().translated(ctx.m2_offset), ring, targets);
    ctx.plan.max_boundary_gap = ring_gap(ring, targets);
  }
}

// Step 6: global-connectivity repair, then the terrain router's field is
// grown to cover the repaired targets and keep-out landings are snapped.
void MarchPlanner::repair_targets_stage(PlanContext& ctx) const {
  const std::size_t n = ctx.positions.size();
  MarchPlan& plan = ctx.plan;
  std::vector<Vec2>& targets = plan.mapped_targets;
  RepairReport rep = repair_targets(ctx.positions, targets, ctx.adjacency,
                                    ctx.t.is_boundary, r_c_);
  plan.repaired_robots = rep.repaired;
  plan.repaired_subgroups = rep.subgroups;
  obs::inc(ins_.repaired_robots,
           static_cast<std::uint64_t>(plan.repaired_robots));

  // Repair parallel-marches can sling targets past every box the router's
  // domain was built from. Rather than degrading those robots to straight
  // chords (which would bypass keep-out enforcement), grow the field to
  // cover all final targets and re-solve — rare, and one extra solve pass.
  if (ctx.terrain_active) {
    bool out_of_field = false;
    for (std::size_t r = 0; r < n && !out_of_field; ++r) {
      out_of_field = !ctx.router->field().contains(targets[r]);
    }
    if (out_of_field) {
      obs::Span regrow_span(ins_.spans, "terrain_routing", ins_.stage_routing);
      ctx.prior_fmm_solves = ctx.router->stats().solves;
      BBox grown = ctx.router->field().bounds();
      for (Vec2 g : targets) grown.expand(g);
      ctx.router = std::make_unique<TerrainRouter>(opt_.trajectory, grown, r_c_);
      ctx.router->solve(ctx.positions);
    }
  }

  // Keep-out enforcement: no robot may be *sent* into a blocked cell.
  // Repair / ring re-spacing can land targets there; snap each to the
  // nearest unblocked cell center (deterministic ring scan).
  if (ctx.terrain_active && ctx.router->field().has_blocked()) {
    for (std::size_t r = 0; r < n; ++r) {
      bool snapped = false;
      targets[r] = ctx.router->unblocked_target(targets[r], &snapped);
      if (snapped) ++plan.fmm_goal_snapped;
    }
    if (plan.fmm_goal_snapped > 0) {
      plan.max_boundary_gap = ring_gap(ctx.t.ring, targets);
    }
  }

  if (ctx.terrain_active) {
    std::vector<double> lens;
    path_bounds_into(*ctx.router, targets, lens);
    plan.predicted_link_ratio = predicted_stable_link_ratio_bounded(
        ctx.positions, targets, lens, ctx.links, r_c_);
  } else {
    plan.predicted_link_ratio =
        predicted_stable_link_ratio(ctx.positions, targets, ctx.links, r_c_);
  }
}

// Step 7: transition trajectories (Eqn. 2 with hole detours), along the
// cost-metric geodesics under terrain routing.
void MarchPlanner::build_transitions(PlanContext& ctx) const {
  const std::vector<Vec2>& positions = ctx.positions;
  const std::vector<Vec2>& targets = ctx.plan.mapped_targets;
  MarchPlan& plan = ctx.plan;
  ctx.obstacles = transition_obstacles(m1_, m2_, ctx.m2_offset);
  if (!ctx.terrain_active) {
    plan.trajectories = straight_transitions(positions, targets,
                                             opt_.transition_time,
                                             ctx.obstacles);
    return;
  }
  // Keep-out polygons join the obstacle set of straight chords (fallbacks
  // and connectivity straightenings), so a degraded route does not cut
  // through the region the geodesics were avoiding.
  const std::vector<Polygon>& keep_out = opt_.trajectory.terrain.keep_out;
  ctx.guarded_obstacles = ctx.obstacles;
  for (const Polygon& ko : keep_out) ctx.guarded_obstacles.push_back(ko);
  // Geodesic waypoints in the cost metric, extracted in parallel over
  // robots; each leg still honors the FoI hole detours. Unroutable robots
  // fall back to the straight segment (typed, counted below) detoured
  // around keep-out.
  const std::vector<TerrainRoute> routes = ctx.router->route_all(targets);
  plan.trajectories.reserve(positions.size());
  for (std::size_t r = 0; r < positions.size(); ++r) {
    const TerrainRoute& rt = routes[r];
    if (rt.geodesic) {
      plan.trajectories.push_back(make_timed_path_via(
          rt.points, 0.0, opt_.transition_time, ctx.obstacles));
    } else {
      plan.trajectories.push_back(make_timed_path(
          positions[r], targets[r], 0.0, opt_.transition_time,
          endpoint_in_keep_out(ctx, keep_out, r) ? ctx.obstacles
                                                 : ctx.guarded_obstacles));
    }
  }
  const RouterStats& rs = ctx.router->stats();
  plan.fmm_solves = ctx.prior_fmm_solves + rs.solves;
  plan.fmm_fallbacks = rs.fallbacks;
  obs::inc(ins_.fmm_solves, static_cast<std::uint64_t>(rs.solves));
  obs::inc(ins_.fmm_goal_snapped,
           static_cast<std::uint64_t>(plan.fmm_goal_snapped));
  obs::inc(ins_.fmm_fb_blocked_start,
           static_cast<std::uint64_t>(rs.fb_blocked_start));
  obs::inc(ins_.fmm_fb_unreachable,
           static_cast<std::uint64_t>(rs.fb_unreachable));
  obs::inc(ins_.fmm_fb_stuck_descent,
           static_cast<std::uint64_t>(rs.fb_stuck_descent));
  obs::inc(ins_.fmm_fb_out_of_domain,
           static_cast<std::uint64_t>(rs.fb_out_of_domain));
}

// Transition connectivity guard (C = 1, Def. 2) for terrain plans.
// Synchronized straight motion inherits the paper's connectivity
// argument; independently curved geodesics can diverge mid-flight and
// split marginal links. Sample the transition densely and straighten the
// worst-deviating routes — skipping robots whose straight chord would
// cross a keep-out cell — until the sampled march stays connected. Each
// straightening is a typed degradation, tallied with the other fmm
// fallbacks. One incremental checker serves every sample of every pass:
// consecutive instants are 1/256 of the march apart, so its spanning-tree
// certificate usually answers without rebuilding the adjacency.
void MarchPlanner::guard_transition(PlanContext& ctx) const {
  obs::Span guard_span(ins_.spans, "transition_guard",
                       ins_.stage_transition_guard);
  const std::size_t n = ctx.positions.size();
  const std::vector<Vec2>& positions = ctx.positions;
  const std::vector<Vec2>& targets = ctx.plan.mapped_targets;
  const std::vector<Polygon>& keep_out = opt_.trajectory.terrain.keep_out;
  MarchPlan& plan = ctx.plan;
  const int kGuardSamples = 257;
  std::vector<Vec2> guard_pos(n);
  net::IncrementalConnectivity guard_connectivity(r_c_);
  auto first_disconnect = [&]() {
    for (int k = 0; k < kGuardSamples; ++k) {
      const double tk =
          opt_.transition_time * k / static_cast<double>(kGuardSamples - 1);
      for (std::size_t r = 0; r < n; ++r) {
        guard_pos[r] = plan.trajectories[r].position(tk);
      }
      if (!guard_connectivity.check(guard_pos)) return k;
    }
    return -1;
  };
  // Deviation of each routed polyline from its chord: the robots that
  // bend the most are the likeliest link-breakers, so they straighten
  // first (deterministic order: deviation desc, then index). Robots
  // whose chord crosses keep-out straighten to the chord with a
  // route_around detour hugging the polygon boundary — the most
  // neighbor-coherent path that still honors the region. Only robots
  // with an endpoint inside a keep-out polygon are pinned to their
  // geodesic (a plain chord would cut through the region).
  std::vector<std::pair<double, std::size_t>> by_deviation;
  for (std::size_t r = 0; r < n; ++r) {
    if (endpoint_in_keep_out(ctx, keep_out, r)) continue;
    const Segment chord{positions[r], targets[r]};
    double dev = 0.0;
    for (Vec2 w : plan.trajectories[r].waypoints()) {
      dev = std::max(dev, distance(w, lerp(chord.a, chord.b,
                                           closest_point_param(chord, w))));
    }
    if (dev > 1e-9) by_deviation.emplace_back(-dev, r);
  }
  std::sort(by_deviation.begin(), by_deviation.end());
  std::size_t next = 0;
  const std::size_t batch = std::max<std::size_t>(1, n / 16);
  int straightened = 0;
  bool split = first_disconnect() >= 0;
  while (split && next < by_deviation.size()) {
    for (std::size_t b = 0; b < batch && next < by_deviation.size();
         ++b, ++next) {
      const std::size_t r = by_deviation[next].second;
      plan.trajectories[r] = make_timed_path(
          positions[r], targets[r], 0.0, opt_.transition_time,
          endpoint_in_keep_out(ctx, keep_out, r) ? ctx.obstacles
                                                 : ctx.guarded_obstacles);
      ++straightened;
    }
    split = first_disconnect() >= 0;
  }
  plan.fmm_fallbacks += straightened;
  obs::inc(ins_.fmm_fb_connectivity, static_cast<std::uint64_t>(straightened));
  // Every candidate straightened and a sample is still split: the plan
  // ships as it is, but the failed guard is counted, not silent.
  if (split) obs::inc(ins_.guard_unresolved);
}

// Step 8: minor local adjustment, connectivity-safe Lloyd. A trial is
// refused when it would split the network (Sec. III-D-1) or — under
// terrain routing — march a robot through a keep-out cell.
void MarchPlanner::adjust(PlanContext& ctx) const {
  obs::Span adjust_span(ins_.spans, "adjustment", ins_.stage_adjustment);
  const TerrainRouter* blocked_field =
      ctx.terrain_active && ctx.router->field().has_blocked()
          ? ctx.router.get()
          : nullptr;
  // One incremental connectivity checker serves every trial probe (halved
  // retries reuse its spatial index — their bounded displacement rarely
  // changes any link state, and an unchanged edge set skips the BFS
  // outright).
  net::IncrementalConnectivity connectivity(r_c_);
  auto accept = [&](const std::vector<Vec2>& cur,
                    const std::vector<Vec2>& trial) {
    if (blocked_field != nullptr) {
      for (std::size_t r = 0; r < cur.size(); ++r) {
        if (blocked_field->segment_blocked(cur[r], trial[r])) return false;
      }
    }
    return !opt_.safe_adjustment || connectivity.check(trial);
  };
  AdjustStage stage;
  stage.cvt = m2_model_.cvt.get();
  stage.local_lloyd = local_lloyd_.get();
  stage.max_steps = opt_.max_adjust_steps;
  stage.tol = opt_.adjust.tol;
  stage.max_halvings = opt_.safe_adjustment ? 7 : 1;
  stage.cvt_seconds = ins_.stage_adjust_cvt;
  stage.connectivity_seconds = ins_.stage_adjust_connectivity;
  stage.append_seconds = ins_.stage_adjust_append;
  adjust_toward_cvt(stage, m2_, ctx.m2_offset, accept, ctx.plan);
}

PlanOutcome MarchPlanner::plan_robust(const std::vector<Vec2>& positions,
                                      Vec2 m2_offset) const {
  PlanOutcome out;
  if (positions.empty()) {
    out.status = Status::InvalidArgument("no robots to plan for");
    return out;
  }
  for (std::size_t r = 0; r < positions.size(); ++r) {
    if (!std::isfinite(positions[r].x) || !std::isfinite(positions[r].y)) {
      out.status = Status::InvalidArgument(
          "non-finite position for robot " + std::to_string(r));
      return out;
    }
  }
  if (!std::isfinite(m2_offset.x) || !std::isfinite(m2_offset.y)) {
    out.status = Status::InvalidArgument("non-finite m2 offset");
    return out;
  }

  // Widening the extraction radius keeps more Delaunay edges, so sparse
  // but connected deployments that the paper's alpha cut refuses to mesh
  // get a second chance before we give up on the pipeline entirely.
  constexpr double kRelaxedBoost = 1.25;
  auto attempt = [&](PlanMode mode, auto&& make_plan) {
    PlanAttempt a;
    a.mode = mode;
    try {
      MarchPlan plan = make_plan();
      a.succeeded = true;
      out.degradation.attempts.push_back(std::move(a));
      out.degradation.mode = mode;
      out.degradation.degraded = mode != PlanMode::kPrimary;
      if (out.degradation.degraded) {
        obs::inc(ins_.plans_degraded);
        obs::inc(mode == PlanMode::kRelaxedExtraction ? ins_.fallback_relaxed
                                                      : ins_.fallback_baseline);
      }
      out.plan = std::move(plan);
      return true;
    } catch (const std::exception& e) {
      a.error = e.what();
      out.degradation.attempts.push_back(std::move(a));
      return false;
    }
  };

  if (attempt(PlanMode::kPrimary, [&] {
        return plan_impl(positions, m2_offset, opt_.alpha_scale);
      })) {
    return out;
  }
  if (attempt(PlanMode::kRelaxedExtraction, [&] {
        return plan_impl(positions, m2_offset,
                         opt_.alpha_scale * kRelaxedBoost);
      })) {
    return out;
  }
  if (attempt(PlanMode::kBaselineFallback, [&] {
        BaselineOptions base;
        base.transition_time = opt_.transition_time;
        HungarianMarchPlanner hungarian(
            m1_, m2_, r_c_, static_cast<int>(positions.size()), base);
        return hungarian.plan(positions, m2_offset);
      })) {
    return out;
  }

  std::string why = "all planning modes failed:";
  for (const PlanAttempt& a : out.degradation.attempts) {
    why += std::string(" [") + plan_mode_name(a.mode) + ": " + a.error + "]";
  }
  out.degradation.degraded = true;
  out.status = Status::Internal(why);
  return out;
}

}  // namespace anr
