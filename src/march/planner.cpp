#include "march/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <queue>

#include "baselines/hungarian_march.h"
#include "common/check.h"
#include "common/task_arena.h"
#include "harmonic/disk_map.h"
#include "harmonic/distributed_disk_map.h"
#include "march/distributed_rotation.h"
#include "march/metrics.h"
#include "march/triangulation_extract.h"
#include "mesh/boundary.h"
#include "mesh/hole_fill.h"
#include "net/connectivity.h"
#include "net/incremental_connectivity.h"
#include "net/unit_disk_graph.h"

namespace anr {

namespace {

// Time of one adjustment sub-stage summed over the Lloyd steps and
// observed once per plan, like a stage. Inert (no clock read) when the
// histogram is null.
class SubStageClock {
 public:
  explicit SubStageClock(obs::Histogram* hist) : hist_(hist) {}

  /// Adds the time until the end of its scope to the clock.
  class Lap {
   public:
    explicit Lap(SubStageClock& clock) : clock_(clock) {
      if (clock_.hist_ != nullptr) t0_ = std::chrono::steady_clock::now();
    }
    ~Lap() {
      if (clock_.hist_ == nullptr) return;
      clock_.total_s_ += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0_)
                             .count();
    }
    Lap(const Lap&) = delete;
    Lap& operator=(const Lap&) = delete;

   private:
    SubStageClock& clock_;
    std::chrono::steady_clock::time_point t0_{};
  };

  void finish() { obs::observe(hist_, total_s_); }

 private:
  obs::Histogram* hist_;
  double total_s_ = 0.0;
};

// Compacts `mesh` to the vertices referenced by triangles. Returns the
// compact mesh and fills robot_to_compact (-1 for dropped vertices).
TriangleMesh compact_for_mapping(const TriangleMesh& mesh,
                                 std::vector<int>& robot_to_compact) {
  robot_to_compact.assign(mesh.num_vertices(), -1);
  std::vector<Vec2> verts;
  std::vector<Tri> tris;
  for (const Tri& t : mesh.triangles()) {
    Tri nt{};
    for (int k = 0; k < 3; ++k) {
      VertexId v = t[static_cast<std::size_t>(k)];
      int& slot = robot_to_compact[static_cast<std::size_t>(v)];
      if (slot < 0) {
        slot = static_cast<int>(verts.size());
        verts.push_back(mesh.position(v));
      }
      nt[static_cast<std::size_t>(k)] = slot;
    }
    tris.push_back(nt);
  }
  return TriangleMesh(std::move(verts), std::move(tris));
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

  m2_mesh_ = mesh_foi(m2_, opt_.mesher);
  m2_stats_ = mesh_stats(m2_mesh_.mesh);
  HoleFillResult filled = fill_holes(m2_mesh_.mesh);
  DiskMap disk = harmonic_disk_map(filled.mesh, opt_.disk);
  ANR_CHECK_MSG(disk.converged,
                "M2 harmonic map did not converge: " + disk.status.to_string());
  interpolator_ = std::make_unique<OverlapInterpolator>(filled, disk);
  cvt_ = std::make_unique<GridCvt>(m2_, opt_.density, opt_.cvt_samples);
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
  const std::size_t n = positions.size();
  ANR_CHECK_MSG(n >= 4, "need at least 4 robots");

  // Whole-pipeline span; the stage spans below nest inside it. Recording
  // only reads clocks and bumps atomics — the plan bytes stay identical
  // with or without an observer.
  obs::Span plan_span(ins_.spans, "plan", ins_.plan_seconds);

  MarchPlan plan;
  plan.start = positions;
  plan.m2_stats = m2_stats_;
  plan.transition_end = opt_.transition_time;

  auto adjacency = net::unit_disk_adjacency(positions, r_c_);
  ANR_CHECK_MSG(net::is_connected(adjacency),
                "initial deployment is not connected");
  auto links = communication_links(positions, r_c_);

  // --- 0. Terrain routing precomputation (ROADMAP item 3) ----------------
  // One fast-marching ToA solve per robot start; rotation probes then read
  // travel times by bilinear sampling instead of re-solving. A uniform
  // cost field routes, times, and costs exactly like straight-line
  // motion, so the planner bypasses the router entirely in that case —
  // uniform-field kTerrainGeodesic plans are byte-identical to kStraight
  // plans by construction.
  std::unique_ptr<TerrainRouter> router;
  if (opt_.trajectory.motion == MotionModel::kTerrainGeodesic) {
    obs::Span route_span(ins_.spans, "terrain_routing", ins_.stage_routing);
    BBox domain = m1_.bbox();
    const BBox m2_box = m2_.bbox();
    domain.expand(m2_box.lo + m2_offset);
    domain.expand(m2_box.hi + m2_offset);
    // Repair parallel-marches may target M1 translated by the full march
    // offset; cover that band so their goals stay inside the field.
    domain.expand(m1_.bbox().lo + m2_offset);
    domain.expand(m1_.bbox().hi + m2_offset);
    for (Vec2 p : positions) domain.expand(p);
    router = std::make_unique<TerrainRouter>(opt_.trajectory, domain, r_c_);
    router->solve(positions);
    route_span.finish();
  }
  const bool terrain_active = router != nullptr && !router->uniform();

  // --- 1. Triangulation T -------------------------------------------------
  obs::Span ext_span(ins_.spans, "extraction", ins_.stage_extraction);
  const double r_ext = r_c_ * alpha_scale;
  ExtractionResult ext =
      opt_.extraction == ExtractionMode::kGabriel
          ? extract_triangulation_gabriel(positions, r_ext)
          : (opt_.distributed
                 ? extract_triangulation_distributed(positions, r_ext)
                 : extract_triangulation(positions, r_ext));
  plan.protocol_messages += ext.messages;
  plan.unmeshed_robots = static_cast<int>(ext.unmeshed.size());
  plan.t_stats = mesh_stats(ext.mesh);

  std::vector<int> robot_to_compact;
  TriangleMesh t_compact = compact_for_mapping(ext.mesh, robot_to_compact);
  ext_span.finish();

  // --- 2. Harmonic map of T (holes filled when M1 had holes) --------------
  obs::Span harm_span(ins_.spans, "harmonic_map", ins_.stage_harmonic);
  HoleFillResult t_filled = fill_holes(t_compact);
  DiskMap t_disk;
  if (opt_.distributed) {
    DistributedDiskMap dmap = distributed_harmonic_disk_map(t_filled.mesh);
    plan.protocol_messages += dmap.boundary_messages + dmap.relax_messages;
    t_disk = std::move(dmap.map);
  } else {
    t_disk = harmonic_disk_map(t_filled.mesh, opt_.disk);
  }
  if (t_disk.used_multigrid) obs::inc(ins_.harmonic_multigrid);
  if (!t_disk.converged) {
    // Surface the typed status instead of silently planning from a
    // half-relaxed map (the centralized path used to do exactly that);
    // plan_robust treats the throw as a degradation trigger.
    obs::inc(ins_.harmonic_nonconverged);
    ANR_CHECK_MSG(false, t_disk.status.to_string());
  }
  harm_span.finish();

  // Boundary robots: vertices of T's *outer* loop — they land on M2's rim.
  std::vector<char> is_boundary(n, 0);
  std::vector<int> outer_loop_robots;  // loop order, robot indices
  {
    auto loops = boundary_loops(t_compact);
    std::size_t outer = outer_loop_index(t_compact, loops);
    std::vector<char> compact_boundary(t_compact.num_vertices(), 0);
    std::vector<int> compact_to_robot(t_compact.num_vertices(), -1);
    for (std::size_t r = 0; r < n; ++r) {
      if (robot_to_compact[r] >= 0) {
        compact_to_robot[static_cast<std::size_t>(robot_to_compact[r])] =
            static_cast<int>(r);
      }
    }
    for (VertexId v : loops[outer].vertices) {
      compact_boundary[static_cast<std::size_t>(v)] = 1;
      outer_loop_robots.push_back(compact_to_robot[static_cast<std::size_t>(v)]);
    }
    for (std::size_t r = 0; r < n; ++r) {
      int cv = robot_to_compact[r];
      if (cv >= 0 && compact_boundary[static_cast<std::size_t>(cv)]) {
        is_boundary[r] = 1;
      }
    }
  }

  // Unmeshed robots copy the march of their nearest meshed neighbor
  // (BFS over M1 links); precompute that anchor.
  std::vector<int> anchor(n, -1);
  {
    std::queue<int> q;
    for (std::size_t r = 0; r < n; ++r) {
      if (robot_to_compact[r] >= 0) {
        anchor[r] = static_cast<int>(r);
        q.push(static_cast<int>(r));
      }
    }
    ANR_CHECK_MSG(!q.empty(), "triangulation extraction kept no robot");
    while (!q.empty()) {
      int v = q.front();
      q.pop();
      for (int u : adjacency[static_cast<std::size_t>(v)]) {
        if (anchor[static_cast<std::size_t>(u)] < 0) {
          anchor[static_cast<std::size_t>(u)] = anchor[static_cast<std::size_t>(v)];
          q.push(u);
        }
      }
    }
  }

  // --- 3./4. Rotation search over the overlapped disks --------------------
  // Meshed-robot gather: robot r participates in the disk overlay iff it
  // survived extraction; the rest copy their anchor's march afterward.
  std::vector<int> meshed;
  std::vector<Vec2> meshed_disk;
  meshed.reserve(n);
  meshed_disk.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    int cv = robot_to_compact[r];
    if (cv < 0) continue;
    meshed.push_back(static_cast<int>(r));
    meshed_disk.push_back(t_disk.disk_pos[static_cast<std::size_t>(cv)]);
  }

  // Per-evaluation scratch: the mapped/target buffers are reused across
  // rotation probes, and `hints` warm-starts the interpolator's point
  // location (a robot's disk position moves only slightly between probes,
  // so the previous hit triangle is almost always zero or one adjacency
  // step away). Hints affect lookup speed only, never results, so every
  // probe is a pure function of theta.
  struct MapScratch {
    std::vector<int> hints;
    std::vector<MappedTarget> mapped;
    std::vector<Vec2> q;
    std::vector<double> lens;  ///< geodesic path-length bounds per robot
  };
  auto map_targets_into = [&](double theta, int* snapped, MapScratch& s) {
    interpolator_->map_all_into(meshed_disk, theta, s.hints, s.mapped);
    s.q.resize(n);
    int snaps = 0;
    for (std::size_t k = 0; k < meshed.size(); ++k) {
      std::size_t r = static_cast<std::size_t>(meshed[k]);
      s.q[r] = s.mapped[k].world + m2_offset;
      if (s.mapped[k].snapped) ++snaps;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (robot_to_compact[r] >= 0) continue;
      int a = anchor[r];
      ANR_CHECK(a >= 0 && robot_to_compact[static_cast<std::size_t>(a)] >= 0);
      s.q[r] = positions[r] + (s.q[static_cast<std::size_t>(a)] -
                               positions[static_cast<std::size_t>(a)]);
    }
    if (snapped != nullptr) *snapped = snaps;
  };
  auto map_targets = [&](double theta) {
    MapScratch s;
    map_targets_into(theta, nullptr, s);
    return std::move(s.q);
  };

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
  auto path_bounds_into = [&](const std::vector<Vec2>& q,
                              std::vector<double>& lens) {
    lens.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      lens[r] = router->path_length_bound(static_cast<int>(r), q[r]);
    }
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
        path_bounds_into(q, lens);
        ratio =
            predicted_stable_link_ratio_bounded(positions, q, lens, links, r_c_);
      } else {
        ratio = predicted_stable_link_ratio(positions, q, links, r_c_);
      }
      const double disp = terrain_active ? motion_cost(q)
                                         : total_displacement(positions, q);
      return ratio - disp / diag;
    }
    return -(terrain_active ? motion_cost(q)
                            : total_displacement(positions, q));
  };

  // Candidate angles of a probe round evaluate concurrently, each chunk
  // on its own scratch slot. Chunk boundaries here *may* follow the
  // thread count (unlike reduction merges) because values[k] is written
  // independently per candidate and probes are theta-pure — the round's
  // results are byte-identical at any parallelism. The interpolator's own
  // parallel batch nests inside this region and falls back to serial.
  std::vector<MapScratch> slots;
  auto batch_objective = [&](const std::vector<double>& thetas,
                             std::vector<double>& values) {
    values.resize(thetas.size());
    const std::size_t threads = static_cast<std::size_t>(arena_threads());
    const std::size_t grain = (thetas.size() + threads - 1) / threads;
    const std::size_t nchunks = (thetas.size() + grain - 1) / grain;
    if (slots.size() < nchunks) slots.resize(nchunks);
    parallel_chunks(thetas.size(), grain,
                    [&](std::size_t chunk, std::size_t begin,
                        std::size_t end) {
                      MapScratch& s = slots[chunk];
                      for (std::size_t k = begin; k < end; ++k) {
                        map_targets_into(thetas[k], nullptr, s);
                        values[k] = objective_value(s.q, s.lens);
                      }
                    });
  };

  obs::Span rot_span(ins_.spans, "rotation_search", ins_.stage_rotation);
  RotationSearchResult rot;
  if (opt_.exhaustive_rotation) {
    rot = sweep_rotation(RotationBatchObjective(batch_objective));
  } else if (opt_.distributed) {
    // Faithful protocol: per-probe 1-hop exchange + network flood.
    DistributedRotationResult dr = distributed_rotation_search(
        map_targets, positions,
        r_c_, opt_.objective, opt_.rotation);
    plan.protocol_messages += dr.messages;
    rot.angle = dr.angle;
    rot.evaluations = dr.evaluations;
    // Method (a) floods preserved-link counts; normalize to the ratio the
    // centralized path reports.
    rot.value = opt_.objective == MarchObjective::kMaxStableLinks && !links.empty()
                    ? dr.value / static_cast<double>(links.size())
                    : dr.value;
  } else {
    rot = search_rotation(RotationBatchObjective(batch_objective),
                          opt_.rotation);
  }
  plan.rotation_angle = rot.angle;
  plan.rotation_objective = rot.value;
  plan.rotation_evaluations = rot.evaluations;
  rot_span.finish();
  if (rot.evaluations > 0) {
    obs::inc(ins_.rotation_probes, static_cast<std::uint64_t>(rot.evaluations));
  }

  // --- 5. Targets at the chosen rotation ----------------------------------
  obs::Span interp_span(ins_.spans, "interpolation", ins_.stage_interpolation);
  MapScratch final_map;
  map_targets_into(rot.angle, &plan.snapped_targets, final_map);
  std::vector<Vec2> targets = std::move(final_map.q);

  // Boundary-ring check-and-require (Sec. III-D-1): consecutive boundary
  // robots must stay within range at their destinations for the rim to
  // stay a connected chain. On strongly stretched M2 shapes the harmonic
  // map can leave a gap wider than r_c; in that case re-space the ring
  // uniformly by arc length along M2's outer boundary (keeping the
  // robots' cyclic order), which bounds every gap by perimeter/b.
  auto ring_gap = [&](const std::vector<Vec2>& q) {
    double gap = 0.0;
    for (std::size_t i = 0, b = outer_loop_robots.size(); i < b; ++i) {
      int u = outer_loop_robots[i];
      int v = outer_loop_robots[(i + 1) % b];
      gap = std::max(gap, distance(q[static_cast<std::size_t>(u)],
                                   q[static_cast<std::size_t>(v)]));
    }
    return gap;
  };
  plan.max_boundary_gap = ring_gap(targets);
  const std::size_t ring_size = outer_loop_robots.size();
  if (plan.max_boundary_gap > r_c_ && ring_size >= 3) {
    Polygon rim = m2_.outer().translated(m2_offset);
    double perimeter = rim.perimeter();
    // Walk direction: follow the majority orientation of the current
    // mapped ring along the rim.
    double s0 = rim.perimeter_param(
        targets[static_cast<std::size_t>(outer_loop_robots[0])]);
    double forward_votes = 0.0;
    double prev = s0;
    for (std::size_t i = 1; i < ring_size; ++i) {
      double s = rim.perimeter_param(
          targets[static_cast<std::size_t>(outer_loop_robots[i])]);
      double delta = std::fmod(s - prev + perimeter, perimeter);
      forward_votes += (delta <= perimeter / 2.0) ? 1.0 : -1.0;
      prev = s;
    }
    double dir = forward_votes >= 0.0 ? 1.0 : -1.0;
    for (std::size_t i = 0; i < ring_size; ++i) {
      double s = s0 + dir * static_cast<double>(i) * perimeter /
                          static_cast<double>(ring_size);
      targets[static_cast<std::size_t>(outer_loop_robots[i])] =
          rim.point_at_param(s);
    }
    plan.max_boundary_gap = ring_gap(targets);
  }

  // --- 6. Global-connectivity repair --------------------------------------
  RepairReport rep =
      repair_targets(positions, targets, adjacency, is_boundary, r_c_);
  plan.repaired_robots = rep.repaired;
  plan.repaired_subgroups = rep.subgroups;

  // Repair parallel-marches can sling targets past every box the router's
  // domain was built from. Rather than degrading those robots to straight
  // chords (which would bypass keep-out enforcement), grow the field to
  // cover all final targets and re-solve — rare, and one extra solve pass.
  int prior_fmm_solves = 0;
  if (terrain_active) {
    bool out_of_field = false;
    for (std::size_t r = 0; r < n && !out_of_field; ++r) {
      out_of_field = !router->field().contains(targets[r]);
    }
    if (out_of_field) {
      obs::Span regrow_span(ins_.spans, "terrain_routing", ins_.stage_routing);
      prior_fmm_solves = router->stats().solves;
      BBox grown = router->field().bounds();
      for (Vec2 g : targets) grown.expand(g);
      router = std::make_unique<TerrainRouter>(opt_.trajectory, grown, r_c_);
      router->solve(positions);
    }
  }

  // Keep-out enforcement: no robot may be *sent* into a blocked cell.
  // Repair / ring re-spacing can land targets there; snap each to the
  // nearest unblocked cell center (deterministic ring scan).
  if (terrain_active && router->field().has_blocked()) {
    for (std::size_t r = 0; r < n; ++r) {
      bool snapped = false;
      targets[r] = router->unblocked_target(targets[r], &snapped);
      if (snapped) ++plan.fmm_goal_snapped;
    }
    if (plan.fmm_goal_snapped > 0) plan.max_boundary_gap = ring_gap(targets);
  }

  plan.mapped_targets = targets;
  if (terrain_active) {
    std::vector<double> lens;
    path_bounds_into(targets, lens);
    plan.predicted_link_ratio = predicted_stable_link_ratio_bounded(
        positions, targets, lens, links, r_c_);
  } else {
    plan.predicted_link_ratio =
        predicted_stable_link_ratio(positions, targets, links, r_c_);
  }


  // --- 7. Transition trajectories (Eqn. 2 with hole detours) --------------
  std::vector<Polygon> obstacles = m1_.holes();
  for (const Polygon& h : m2_.holes()) {
    obstacles.push_back(h.translated(m2_offset));
  }
  // Keep-out polygons join the obstacle set for straight chords under
  // terrain routing (fallbacks and connectivity straightenings): a
  // degraded route must not cut through the region the geodesics were
  // avoiding. route_around needs both endpoints outside every obstacle,
  // so the augmented set only applies when that holds.
  std::vector<Polygon> guarded_obstacles = obstacles;
  if (terrain_active) {
    for (const Polygon& ko : opt_.trajectory.terrain.keep_out) {
      guarded_obstacles.push_back(ko);
    }
  }
  auto chord_obstacles = [&](Vec2 a, Vec2 b) -> const std::vector<Polygon>& {
    for (const Polygon& ko : opt_.trajectory.terrain.keep_out) {
      if (ko.contains(a) || ko.contains(b)) return obstacles;
    }
    return guarded_obstacles;
  };
  plan.trajectories.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (terrain_active) {
      // Geodesic waypoints in the cost metric; each leg still honors the
      // FoI hole detours. Unroutable robots fall back to the straight
      // segment (typed, counted below) detoured around keep-out.
      TerrainRoute rt = router->route(static_cast<int>(r), targets[r]);
      if (rt.geodesic) {
        plan.trajectories.push_back(make_timed_path_via(
            rt.points, 0.0, opt_.transition_time, obstacles));
      } else {
        plan.trajectories.push_back(
            make_timed_path(positions[r], targets[r], 0.0,
                            opt_.transition_time,
                            chord_obstacles(positions[r], targets[r])));
      }
    } else {
      plan.trajectories.push_back(make_timed_path(
          positions[r], targets[r], 0.0, opt_.transition_time, obstacles));
    }
  }
  interp_span.finish();
  obs::inc(ins_.snapped_targets,
           static_cast<std::uint64_t>(plan.snapped_targets));
  obs::inc(ins_.repaired_robots,
           static_cast<std::uint64_t>(plan.repaired_robots));
  if (terrain_active) {
    const RouterStats& rs = router->stats();
    plan.fmm_solves = prior_fmm_solves + rs.solves;
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

    // Transition connectivity guard (C = 1, Def. 2). Synchronized straight
    // motion inherits the paper's connectivity argument; independently
    // curved geodesics can diverge mid-flight and split marginal links.
    // Sample the transition densely and straighten the worst-deviating
    // routes — skipping robots whose straight chord would cross a keep-out
    // cell — until the sampled march stays connected. Each straightening
    // is a typed degradation, tallied with the other fmm fallbacks. One
    // incremental checker serves every sample of every pass: consecutive
    // instants are 1/256 of the march apart, so its spanning-tree
    // certificate usually answers without rebuilding the adjacency.
    obs::Span guard_span(ins_.spans, "transition_guard",
                         ins_.stage_transition_guard);
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
    auto endpoint_in_keep_out = [&](std::size_t r) {
      for (const Polygon& ko : opt_.trajectory.terrain.keep_out) {
        if (ko.contains(positions[r]) || ko.contains(targets[r])) return true;
      }
      return false;
    };
    std::vector<std::pair<double, std::size_t>> by_deviation;
    for (std::size_t r = 0; r < n; ++r) {
      if (endpoint_in_keep_out(r)) continue;
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
            chord_obstacles(positions[r], targets[r]));
        ++straightened;
      }
      split = first_disconnect() >= 0;
    }
    plan.fmm_fallbacks += straightened;
    obs::inc(ins_.fmm_fb_connectivity,
             static_cast<std::uint64_t>(straightened));
    // Every candidate straightened and a sample is still split: the plan
    // ships as it is, but the failed guard is counted, not silent.
    if (split) obs::inc(ins_.guard_unresolved);
    guard_span.finish();
  }

  // --- 8. Minor local adjustment: connectivity-safe Lloyd -----------------
  obs::Span adjust_span(ins_.spans, "adjustment", ins_.stage_adjustment);
  // Reference speed: fastest robot during the transition; adjustment steps
  // take time proportional to their largest move at that speed.
  double max_disp = 1e-9;
  for (std::size_t r = 0; r < n; ++r) {
    max_disp = std::max(max_disp, distance(positions[r], targets[r]));
  }
  double speed_ref = max_disp / opt_.transition_time;

  std::vector<Vec2> cur = targets;
  double t = opt_.transition_time;
  std::vector<Polygon> m2_obstacles;
  for (const Polygon& h : m2_.holes()) {
    m2_obstacles.push_back(h.translated(m2_offset));
  }
  // Loop-persistent scratch: one incremental connectivity checker serves
  // every trial probe (halved retries reuse its spatial index — their
  // bounded displacement rarely changes any link state, and an unchanged
  // edge set skips the BFS outright); the CVT scratch keeps the site index
  // and accumulators alive across Lloyd steps.
  net::IncrementalConnectivity connectivity(r_c_);
  GridCvt::Scratch cvt_scratch;
  std::vector<Vec2> local(n), cents, cand(n), trial(n);
  SubStageClock cvt_clock(ins_.stage_adjust_cvt);
  SubStageClock connectivity_clock(ins_.stage_adjust_connectivity);
  SubStageClock append_clock(ins_.stage_adjust_append);
  for (int step = 0; step < opt_.max_adjust_steps; ++step) {
    {
      SubStageClock::Lap lap(cvt_clock);
      // Centroids in the origin frame of the precomputed engine.
      for (std::size_t r = 0; r < n; ++r) local[r] = cur[r] - m2_offset;
      if (opt_.adjustment == AdjustmentEngine::kLocalVoronoi) {
        cents = local_lloyd_->step(local).centroids;
      } else {
        cvt_->centroids_into(local, cvt_scratch, cents);
      }
      for (std::size_t r = 0; r < n; ++r) cand[r] = cents[r] + m2_offset;
    }

    // Connectivity-safe step: try the full move; halve collectively while
    // the trial configuration would split the network (Sec. III-D-1) or —
    // under terrain routing — march a robot through a keep-out cell.
    bool ok = false;
    {
      SubStageClock::Lap lap(connectivity_clock);
      double factor = 1.0;
      int max_halvings = opt_.safe_adjustment ? 7 : 1;
      for (int halving = 0; halving < max_halvings; ++halving) {
        for (std::size_t r = 0; r < n; ++r) {
          trial[r] = lerp(cur[r], cand[r], factor);
        }
        bool blocked_move = false;
        if (terrain_active && router->field().has_blocked()) {
          for (std::size_t r = 0; r < n; ++r) {
            if (router->segment_blocked(cur[r], trial[r])) {
              blocked_move = true;
              break;
            }
          }
        }
        if (!blocked_move &&
            (!opt_.safe_adjustment || connectivity.check(trial))) {
          ok = true;
          break;
        }
        factor /= 2.0;
      }
    }
    if (!ok) break;  // no safe move at all: stay put

    SubStageClock::Lap append_lap(append_clock);
    double max_move = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      max_move = std::max(max_move, distance(trial[r], cur[r]));
    }
    if (max_move <= opt_.adjust.tol) {
      cur = trial;
      ++plan.adjust_steps;
      break;
    }
    double dt = std::max(max_move / speed_ref, 1e-6);
    for (std::size_t r = 0; r < n; ++r) {
      Trajectory seg =
          make_timed_path(cur[r], trial[r], t, t + dt, m2_obstacles);
      // Append the step's waypoints, skipping the duplicated start point.
      for (std::size_t w = 1; w < seg.num_waypoints(); ++w) {
        plan.trajectories[r].append(seg.waypoints()[w], seg.times()[w]);
      }
    }
    cur = trial;
    t += dt;
    ++plan.adjust_steps;
  }

  cvt_clock.finish();
  connectivity_clock.finish();
  append_clock.finish();
  adjust_span.finish();

  plan.final_positions = cur;
  plan.total_time = t;
  obs::inc(ins_.plans);
  return plan;
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
