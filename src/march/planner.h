// MarchPlanner: the paper's end-to-end pipeline (Sec. III).
//
//   1. extract the triangulation T from the robots' connectivity graph;
//   2. fill T's holes (if M1 had holes) and harmonic-map T to a unit disk;
//   3. grid + triangulate M2, fill its holes, harmonic-map it to a disk;
//   4. search the disk rotation maximizing predicted stable link ratio
//      (method a) or minimizing total displacement (method b);
//   5. interpolate each robot's target via barycentric coordinates
//      (Eqn. 1), snapping hole landings to the nearest grid point;
//   6. repair isolated robots/subgroups with parallel marches;
//   7. straight-line transition with hole detours (Eqn. 2);
//   8. minor local adjustment: connectivity-safe Lloyd toward the
//      centroidal Voronoi configuration (optionally density-weighted).
//
// Construction does all the M2-side precomputation (meshing, harmonic
// map, CVT sampling); plan() is then cheap per robot configuration and
// per M1–M2 separation (M2 is rigidly offset by `m2_offset`). Stages both
// planners run live in march/stages.h.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "coverage/density.h"
#include "coverage/lloyd.h"
#include "harmonic/disk_map.h"
#include "foi/foi.h"
#include "march/repair.h"
#include "march/stages.h"
#include "march/terrain_router.h"

namespace anr {

/// Rotation-search objective: the paper's method (a) vs method (b).
enum class MarchObjective {
  kMaxStableLinks,  ///< method (a): maximize predicted stable link ratio
  kMinDistance,     ///< method (b): minimize total displacement
};

/// Triangulation-extraction strategy for T.
enum class ExtractionMode {
  kAuto,     ///< alpha extraction (centralized) or localized Delaunay
             ///< (distributed mode) — the defaults
  kGabriel,  ///< 1-hop Gabriel-graph extraction (sparser; ablation)
};

/// Minor-adjustment engine (paper Sec. III-C).
enum class AdjustmentEngine {
  kGridCvt,        ///< dense-sample discrete Voronoi (default; fast)
  kLocalVoronoi,   ///< per-robot two-hop clipped Voronoi — the paper's
                   ///< distributed formulation
};

struct PlannerOptions {
  MarchObjective objective = MarchObjective::kMaxStableLinks;
  RotationSearchOptions rotation;
  MesherOptions mesher;        ///< M2 grid resolution
  DiskMapOptions disk;         ///< harmonic-map weights / boundary spacing
  int cvt_samples = 24000;     ///< adjustment-phase CVT sampling
  LloydOptions adjust;         ///< minor-adjustment convergence
  int max_adjust_steps = 50;
  AdjustmentEngine adjustment = AdjustmentEngine::kGridCvt;
  ExtractionMode extraction = ExtractionMode::kAuto;
  /// Connectivity-safe stepping (Sec. III-D-1): halve moves that would
  /// split the network. Disable only for the ablation bench.
  bool safe_adjustment = true;
  double transition_time = 1.0;  ///< T of Eqn. (2)
  /// Use the message-passing protocols (boundary walk + distributed
  /// relaxation) for T's disk map instead of the centralized solver;
  /// slower, reports protocol costs.
  bool distributed = false;
  /// Exhaustive rotation sweep instead of the depth-limited search
  /// (ablation oracle).
  bool exhaustive_rotation = false;
  /// Scale on the triangulation-extraction radius. 1.0 is the paper's
  /// extraction at r_c; plan_robust() retries with a relaxed (larger)
  /// scale when extraction is too sparse to mesh the deployment.
  double alpha_scale = 1.0;
  /// Density for the adjustment CVT (defaults to uniform).
  DensityFn density;
  /// Step-7 motion model and terrain cost-field knobs. With
  /// kTerrainGeodesic over a uniform cost field the planner runs the
  /// unmodified straight-line pipeline (plans are byte-identical).
  TrajectoryOptions trajectory;
};

/// Everything a plan produced, for metrics and inspection.
struct MarchPlan {
  std::vector<Trajectory> trajectories;  ///< full timeline per robot
  std::vector<Vec2> start;
  std::vector<Vec2> mapped_targets;      ///< after rotation + repair
  std::vector<Vec2> final_positions;     ///< after minor adjustment

  double rotation_angle = 0.0;
  double rotation_objective = 0.0;
  int rotation_evaluations = 0;
  double predicted_link_ratio = 0.0;  ///< endpoint predictor at chosen angle

  int snapped_targets = 0;   ///< robots that landed in a hole / off-mesh
  int repaired_robots = 0;
  int repaired_subgroups = 0;
  int unmeshed_robots = 0;   ///< robots absent from T

  /// Largest distance between consecutive T-boundary robots at their
  /// mapped destinations. The paper's global-connectivity argument rests
  /// on the boundary ring staying a connected chain (Sec. III-D-1); this
  /// must stay <= r_c.
  double max_boundary_gap = 0.0;

  double transition_end = 0.0;  ///< time where adjustment begins
  double total_time = 0.0;
  int adjust_steps = 0;

  MeshStats t_stats;   ///< robot triangulation summary
  MeshStats m2_stats;  ///< M2 grid mesh summary
  std::size_t protocol_messages = 0;  ///< distributed-mode message total

  // Terrain-routing diagnostics (kTerrainGeodesic only; in-memory — not
  // part of the serialized plan, which stays byte-stable).
  int fmm_solves = 0;        ///< fast-marching solves run for this plan
  int fmm_goal_snapped = 0;  ///< targets snapped out of keep-out cells
  int fmm_fallbacks = 0;     ///< robots degraded to straight-line motion
};

/// Which attempt of the fallback chain produced a plan.
enum class PlanMode {
  kPrimary,            ///< the paper pipeline at the configured alpha scale
  kRelaxedExtraction,  ///< paper pipeline with a widened extraction radius
  kBaselineFallback,   ///< Hungarian baseline (no triangulation needed)
};

/// Stable lowercase name ("primary", ...).
const char* plan_mode_name(PlanMode mode);

/// One attempt of plan_robust()'s fallback chain.
struct PlanAttempt {
  PlanMode mode = PlanMode::kPrimary;
  bool succeeded = false;
  std::string error;  ///< empty when succeeded
};

/// Why and how a plan was degraded. `degraded` is false iff the primary
/// pipeline succeeded on the first attempt.
struct DegradationRecord {
  bool degraded = false;
  PlanMode mode = PlanMode::kPrimary;  ///< mode that produced the plan
  std::vector<PlanAttempt> attempts;   ///< in execution order
};

/// Typed result of plan_robust(): a status instead of an exception.
struct PlanOutcome {
  Status status;
  MarchPlan plan;  ///< valid iff status.ok()
  DegradationRecord degradation;

  bool ok() const { return status.ok(); }
};

/// Working state of one plan, passed from stage to stage (planner.cpp).
struct PlanContext;

/// Plans marches from M1 into (rigid translates of) the M2 shape.
class MarchPlanner {
 public:
  /// `m2_shape` is the target FoI geometry; plan() adds `m2_offset`.
  /// Throws ContractViolation on degenerate geometry.
  MarchPlanner(FieldOfInterest m1, FieldOfInterest m2_shape, double r_c,
               PlannerOptions options = {});

  /// Plans the march of robots at `positions` (inside M1) to the M2 shape
  /// translated by `m2_offset`.
  MarchPlan plan(const std::vector<Vec2>& positions, Vec2 m2_offset) const;

  /// Degraded-mode planning: primary pipeline, then relaxed alpha
  /// extraction, then the Hungarian baseline. Never throws — every
  /// failure (including input validation) comes back as a typed Status,
  /// and the degradation record lists each attempt.
  PlanOutcome plan_robust(const std::vector<Vec2>& positions,
                          Vec2 m2_offset) const;

  const FieldOfInterest& m1() const { return m1_; }
  const FieldOfInterest& m2_shape() const { return m2_; }
  double comm_range() const { return r_c_; }
  const PlannerOptions& options() const { return opt_; }

  /// Attaches a metrics registry: per-stage spans + latency histograms
  /// (anr_plan_stage_seconds{stage=...}; adjust_cvt, adjust_connectivity
  /// and adjust_append split the adjustment stage; transition_guard times
  /// the terrain connectivity guard), whole-plan latency, rotation
  /// probe / snapped-target / repair counters, fallback-mode counters
  /// for plan_robust(), and anr_transition_guard_unresolved_total for
  /// terrain plans whose sampled march is still split after the guard.
  /// Pass nullptr (or an obs::NullRegistry) to detach.
  /// Not part of the cache fingerprint — observation never changes plan
  /// output. Call before sharing the planner across threads; plan() only
  /// reads the resolved handles.
  void set_observer(obs::Registry* registry);

 private:
  /// Metric handles resolved once by set_observer(); all null when
  /// unobserved, so each record site is one untaken branch.
  struct Instruments {
    obs::SpanRing* spans = nullptr;
    obs::Histogram* stage_extraction = nullptr;
    obs::Histogram* stage_harmonic = nullptr;
    obs::Histogram* stage_rotation = nullptr;
    obs::Histogram* stage_interpolation = nullptr;
    obs::Histogram* stage_adjustment = nullptr;
    // Sub-stages of adjustment, each summed over the plan's Lloyd steps.
    obs::Histogram* stage_adjust_cvt = nullptr;
    obs::Histogram* stage_adjust_connectivity = nullptr;
    obs::Histogram* stage_adjust_append = nullptr;
    obs::Histogram* stage_routing = nullptr;
    obs::Histogram* stage_transition_guard = nullptr;
    obs::Histogram* plan_seconds = nullptr;
    obs::Counter* plans = nullptr;
    obs::Counter* rotation_probes = nullptr;
    obs::Counter* snapped_targets = nullptr;
    obs::Counter* repaired_robots = nullptr;
    obs::Counter* fallback_relaxed = nullptr;
    obs::Counter* fallback_baseline = nullptr;
    obs::Counter* plans_degraded = nullptr;
    obs::Counter* harmonic_nonconverged = nullptr;
    obs::Counter* harmonic_multigrid = nullptr;
    obs::Counter* fmm_solves = nullptr;
    obs::Counter* fmm_goal_snapped = nullptr;
    obs::Counter* fmm_fb_blocked_start = nullptr;
    obs::Counter* fmm_fb_unreachable = nullptr;
    obs::Counter* fmm_fb_stuck_descent = nullptr;
    obs::Counter* fmm_fb_out_of_domain = nullptr;
    obs::Counter* fmm_fb_connectivity = nullptr;
    obs::Counter* guard_unresolved = nullptr;
  };

  /// The full pipeline with the extraction radius scaled by
  /// `alpha_scale`; plan() delegates here with opt_.alpha_scale.
  MarchPlan plan_impl(const std::vector<Vec2>& positions, Vec2 m2_offset,
                      double alpha_scale) const;

  // plan_impl's stages in order; each reads and fills the context.
  void route_terrain(PlanContext& ctx) const;              // terrain ToA
  void extract_t(PlanContext& ctx, double alpha_scale) const;  // step 1
  void map_t_to_disk(PlanContext& ctx) const;              // step 2
  void search_rotation_angle(PlanContext& ctx) const;      // step 4
  void interpolate_targets(PlanContext& ctx) const;        // step 5
  void repair_targets_stage(PlanContext& ctx) const;       // step 6
  void build_transitions(PlanContext& ctx) const;          // step 7
  void guard_transition(PlanContext& ctx) const;           // terrain C = 1
  void adjust(PlanContext& ctx) const;                     // step 8

  FieldOfInterest m1_;
  FieldOfInterest m2_;
  double r_c_;
  PlannerOptions opt_;
  Instruments ins_;

  M2Model m2_model_;  ///< M2-side precomputation (step 3, origin frame)
  std::unique_ptr<LocalVoronoiLloyd> local_lloyd_;
};

}  // namespace anr
