// Pipeline stages that MarchPlanner and SurfaceMarchPlanner both run
// (paper Sec. III). Each planner brings its own link model — planar unit
// disk or lifted 3D chord — and calls these around it.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/task_arena.h"
#include "coverage/grid_cvt.h"
#include "coverage/local_voronoi.h"
#include "foi/foi_mesher.h"
#include "harmonic/composition.h"
#include "harmonic/rotation_search.h"
#include "march/trajectory.h"
#include "mesh/mesh_quality.h"
#include "obs/metrics.h"

namespace anr {

struct MarchPlan;

/// M2-side precomputation in the origin frame (step 3, and step 8's CVT).
struct M2Model {
  MeshStats stats;  ///< M2 grid mesh summary
  std::unique_ptr<OverlapInterpolator> interpolator;
  std::unique_ptr<GridCvt> cvt;
};

/// Meshes M2, fills its holes, harmonic-maps it under `disk` and samples
/// the CVT under `density`. Throws if the harmonic map does not converge.
M2Model precompute_m2(const FieldOfInterest& m2, const MesherOptions& mesher,
                      const DiskMapOptions& disk, const DensityFn& density,
                      int cvt_samples);

/// T compacted to the robots its triangles reference, with its outer
/// boundary loop: those robots land on M2's rim.
struct CompactT {
  TriangleMesh mesh;
  std::vector<int> robot_to_compact;  ///< -1 for unmeshed robots
  std::vector<int> ring;              ///< outer-loop robots, loop order
  std::vector<char> is_boundary;      ///< per robot: on the outer loop
};
CompactT compact_t(const TriangleMesh& t);

/// Largest distance between consecutive `ring` robots at `q` under
/// `metric` (Euclidean when empty).
double ring_gap(const std::vector<int>& ring, const std::vector<Vec2>& q,
                const std::function<double(Vec2, Vec2)>& metric = {});

/// Buffers of one target-map evaluation, reused across rotation probes.
/// `hints` warm-starts the interpolator's point location; it changes
/// lookup speed only, so every probe is a pure function of theta.
struct MapScratch {
  std::vector<int> hints;
  std::vector<MappedTarget> mapped;
  std::vector<Vec2> q;       ///< every robot's target
  std::vector<double> lens;  ///< free scratch for the probe's objective
};

/// Step 5's target map at disk rotation theta: meshed robots map through
/// the M2 interpolator plus the offset; each unmeshed robot copies the
/// march of its nearest meshed robot (BFS over the M1 `adjacency`).
class TargetMapper {
 public:
  TargetMapper(const OverlapInterpolator& interpolator,
               const std::vector<Vec2>& positions, const CompactT& t,
               const std::vector<Vec2>& t_disk_pos,
               const std::vector<std::vector<int>>& adjacency, Vec2 m2_offset);

  /// Fills s.q with the targets at theta; returns the snapped count.
  int map_into(double theta, MapScratch& s) const;

 private:
  const OverlapInterpolator& interpolator_;
  const std::vector<Vec2>& positions_;
  std::vector<int> meshed_;
  std::vector<Vec2> meshed_disk_;
  std::vector<int> anchor_;  ///< per robot: the meshed robot it copies
  Vec2 m2_offset_;
};

/// Step 4's objective over `mapper` in batch form; `value(q, lens)` scores
/// targets q and must be pure and thread-safe. A probe round's candidates
/// evaluate concurrently, one scratch slot per chunk. Chunks may follow
/// the thread count because values are written per candidate and probes
/// are theta-pure, so results are byte-identical at any parallelism.
template <class Value>
RotationBatchObjective batch_rotation_objective(const TargetMapper& mapper,
                                                Value value) {
  return [&mapper, value, slots = std::vector<MapScratch>()](
             const std::vector<double>& thetas,
             std::vector<double>& values) mutable {
    values.resize(thetas.size());
    const std::size_t threads = static_cast<std::size_t>(arena_threads());
    const std::size_t grain = (thetas.size() + threads - 1) / threads;
    if (slots.size() < (thetas.size() + grain - 1) / grain) {
      slots.resize((thetas.size() + grain - 1) / grain);
    }
    parallel_chunks(thetas.size(), grain,
                    [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                      for (std::size_t k = begin; k < end; ++k) {
                        mapper.map_into(thetas[k], slots[chunk]);
                        values[k] = value(slots[chunk].q, slots[chunk].lens);
                      }
                    });
  };
}

/// Transition obstacles: M1's holes, then M2's at the offset.
std::vector<Polygon> transition_obstacles(const FieldOfInterest& m1,
                                          const FieldOfInterest& m2,
                                          Vec2 m2_offset);

/// Step 7 (Eqn. 2): straight timed paths start -> target over
/// [0, transition_time], detoured around `obstacles`.
std::vector<Trajectory> straight_transitions(
    const std::vector<Vec2>& start, const std::vector<Vec2>& targets,
    double transition_time, const std::vector<Polygon>& obstacles);

/// Step 8's settings. Each sub-stage histogram is observed once per plan
/// with its time summed over the Lloyd steps; null ones are not timed.
struct AdjustStage {
  const GridCvt* cvt = nullptr;                    ///< centroid engine
  const LocalVoronoiLloyd* local_lloyd = nullptr;  ///< used instead if set
  int max_steps = 50;
  double tol = 0.0;      ///< a step moving no robot farther is the last
  int max_halvings = 7;  ///< trials per step, the full move first
  obs::Histogram* cvt_seconds = nullptr;
  obs::Histogram* connectivity_seconds = nullptr;
  obs::Histogram* append_seconds = nullptr;
};

/// Accepts a trial configuration of an adjustment step taken from `cur`.
using AdjustGuard = std::function<bool(const std::vector<Vec2>& cur,
                                       const std::vector<Vec2>& trial)>;

/// Step 8: connectivity-safe Lloyd toward M2's centroidal Voronoi
/// configuration, from plan.mapped_targets at plan.transition_end. Each
/// step halves the move to the centroids collectively while `accept`
/// (called once per trial) refuses it, and ends the loop when no trial
/// passes. Appends the steps to plan.trajectories around M2's holes and
/// sets final_positions, total_time and adjust_steps.
void adjust_toward_cvt(const AdjustStage& stage, const FieldOfInterest& m2,
                       Vec2 m2_offset, const AdjustGuard& accept,
                       MarchPlan& plan);

}  // namespace anr
