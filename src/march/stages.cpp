#include "march/stages.h"

#include <algorithm>
#include <chrono>
#include <queue>

#include "common/check.h"
#include "march/planner.h"
#include "mesh/boundary.h"
#include "mesh/hole_fill.h"

namespace anr {

namespace {

// Seconds of one adjustment sub-stage, summed over the Lloyd steps and
// observed once per plan. Reads no clock when the histogram is null.
struct SubStageClock {
  using Clock = std::chrono::steady_clock;
  obs::Histogram* hist;
  double total_s = 0.0;
  Clock::time_point t0{};

  ~SubStageClock() { obs::observe(hist, total_s); }
  void start() {
    if (hist != nullptr) t0 = Clock::now();
  }
  void stop() {
    if (hist != nullptr) {
      total_s += std::chrono::duration<double>(Clock::now() - t0).count();
    }
  }
};

}  // namespace

M2Model precompute_m2(const FieldOfInterest& m2, const MesherOptions& mesher,
                      const DiskMapOptions& disk, const DensityFn& density,
                      int cvt_samples) {
  M2Model model;
  FoiMesh mesh = mesh_foi(m2, mesher);
  model.stats = mesh_stats(mesh.mesh);
  HoleFillResult filled = fill_holes(mesh.mesh);
  DiskMap map = harmonic_disk_map(filled.mesh, disk);
  ANR_CHECK_MSG(map.converged,
                "M2 harmonic map did not converge: " + map.status.to_string());
  model.interpolator = std::make_unique<OverlapInterpolator>(filled, map);
  model.cvt = std::make_unique<GridCvt>(m2, density, cvt_samples);
  return model;
}

CompactT compact_t(const TriangleMesh& t) {
  CompactedMesh c = compact_vertices(t);
  CompactT out;
  out.mesh = std::move(c.mesh);
  out.robot_to_compact = std::move(c.old_to_new);
  out.is_boundary.assign(t.num_vertices(), 0);
  auto loops = boundary_loops(out.mesh);
  for (VertexId v : loops[outer_loop_index(out.mesh, loops)].vertices) {
    const int r = c.new_to_old[static_cast<std::size_t>(v)];
    out.ring.push_back(r);
    out.is_boundary[static_cast<std::size_t>(r)] = 1;
  }
  return out;
}

TargetMapper::TargetMapper(const OverlapInterpolator& interpolator,
                           const std::vector<Vec2>& positions, const CompactT& t,
                           const std::vector<Vec2>& t_disk_pos,
                           const std::vector<std::vector<int>>& adjacency,
                           Vec2 m2_offset)
    : interpolator_(interpolator),
      positions_(positions),
      anchor_(positions.size(), -1),
      m2_offset_(m2_offset) {
  // Meshed robots join the disk overlay and seed a BFS over the M1 links
  // that hands each unmeshed robot its nearest meshed anchor.
  std::queue<int> q;
  for (std::size_t r = 0; r < positions.size(); ++r) {
    const int cv = t.robot_to_compact[r];
    if (cv < 0) continue;
    meshed_.push_back(static_cast<int>(r));
    meshed_disk_.push_back(t_disk_pos[static_cast<std::size_t>(cv)]);
    anchor_[r] = static_cast<int>(r);
    q.push(static_cast<int>(r));
  }
  ANR_CHECK_MSG(!q.empty(), "triangulation extraction kept no robot");
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (int u : adjacency[static_cast<std::size_t>(v)]) {
      if (anchor_[static_cast<std::size_t>(u)] < 0) {
        anchor_[static_cast<std::size_t>(u)] = anchor_[static_cast<std::size_t>(v)];
        q.push(u);
      }
    }
  }
}

int TargetMapper::map_into(double theta, MapScratch& s) const {
  interpolator_.map_all_into(meshed_disk_, theta, s.hints, s.mapped);
  s.q.resize(anchor_.size());
  int snaps = 0;
  for (std::size_t k = 0; k < meshed_.size(); ++k) {
    s.q[static_cast<std::size_t>(meshed_[k])] = s.mapped[k].world + m2_offset_;
    if (s.mapped[k].snapped) ++snaps;
  }
  for (std::size_t r = 0; r < anchor_.size(); ++r) {
    const int a = anchor_[r];
    if (a == static_cast<int>(r)) continue;
    ANR_CHECK(a >= 0);
    s.q[r] = positions_[r] + (s.q[static_cast<std::size_t>(a)] -
                              positions_[static_cast<std::size_t>(a)]);
  }
  return snaps;
}

std::vector<Polygon> transition_obstacles(const FieldOfInterest& m1,
                                          const FieldOfInterest& m2,
                                          Vec2 m2_offset) {
  std::vector<Polygon> obstacles = m1.holes();
  for (const Polygon& h : m2.holes()) obstacles.push_back(h.translated(m2_offset));
  return obstacles;
}

std::vector<Trajectory> straight_transitions(
    const std::vector<Vec2>& start, const std::vector<Vec2>& targets,
    double transition_time, const std::vector<Polygon>& obstacles) {
  std::vector<Trajectory> out;
  out.reserve(start.size());
  for (std::size_t r = 0; r < start.size(); ++r) {
    out.push_back(make_timed_path(start[r], targets[r], 0.0, transition_time,
                                  obstacles));
  }
  return out;
}

void adjust_toward_cvt(const AdjustStage& stage, const FieldOfInterest& m2,
                       Vec2 m2_offset, const AdjustGuard& accept,
                       MarchPlan& plan) {
  const std::vector<Vec2>& targets = plan.mapped_targets;
  const std::size_t n = targets.size();
  // Reference speed: fastest robot during the transition; adjustment steps
  // take time proportional to their largest move at that speed.
  double max_disp = 1e-9;
  for (std::size_t r = 0; r < n; ++r) {
    max_disp = std::max(max_disp, distance(plan.start[r], targets[r]));
  }
  const double speed_ref = max_disp / plan.transition_end;

  std::vector<Vec2> cur = targets;
  double t = plan.transition_end;
  std::vector<Polygon> m2_obstacles;
  for (const Polygon& h : m2.holes()) {
    m2_obstacles.push_back(h.translated(m2_offset));
  }
  // Steps whose box misses every hole box append without routing.
  const std::vector<BBox> m2_boxes = obstacle_boxes(m2_obstacles);
  // The CVT scratch keeps the candidate lists, site index and accumulators
  // alive across Lloyd steps.
  GridCvt::Scratch cvt_scratch;
  std::vector<Vec2> local(n), cents, cand(n), trial(n);
  SubStageClock cvt_clock{stage.cvt_seconds};
  SubStageClock connectivity_clock{stage.connectivity_seconds};
  SubStageClock append_clock{stage.append_seconds};
  for (int step = 0; step < stage.max_steps; ++step) {
    // Centroids in the origin frame of the precomputed engine.
    cvt_clock.start();
    for (std::size_t r = 0; r < n; ++r) local[r] = cur[r] - m2_offset;
    if (stage.local_lloyd != nullptr) {
      cents = stage.local_lloyd->step(local).centroids;
    } else {
      stage.cvt->centroids_into(local, cvt_scratch, cents);
    }
    for (std::size_t r = 0; r < n; ++r) cand[r] = cents[r] + m2_offset;
    cvt_clock.stop();

    connectivity_clock.start();
    bool ok = false;
    double factor = 1.0;
    for (int halving = 0; halving < stage.max_halvings && !ok; ++halving) {
      for (std::size_t r = 0; r < n; ++r) {
        trial[r] = lerp(cur[r], cand[r], factor);
      }
      ok = accept(cur, trial);
      factor /= 2.0;
    }
    connectivity_clock.stop();
    if (!ok) break;  // no safe move at all: stay put

    append_clock.start();
    double max_move = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      max_move = std::max(max_move, distance(trial[r], cur[r]));
    }
    const bool settled = max_move <= stage.tol;
    if (!settled) {
      const double dt = std::max(max_move / speed_ref, 1e-6);
      for (std::size_t r = 0; r < n; ++r) {
        append_timed_step(plan.trajectories[r], cur[r], trial[r], t, t + dt,
                          m2_obstacles, m2_boxes);
      }
      t += dt;
    }
    cur = trial;
    ++plan.adjust_steps;
    append_clock.stop();
    if (settled) break;
  }
  plan.final_positions = cur;
  plan.total_time = t;
}

}  // namespace anr
