#include "terrain/surface_planner.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "harmonic/disk_map.h"
#include "march/repair.h"
#include "mesh/alpha_extract.h"
#include "mesh/delaunay.h"
#include "mesh/hole_fill.h"
#include "net/connectivity.h"

namespace anr {

std::vector<std::vector<int>> surface_adjacency(const std::vector<Vec2>& pos,
                                                const HeightField& terrain,
                                                double r_c) {
  const std::size_t n = pos.size();
  std::vector<std::vector<int>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (terrain.chord_distance(pos[i], pos[j]) <= r_c + 1e-9) {
        adj[i].push_back(static_cast<int>(j));
        adj[j].push_back(static_cast<int>(i));
      }
    }
  }
  return adj;
}

std::vector<std::pair<int, int>> surface_links(const std::vector<Vec2>& pos,
                                               const HeightField& terrain,
                                               double r_c) {
  auto adj = surface_adjacency(pos, terrain, r_c);
  std::vector<std::pair<int, int>> out;
  for (std::size_t i = 0; i < adj.size(); ++i) {
    for (int j : adj[i]) {
      if (static_cast<int>(i) < j) out.emplace_back(static_cast<int>(i), j);
    }
  }
  return out;
}

std::function<double(const TriangleMesh&, VertexId, VertexId)>
surface_mean_value_weights(const HeightField& terrain) {
  // Capture by value: HeightField is a small vector of hills, and callers
  // may pass temporaries.
  return [terrain](const TriangleMesh& mesh, VertexId i, VertexId j) {
    // 3D edge lengths of the lifted mesh; mean-value weight via the
    // law-of-cosines angles at vertex i.
    auto len3 = [&](VertexId a, VertexId b) {
      return terrain.chord_distance(mesh.position(a), mesh.position(b));
    };
    double lij = len3(i, j);
    ANR_CHECK(lij > 0.0);
    double w = 0.0;
    for (int ti : mesh.vertex_triangles(i)) {
      const Tri& t = mesh.triangles()[static_cast<std::size_t>(ti)];
      bool has_j = t[0] == j || t[1] == j || t[2] == j;
      if (!has_j) continue;
      VertexId k = -1;
      for (VertexId v : t) {
        if (v != i && v != j) k = v;
      }
      double lik = len3(i, k);
      double ljk = len3(j, k);
      double cos_a =
          std::clamp((lij * lij + lik * lik - ljk * ljk) / (2.0 * lij * lik),
                     -1.0, 1.0);
      w += std::tan(std::acos(cos_a) / 2.0);
    }
    // Guard: boundary edges with a single flat triangle can yield a tiny
    // weight; keep it strictly positive.
    return std::max(w / lij, 1e-12);
  };
}

SurfaceMarchPlanner::SurfaceMarchPlanner(FieldOfInterest m1,
                                         FieldOfInterest m2_shape,
                                         HeightField terrain, double r_c,
                                         SurfacePlannerOptions options)
    : m1_(std::move(m1)),
      m2_(std::move(m2_shape)),
      terrain_(std::move(terrain)),
      r_c_(r_c),
      opt_(std::move(options)) {
  ANR_CHECK(r_c_ > 0.0);
  DiskMapOptions disk;
  disk.custom_weight = surface_mean_value_weights(terrain_);
  // CVT density scaled by the surface area element: equalize surface
  // area per robot, not map area.
  DensityFn slope_density = [hf = terrain_](Vec2 p) {
    return std::sqrt(1.0 + hf.gradient(p).norm2());
  };
  m2_model_ = precompute_m2(m2_, opt_.mesher, disk, slope_density,
                            opt_.cvt_samples);
}

double SurfaceMarchPlanner::chord_link_ratio(
    const std::vector<Vec2>& q,
    const std::vector<std::pair<int, int>>& links) const {
  if (links.empty()) return 1.0;
  int stable = 0;
  for (auto [i, j] : links) {
    if (chord(q[static_cast<std::size_t>(i)], q[static_cast<std::size_t>(j)]) <=
        r_c_ + 1e-9) {
      ++stable;
    }
  }
  return static_cast<double>(stable) / static_cast<double>(links.size());
}

MarchPlan SurfaceMarchPlanner::plan(const std::vector<Vec2>& positions,
                                    Vec2 m2_offset) const {
  const std::size_t n = positions.size();
  ANR_CHECK_MSG(n >= 4, "need at least 4 robots");

  MarchPlan plan;
  plan.start = positions;
  plan.m2_stats = m2_model_.stats;
  plan.transition_end = opt_.transition_time;

  auto adjacency = surface_adjacency(positions, terrain_, r_c_);
  ANR_CHECK_MSG(net::is_connected(adjacency),
                "initial deployment is not connected on the surface");
  auto links = surface_links(positions, terrain_, r_c_);

  // Steps 1-2: T is the planar Delaunay triangulation filtered by chord
  // length, mapped to the disk with the lifted mean-value weights.
  auto in_range = [&](VertexId a, VertexId b) {
    return chord(positions[static_cast<std::size_t>(a)],
                 positions[static_cast<std::size_t>(b)]) <= r_c_;
  };
  TriangleMesh dt = delaunay(positions);
  std::vector<Tri> kept;
  for (const Tri& t : dt.triangles()) {
    if (in_range(t[0], t[1]) && in_range(t[1], t[2]) && in_range(t[2], t[0])) {
      kept.push_back(t);
    }
  }
  AlphaExtraction ext =
      clean_to_manifold(TriangleMesh(positions, std::move(kept)));
  plan.unmeshed_robots = static_cast<int>(ext.unmeshed.size());
  plan.t_stats = mesh_stats(ext.mesh);
  const CompactT t = compact_t(ext.mesh);
  DiskMapOptions disk;
  disk.custom_weight = surface_mean_value_weights(terrain_);
  DiskMap t_disk = harmonic_disk_map(fill_holes(t.mesh).mesh, disk);
  const TargetMapper mapper(*m2_model_.interpolator, positions, t,
                            t_disk.disk_pos, adjacency, m2_offset);

  // Step 4: method (a) keeps the most chord links, method (b) minimizes
  // surface travel distance.
  auto objective = [&](const std::vector<Vec2>& q, std::vector<double>&) {
    if (opt_.objective == MarchObjective::kMinDistance) {
      double d = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        d += terrain_.surface_length(positions[r], q[r], 8);
      }
      return -d;
    }
    return chord_link_ratio(q, links);
  };
  RotationSearchResult rot =
      search_rotation(batch_rotation_objective(mapper, objective), opt_.rotation);
  plan.rotation_angle = rot.angle;
  plan.rotation_objective = rot.value;
  plan.rotation_evaluations = rot.evaluations;

  // Steps 5-6: targets at the chosen angle, repaired with the lifted
  // metric.
  MapScratch final_map;
  plan.snapped_targets = mapper.map_into(rot.angle, final_map);
  plan.mapped_targets = std::move(final_map.q);
  std::vector<Vec2>& targets = plan.mapped_targets;
  plan.max_boundary_gap = ring_gap(
      t.ring, targets, [this](Vec2 a, Vec2 b) { return chord(a, b); });
  RepairReport rep =
      repair_targets(positions, targets, adjacency, t.is_boundary, r_c_,
                     [this](Vec2 a, Vec2 b) { return chord(a, b); });
  plan.repaired_robots = rep.repaired;
  plan.repaired_subgroups = rep.subgroups;
  plan.predicted_link_ratio = chord_link_ratio(targets, links);

  // Step 7 on the map plane (holes are obstacles as usual), then step 8
  // with slope-weighted centroids and the lifted link model.
  plan.trajectories =
      straight_transitions(positions, targets, opt_.transition_time,
                           transition_obstacles(m1_, m2_, m2_offset));
  AdjustStage stage;
  stage.cvt = m2_model_.cvt.get();
  stage.max_steps = opt_.max_adjust_steps;
  stage.tol = opt_.adjust.tol;
  adjust_toward_cvt(
      stage, m2_, m2_offset,
      [&](const std::vector<Vec2>&, const std::vector<Vec2>& trial) {
        return net::is_connected(surface_adjacency(trial, terrain_, r_c_));
      },
      plan);
  return plan;
}

}  // namespace anr
