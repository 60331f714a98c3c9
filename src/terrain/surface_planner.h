// Surface-aware marching — the 3D-surface prototype of the paper's future
// work (Sec. V). It runs MarchPlanner's pipeline stages (march/stages.h)
// with its own link model for robots on a height-field surface:
//   - the communication graph and triangulation T use lifted 3D (chord)
//     distances for the range test (planar Delaunay filtered by chord);
//   - both harmonic maps use mean-value weights from 3D edge lengths (the
//     discrete harmonic map of the *surface* mesh);
//   - the rotation objective, the subgroup repair, and the connectivity-
//     safe adjustment all test links with the chord metric;
//   - the CVT density is scaled by the surface area element
//     sqrt(1 + |grad z|^2), so robots equalize *surface* area.
// Trajectories remain paths over the map plane (the robot drives the
// terrain under them); measure them with simulate_on_surface.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "march/planner.h"
#include "march/stages.h"
#include "terrain/height_field.h"

namespace anr {

struct SurfacePlannerOptions {
  MarchObjective objective = MarchObjective::kMaxStableLinks;
  RotationSearchOptions rotation;
  MesherOptions mesher;
  int cvt_samples = 24000;
  LloydOptions adjust;
  int max_adjust_steps = 50;
  double transition_time = 1.0;
};

/// Plans marches over a height field; plan() has MarchPlanner's contract.
class SurfaceMarchPlanner {
 public:
  SurfaceMarchPlanner(FieldOfInterest m1, FieldOfInterest m2_shape,
                      HeightField terrain, double r_c,
                      SurfacePlannerOptions options = {});

  /// Plans the march; `m2_offset` rigidly places the M2 shape on the map.
  /// The terrain is global (not offset with M2).
  MarchPlan plan(const std::vector<Vec2>& positions, Vec2 m2_offset) const;

  const HeightField& terrain() const { return terrain_; }
  double comm_range() const { return r_c_; }

 private:
  double chord(Vec2 a, Vec2 b) const { return terrain_.chord_distance(a, b); }
  /// Share of `links` whose endpoints at `q` stay within chord range.
  double chord_link_ratio(const std::vector<Vec2>& q,
                          const std::vector<std::pair<int, int>>& links) const;

  FieldOfInterest m1_;
  FieldOfInterest m2_;
  HeightField terrain_;
  double r_c_;
  SurfacePlannerOptions opt_;
  M2Model m2_model_;  ///< lifted weights, slope-scaled CVT density
};

/// Lifted unit-disk adjacency: links iff 3D chord distance <= r_c.
std::vector<std::vector<int>> surface_adjacency(const std::vector<Vec2>& pos,
                                                const HeightField& terrain,
                                                double r_c);

/// Lifted communication links (a < b pairs).
std::vector<std::pair<int, int>> surface_links(const std::vector<Vec2>& pos,
                                               const HeightField& terrain,
                                               double r_c);

/// Mean-value harmonic weight provider over the lifted surface mesh.
std::function<double(const TriangleMesh&, VertexId, VertexId)>
surface_mean_value_weights(const HeightField& terrain);

}  // namespace anr
