// Discrete (grid-based) Voronoi centroids over a FoI.
//
// The paper computes centroids "with respect to a given density function"
// and, for FoIs with holes, snaps centroids that fall into a hole to "the
// nearest grid point along the hole boundary" (Sec. III-D-3). A dense
// sample grid over the FoI makes all of that uniform: a site's Voronoi
// region is the set of samples nearest to it; its centroid is the
// density-weighted sample mean; snapping is a nearest-sample query.
#pragma once

#include <memory>
#include <vector>

#include "coverage/density.h"
#include "foi/foi.h"
#include "geom/grid_index.h"

namespace anr {

/// Precomputed sample grid + density over a FoI. Immutable after
/// construction; Lloyd iterations share one instance.
class GridCvt {
 public:
  /// Samples the FoI on a triangular lattice of roughly `target_samples`
  /// points and evaluates `density` at each.
  GridCvt(const FieldOfInterest& foi, DensityFn density,
          int target_samples = 30000);

  /// Reusable workspace for centroids_into. The site index and the
  /// accumulator arrays persist across Lloyd steps, so repeated calls at
  /// steady state do not allocate. Each concurrent caller owns its own
  /// Scratch (GridCvt itself stays immutable and shareable).
  struct Scratch {
    /// Sites bucketed at 4 x spacing: the per-sample ring scan that
    /// settles near-ties (its scan order is the tie-break).
    GridIndex site_index;
    /// Sites bucketed at the site density: block-centre queries and the
    /// per-block candidate lists.
    GridIndex site_grid;
    /// One candidate-site buffer per parallel chunk of sample blocks.
    std::vector<std::vector<int>> candidates;
    std::vector<Vec2> acc;
    std::vector<double> mass;
    /// Per-sample nearest-site assignment, filled in parallel (pure
    /// element-wise writes), then accumulated serially in sample order.
    /// O(samples) — independent of the site count, unlike the per-chunk
    /// partial-sum layout it replaced (O(chunks x sites), which blew up
    /// exactly when both were large).
    std::vector<int> site_of;
  };

  /// Density-weighted centroid of each site's discrete Voronoi region.
  /// A site whose region captures no sample keeps its position. Centroids
  /// landing outside the FoI (possible for concave regions/holes) are
  /// snapped to the nearest sample point.
  std::vector<Vec2> centroids(const std::vector<Vec2>& sites) const;

  /// As centroids(), writing into `out` (cleared first) and reusing
  /// `scratch` across calls.
  void centroids_into(const std::vector<Vec2>& sites, Scratch& scratch,
                      std::vector<Vec2>& out) const;

  /// Nearest sample point to p (the paper's "nearest grid point").
  Vec2 nearest_sample(Vec2 p) const;

  const std::vector<Vec2>& samples() const { return samples_; }
  const FieldOfInterest& foi() const { return foi_; }
  double spacing() const { return spacing_; }

 private:
  FieldOfInterest foi_;
  std::vector<Vec2> samples_;
  std::vector<double> weight_;
  std::unique_ptr<GridIndex> sample_index_;
  double spacing_ = 0.0;

  // Samples bucketed into square blocks of side block_ (4 x spacing),
  // row-major from block_lo_: block b holds the sample ids
  // block_samples_[block_start_[b] .. block_start_[b+1]), increasing.
  double block_ = 0.0;
  Vec2 block_lo_;
  int block_nx_ = 0;
  std::vector<int> block_start_;
  std::vector<int> block_samples_;
};

}  // namespace anr
