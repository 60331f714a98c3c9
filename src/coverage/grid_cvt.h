// Discrete (grid-based) Voronoi centroids over a FoI.
//
// The paper computes centroids "with respect to a given density function"
// and, for FoIs with holes, snaps centroids that fall into a hole to "the
// nearest grid point along the hole boundary" (Sec. III-D-3). A dense
// sample grid over the FoI makes all of that uniform: a site's Voronoi
// region is the set of samples nearest to it; its centroid is the
// density-weighted sample mean; snapping is a nearest-sample query.
#pragma once

#include <cstdint>
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

  /// Reusable workspace for centroids_into. Each concurrent caller owns
  /// its own Scratch (GridCvt itself stays immutable and shareable).
  ///
  /// The per-block candidate lists persist across Lloyd steps. A list is
  /// built with its reach widened by twice the slack W, and the lists stay
  /// valid while every site is within W of the position it had at the
  /// build: a step that moves the sites less than that reuses them as they
  /// are, and only a larger drift (or a new site count, or another
  /// GridCvt) rebuilds them. The accumulators persist too, so steps at
  /// steady state do not allocate.
  struct Scratch {
    /// Sites bucketed at 4 x spacing: the per-sample ring scan that
    /// settles near-ties (its scan order is the tie-break). Built only by
    /// a call that meets a near-tie.
    GridIndex site_index;
    /// Sites bucketed at the site density: block-centre queries while
    /// the candidate lists are built.
    GridIndex site_grid;
    /// Candidate lists, CSR over the sample blocks: block b's candidates
    /// are cand_sites[cand_start[b] .. cand_start[b+1]).
    std::vector<int> cand_start;
    std::vector<int> cand_sites;
    /// Site positions the lists were built at, their slack W, and the
    /// id of the GridCvt they were built for (0: none yet).
    std::vector<Vec2> built_at;
    double slack = 0.0;
    std::uint64_t built_for = 0;
    /// One buffer per parallel chunk of sample blocks: the lists a build
    /// concatenates into cand_sites, then each call's narrowed lists.
    std::vector<std::vector<int>> chunk_sites;
    std::vector<Vec2> acc;
    std::vector<double> mass;
    /// Per-sample nearest-site assignment, filled in parallel (pure
    /// element-wise writes; -1 marks a near-tie), then settled and
    /// accumulated serially in sample order.
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
  /// `scratch` across calls. Consecutive calls whose sites moved less than
  /// list_slack() since the candidate lists were built skip the list build;
  /// the result is bit-identical either way.
  void centroids_into(const std::vector<Vec2>& sites, Scratch& scratch,
                      std::vector<Vec2>& out) const;

  /// The slack W of the candidate lists for `nsites` sites: half the
  /// smaller of the block side and the site spacing sqrt(area / nsites).
  double list_slack(std::size_t nsites) const;

  /// The sample blocks flagged interior: each square lies inside the FoI
  /// with a margin, so a centroid in one needs no containment test.
  std::vector<BBox> interior_blocks() const;

  /// Nearest sample point to p (the paper's "nearest grid point").
  Vec2 nearest_sample(Vec2 p) const;

  const std::vector<Vec2>& samples() const { return samples_; }
  const FieldOfInterest& foi() const { return foi_; }
  double spacing() const { return spacing_; }

 private:
  // Process-unique and never 0: tells a Scratch whose lists it holds.
  std::uint64_t id_ = 0;
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
  int block_ny_ = 0;
  std::vector<int> block_start_;
  std::vector<int> block_samples_;
  // 1 for a block whose square, grown by a small pad, meets no FoI edge and
  // holds a sample: the whole square is then inside the FoI.
  std::vector<std::uint8_t> block_interior_;

  // Rebuilds scratch's candidate lists at `sites`.
  void build_candidate_lists(const std::vector<Vec2>& sites,
                             Scratch& scratch) const;
  Vec2 block_centre(std::size_t b) const;
  // Index of the block holding p, or -1 outside the block grid.
  long block_index(Vec2 p) const;
};

}  // namespace anr
