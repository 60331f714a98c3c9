// Uniform spatial hash grid over points.
//
// Workhorse for neighbor queries: unit-disk graph construction
// (all pairs within r_c), nearest-grid-point snapping when a robot maps
// into a hole, and point location acceleration in the disk domain.
//
// Layout: flat CSR buckets over the dense cell range of the data's
// bounding box — one counting-sort build, no per-cell heap nodes, no
// hashing on the query path. Queries visit points in (cx asc, cy asc,
// point id asc) order, matching the historical hash-map implementation
// bucket for bucket, so tie-breaking behavior is unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.h"

namespace anr {

/// Spatial index over a fixed point set. Cell size should be on the order
/// of the typical query radius.
class GridIndex {
 public:
  /// Empty index; use rebuild() to populate.
  GridIndex() = default;

  /// Builds the index over `pts` with the given cell size (> 0).
  GridIndex(std::vector<Vec2> pts, double cell_size);

  /// Rebuilds over a new point set, reusing internal buffers. Repeated
  /// rebuilds at steady state (same-sized point sets) do not allocate.
  void rebuild(const std::vector<Vec2>& pts, double cell_size);

  /// Indices of all points within `radius` of q (inclusive).
  std::vector<int> query_radius(Vec2 q, double radius) const;

  /// As query_radius, but writes into a caller-owned buffer (cleared
  /// first) so steady-state queries do not allocate.
  void query_radius_into(Vec2 q, double radius, std::vector<int>& out) const;

  /// Calls visit(i) for every point index within `radius` of q
  /// (inclusive), in the same order query_radius returns them. The
  /// allocation-free primitive behind both query_radius overloads.
  template <class Visitor>
  void visit_radius(Vec2 q, double radius, Visitor&& visit) const {
    // The cell range reaches a little past `radius`: the inclusive test
    // below accepts pairs up to sqrt(r^2 + 1e-12) apart, and a point that
    // far out can sit one cell beyond q +- radius. The pad covers that
    // slack (<= 5e-13 / radius) for radii >= 1e-3, plus the rounding of
    // q +- reach for coordinates up to about 1e6.
    const double reach = radius + 1e-9 * (1.0 + radius);
    int cx0 = 0, cy0 = 0, cx1 = 0, cy1 = 0;
    cell_of(q - Vec2{reach, reach}, cx0, cy0);
    cell_of(q + Vec2{reach, reach}, cx1, cy1);
    if (cx0 < cx_lo_) cx0 = cx_lo_;
    if (cx1 > cx_hi_) cx1 = cx_hi_;
    if (cy0 < cy_lo_) cy0 = cy_lo_;
    if (cy1 > cy_hi_) cy1 = cy_hi_;
    const double r2 = radius * radius;
    for (int cx = cx0; cx <= cx1; ++cx) {
      for (int cy = cy0; cy <= cy1; ++cy) {
        const std::size_t s =
            static_cast<std::size_t>(cx - cx_lo_) +
            static_cast<std::size_t>(cy - cy_lo_) * static_cast<std::size_t>(nx_);
        for (int k = cell_start_[s]; k < cell_start_[s + 1]; ++k) {
          int i = cell_pts_[static_cast<std::size_t>(k)];
          if (distance2(pts_[static_cast<std::size_t>(i)], q) <= r2 + 1e-12) {
            visit(i);
          }
        }
      }
    }
  }

  /// Index of the point nearest to q; -1 when the index is empty.
  int nearest(Vec2 q) const;

  /// Indices of the k points nearest to q (k clamped to size()), sorted by
  /// increasing distance.
  std::vector<int> k_nearest(Vec2 q, int k) const;

  const std::vector<Vec2>& points() const { return pts_; }
  std::size_t size() const { return pts_.size(); }
  double cell_size() const { return cell_; }

 private:
  void build();
  void cell_of(Vec2 p, int& cx, int& cy) const;

  std::vector<Vec2> pts_;
  double cell_ = 1.0;

  // CSR buckets: points of dense cell slot s are
  // cell_pts_[cell_start_[s] .. cell_start_[s+1]), in increasing point id.
  std::vector<int> cell_start_;
  std::vector<int> cell_pts_;
  std::vector<int> cursor_;  // counting-sort scratch, kept for rebuild()

  // Cell-space bounding box of the data; empty index has hi < lo so every
  // clamped scan range is empty.
  int nx_ = 0, ny_ = 0;
  int cx_lo_ = 0, cx_hi_ = -1, cy_lo_ = 0, cy_hi_ = -1;
};

}  // namespace anr
