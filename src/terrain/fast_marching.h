// Narrow-band Fast Marching over a terrain cost field.
//
// The marching plan moves robots along straight lines; over real ground
// the cheapest route bends around mud, steep slopes, and keep-out zones.
// This module discretizes a cost (slowness) field from the analytic
// terrain layer and solves the Eikonal equation |∇T| = f with a
// first-accepted-time heap, yielding a time-of-arrival (ToA) field per
// source from which geodesic paths are extracted by gradient descent.
//
// Determinism contract: the propagation order is fixed by a (time, cell
// index) min-heap — ties in arrival time are broken by the lower linear
// cell index — and every update reads only ACCEPTED neighbor values, so
// the resulting ToA field is byte-identical across runs and thread
// counts. (Per-source solves are embarrassingly parallel; the solver
// itself is sequential.)
//
// Layout: the band is an indexed binary heap keyed inline by (time, cell)
// with decrease-key, so every cell is pushed and popped at most once; a
// heap that keeps stale entries instead pops exactly the same live
// sequence, because its first live pop is always the band cell with the
// least (time, index). The slowness of a step into each cell from each of
// its four sides is tabulated once per CostField and shared by every
// solve on it.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "geom/polygon.h"
#include "geom/vec2.h"
#include "terrain/height_field.h"

namespace anr {

/// Circular slow-ground patch: cells whose center falls inside get their
/// cost multiplied by `cost` (cost >= 1: mud; large values ~ near-blocked).
struct MudPatch {
  Vec2 center;
  double radius = 0.0;
  double cost = 1.0;
};

/// Cost-field discretization knobs.
struct CostFieldSpec {
  BBox bounds;            ///< domain to rasterize (must be valid)
  int max_cells = 96;     ///< cells along the longer bounds axis
  double slope_weight = 0.0;    ///< cost = 1 + slope_weight * |∇z|
  double uphill_penalty = 0.0;  ///< extra directional slowness per unit uphill grade
  std::vector<MudPatch> mud;
  std::vector<Polygon> keep_out;  ///< cells with center inside are blocked
};

/// Rasterized slowness field over a uniform grid. Sampling is
/// bounds-checked: querying a point outside `bounds()` is a contract
/// violation, not a silent clamp.
class CostField {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Rasterizes `spec` over `terrain`. Cell cost is
  /// (1 + slope_weight * |∇z(center)|) * Π mud multipliers, or +inf when
  /// the center lies in a keep-out polygon.
  static CostField build(const CostFieldSpec& spec, const HeightField& terrain);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  double cell_size() const { return cell_; }
  const BBox& bounds() const { return bounds_; }
  int cell_count() const { return nx_ * ny_; }

  bool contains(Vec2 p) const { return bounds_.contains(p); }

  /// Linear index of the cell containing p. Requires contains(p).
  int index_of(Vec2 p) const;
  /// (ix, iy) -> linear index. Requires 0 <= ix < nx, 0 <= iy < ny.
  int index(int ix, int iy) const;
  /// Center of cell i. Requires 0 <= i < cell_count().
  Vec2 center(int i) const;

  /// Cost of cell i (+inf when blocked). Requires 0 <= i < cell_count().
  double cost(int i) const;
  /// Terrain height at the center of cell i.
  double height(int i) const;
  bool blocked(int i) const { return cost_[static_cast<std::size_t>(i)] == kInf; }
  /// Cost at point p. Requires contains(p).
  double cost_at(Vec2 p) const { return cost(index_of(p)); }
  bool blocked_at(Vec2 p) const { return blocked(index_of(p)); }

  /// Side of a cell that a grid step enters it from.
  enum StepSide { kFromWest = 0, kFromEast = 1, kFromSouth = 2, kFromNorth = 3 };

  /// Slowness of every grid step: entry 4 * i + side is the step into
  /// cell i from `side`, cell size × cost(i) × (1 + uphill_penalty ×
  /// max(0, grade)), where grade is the height rise from the neighbour on
  /// that side over one cell. Entries of sides that face the field border
  /// are unused.
  const std::vector<double>& step_slownesses() const { return step_; }

  /// True when the field has no blocked cells and a single cost value.
  bool uniform() const { return uniform_; }
  /// Minimum finite cell cost (1.0 for an empty field).
  double min_cost() const { return min_cost_; }
  bool has_blocked() const { return blocked_count_ > 0; }
  int blocked_count() const { return blocked_count_; }
  double uphill_penalty() const { return uphill_penalty_; }

  /// True when segment a->b passes through any blocked cell (grid
  /// traversal; endpoints' cells included). Requires both endpoints inside.
  bool segment_blocked(Vec2 a, Vec2 b) const;

  /// Approximate cost-weighted length of segment a->b (midpoint rule over
  /// sub-cell steps). Requires both endpoints inside; +inf if blocked.
  double segment_cost(Vec2 a, Vec2 b) const;

  const std::vector<double>& costs() const { return cost_; }
  const std::vector<double>& heights() const { return height_; }

 private:
  int nx_ = 0, ny_ = 0;
  double cell_ = 1.0;
  BBox bounds_;
  double min_cost_ = 1.0;
  bool uniform_ = true;
  int blocked_count_ = 0;
  double uphill_penalty_ = 0.0;
  std::vector<double> cost_;
  std::vector<double> height_;
  std::vector<double> step_;  ///< 4 per cell, see step_slownesses()
};

/// Result of one fast-marching solve.
struct FastMarchResult {
  std::vector<double> toa;  ///< per-cell time of arrival; +inf = unreached
  int accepted = 0;         ///< cells accepted by the propagation
  bool source_blocked = false;

  bool reached(int cell) const {
    return toa[static_cast<std::size_t>(cell)] < CostField::kInf;
  }
};

/// Reusable working memory of fast_march: per-cell states and the indexed
/// band heap. Reusing one across solves saves their allocations; a
/// scratch serves one solve at a time.
class FastMarchScratch {
 public:
  struct BandEntry {
    double t;
    int cell;
  };

 private:
  friend FastMarchResult fast_march(const CostField&, Vec2, FastMarchScratch&);
  std::vector<std::uint8_t> state_;
  std::vector<int> slot_;  ///< heap slot of each band cell
  std::vector<BandEntry> heap_;
};

/// Solves |∇T| = f from `source` over the whole field (narrow band sweep
/// to exhaustion). Deterministic: see the header comment. Requires
/// field.contains(source).
FastMarchResult fast_march(const CostField& field, Vec2 source);
/// The same solve on caller-owned scratch.
FastMarchResult fast_march(const CostField& field, Vec2 source,
                           FastMarchScratch& scratch);

/// Bilinear ToA sample over cell centers; falls back to the containing
/// cell's value when a stencil corner is unreached/blocked; +inf when the
/// containing cell itself is unreached. Requires field.contains(p).
double sample_toa(const CostField& field, const std::vector<double>& toa,
                  Vec2 p);

/// FNV-1a over the little-endian byte image of the ToA field (golden pin).
std::uint64_t toa_checksum(const std::vector<double>& toa);

/// Extracted geodesic from source to goal.
struct GeodesicPath {
  std::vector<Vec2> points;  ///< source..goal inclusive when ok
  bool ok = false;
  std::string failure;  ///< "", "unreachable", "blocked_goal", "stuck_descent"
  double time = 0.0;    ///< ToA at goal (cost-weighted length)
};

/// Gradient-descent path extraction with corner-cutting interpolation:
/// walks from goal to source down the bilinearly interpolated ToA field in
/// half-cell steps, guarding every step against blocked cells, with a
/// 4-neighbor discrete fallback; the polyline is then simplified
/// (Douglas–Peucker) without ever shortcutting across a blocked cell.
/// Requires both endpoints inside the field.
GeodesicPath extract_geodesic(const CostField& field,
                              const FastMarchResult& fm, Vec2 source,
                              Vec2 goal);

}  // namespace anr
