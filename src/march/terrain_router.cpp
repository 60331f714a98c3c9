#include "march/terrain_router.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/task_arena.h"

namespace anr {

const char* motion_model_name(MotionModel m) {
  switch (m) {
    case MotionModel::kStraight:
      return "straight";
    case MotionModel::kTerrainGeodesic:
      return "terrain_geodesic";
  }
  return "unknown";
}

TerrainRouter::TerrainRouter(const TrajectoryOptions& options,
                             const BBox& domain, double r_c) {
  ANR_CHECK_MSG(domain.valid(), "terrain router needs a valid domain box");
  ANR_CHECK(r_c > 0.0);
  const double pad = std::max(0.0, options.terrain.padding_cr) * r_c;
  CostFieldSpec spec;
  spec.bounds.expand({domain.lo.x - pad, domain.lo.y - pad});
  spec.bounds.expand({domain.hi.x + pad, domain.hi.y + pad});
  spec.max_cells = options.terrain.max_cells;
  spec.slope_weight = options.terrain.slope_weight;
  spec.uphill_penalty = options.terrain.uphill_penalty;
  spec.mud = options.terrain.mud;
  spec.keep_out = options.terrain.keep_out;
  field_ = CostField::build(spec, options.terrain.terrain);
}

void TerrainRouter::solve(const std::vector<Vec2>& starts) {
  starts_ = starts;
  fields_.clear();
  if (field_.uniform()) return;  // straight-equivalent: nothing to solve
  fields_.resize(starts.size());
  // One independent sequential solve per robot; each chunk writes only its
  // own result slots, so the fields are byte-identical at any thread count.
  // A chunk of a few robots shares one solver scratch.
  constexpr std::size_t kRobotsPerChunk = 4;
  parallel_chunks(starts.size(), kRobotsPerChunk,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    FastMarchScratch scratch;
                    for (std::size_t r = begin; r < end; ++r) {
                      if (field_.contains(starts_[r])) {
                        fields_[r] = fast_march(field_, starts_[r], scratch);
                      } else {
                        fields_[r].source_blocked = true;
                      }
                    }
                  });
  stats_.solves += static_cast<int>(starts.size());
}

double TerrainRouter::travel_time(int r, Vec2 goal) const {
  const std::size_t ur = static_cast<std::size_t>(r);
  ANR_CHECK(ur < starts_.size());
  const double lb = field_.min_cost() * distance(starts_[ur], goal);
  if (field_.uniform()) return lb;
  ANR_CHECK(ur < fields_.size());
  const FastMarchResult& fm = fields_[ur];
  if (fm.source_blocked || !field_.contains(goal)) return lb;
  const double t = sample_toa(field_, fm.toa, goal);
  return t < CostField::kInf ? t : lb;
}

double TerrainRouter::path_length_bound(int r, Vec2 goal) const {
  const std::size_t ur = static_cast<std::size_t>(r);
  ANR_CHECK(ur < starts_.size());
  if (field_.uniform()) return distance(starts_[ur], goal);
  // Any path of cost T has Euclidean length at most T / min_cost; the
  // straight-line fallbacks hit this with equality.
  return travel_time(r, goal) / field_.min_cost();
}

Vec2 TerrainRouter::unblocked_target(Vec2 goal, bool* snapped) {
  if (snapped != nullptr) *snapped = false;
  if (!field_.has_blocked() || !field_.contains(goal) ||
      !field_.blocked_at(goal)) {
    return goal;
  }
  const int nx = field_.nx(), ny = field_.ny();
  const int gi = field_.index_of(goal);
  const int gx = gi % nx, gy = gi / nx;
  const int max_rad = std::max(nx, ny);
  for (int rad = 1; rad < max_rad; ++rad) {
    int best = -1;
    double best_d2 = CostField::kInf;
    for (int iy = gy - rad; iy <= gy + rad; ++iy) {
      if (iy < 0 || iy >= ny) continue;
      const bool edge_row = (iy == gy - rad || iy == gy + rad);
      const int step = edge_row ? 1 : 2 * rad;  // ring perimeter only
      for (int ix = gx - rad; ix <= gx + rad; ix += step) {
        if (ix < 0 || ix >= nx) continue;
        const int i = iy * nx + ix;
        if (field_.blocked(i)) continue;
        const double d2 = distance2(field_.center(i), goal);
        if (d2 < best_d2 - 1e-12 ||
            (std::abs(d2 - best_d2) <= 1e-12 && i < best)) {
          best_d2 = d2;
          best = i;
        }
      }
    }
    if (best >= 0) {
      if (snapped != nullptr) *snapped = true;
      ++stats_.goal_snapped;
      return field_.center(best);
    }
  }
  return goal;  // field fully blocked; route() degrades downstream
}

TerrainRoute TerrainRouter::route(int r, Vec2 goal) {
  TerrainRoute out = extract(r, goal);
  tally(out);
  return out;
}

std::vector<TerrainRoute> TerrainRouter::route_all(
    const std::vector<Vec2>& goals) {
  ANR_CHECK(goals.size() == starts_.size());
  std::vector<TerrainRoute> routes(goals.size());
  parallel_chunks(goals.size(), 1,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t r = begin; r < end; ++r) {
                      routes[r] = extract(static_cast<int>(r), goals[r]);
                    }
                  });
  for (const TerrainRoute& rt : routes) tally(rt);
  return routes;
}

TerrainRoute TerrainRouter::extract(int r, Vec2 goal) const {
  const std::size_t ur = static_cast<std::size_t>(r);
  ANR_CHECK(ur < starts_.size());
  TerrainRoute out;
  const Vec2 start = starts_[ur];
  auto fallback = [&](const char* reason) {
    out.points = {start, goal};
    out.geodesic = false;
    out.fallback = reason;
    return out;
  };
  if (field_.uniform()) {
    out.points = {start, goal};
    return out;  // straight IS the geodesic; not a degradation
  }
  if (!field_.contains(start) || !field_.contains(goal)) {
    return fallback("out_of_domain");
  }
  ANR_CHECK(ur < fields_.size());
  const FastMarchResult& fm = fields_[ur];
  if (fm.source_blocked) return fallback("blocked_start");
  GeodesicPath gp = extract_geodesic(field_, fm, start, goal);
  if (!gp.ok) {
    return fallback(gp.failure == "stuck_descent" ? "stuck_descent"
                                                  : "unreachable");
  }
  out.points = std::move(gp.points);
  out.geodesic = true;
  return out;
}

void TerrainRouter::tally(const TerrainRoute& route) {
  if (route.fallback == nullptr) return;
  ++stats_.fallbacks;
  const std::string_view reason = route.fallback;
  if (reason == "blocked_start") {
    ++stats_.fb_blocked_start;
  } else if (reason == "unreachable") {
    ++stats_.fb_unreachable;
  } else if (reason == "stuck_descent") {
    ++stats_.fb_stuck_descent;
  } else {
    ++stats_.fb_out_of_domain;
  }
}

bool TerrainRouter::segment_blocked(Vec2 a, Vec2 b) const {
  if (!field_.has_blocked()) return false;
  if (!field_.contains(a) || !field_.contains(b)) return false;
  return field_.segment_blocked(a, b);
}

}  // namespace anr
