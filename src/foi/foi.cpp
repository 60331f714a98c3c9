#include "foi/foi.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace anr {

FieldOfInterest::FieldOfInterest(Polygon outer, std::vector<Polygon> holes)
    : outer_(std::move(outer)), holes_(std::move(holes)) {
  ANR_CHECK_MSG(outer_.size() >= 3, "FoI outer boundary needs >= 3 vertices");
  outer_.make_ccw();
  for (Polygon& h : holes_) {
    ANR_CHECK_MSG(h.size() >= 3, "FoI hole needs >= 3 vertices");
    h.make_ccw();
    ANR_CHECK_MSG(outer_.contains(h.centroid()), "hole centroid outside FoI");
  }
}

double FieldOfInterest::area() const {
  double a = outer_.area();
  for (const Polygon& h : holes_) a -= h.area();
  return a;
}

Vec2 FieldOfInterest::centroid() const {
  double a = outer_.area();
  Vec2 c = outer_.centroid() * a;
  for (const Polygon& h : holes_) {
    double ha = h.area();
    c -= h.centroid() * ha;
    a -= ha;
  }
  ANR_CHECK(a > 0.0);
  return c / a;
}

bool FieldOfInterest::contains(Vec2 p) const {
  if (!outer_.contains(p)) return false;
  for (const Polygon& h : holes_) {
    // A point on the hole boundary is placeable; strictly-inside points
    // are not.
    if (h.strictly_contains(p)) return false;
  }
  return true;
}

double FieldOfInterest::distance_to_nearest_hole(Vec2 p) const {
  double best = std::numeric_limits<double>::infinity();
  for (const Polygon& h : holes_) {
    best = std::min(best, h.boundary_distance(p));
  }
  return best;
}

double FieldOfInterest::distance_to_boundary(Vec2 p) const {
  double best = outer_.boundary_distance(p);
  for (const Polygon& h : holes_) {
    best = std::min(best, h.boundary_distance(p));
  }
  return best;
}

Vec2 FieldOfInterest::clamp_inside(Vec2 p) const {
  if (contains(p)) return p;
  // Project to the nearest violated boundary, then nudge toward the region
  // interior along the direction from the offending polygon's centroid.
  const Polygon* offender = nullptr;
  bool outside_outer = !outer_.contains(p);
  if (outside_outer) {
    offender = &outer_;
  } else {
    for (const Polygon& h : holes_) {
      if (h.contains(p)) {
        offender = &h;
        break;
      }
    }
  }
  if (offender == nullptr) return p;  // numeric edge: treat as inside
  Vec2 q = offender->closest_boundary_point(p);
  // Nudge slightly off the boundary into the region.
  Vec2 dir = outside_outer ? (offender->centroid() - q).normalized()
                           : (q - offender->centroid()).normalized();
  Vec2 nudged = q + dir * 1e-6;
  return contains(nudged) ? nudged : q;
}

bool FieldOfInterest::segment_inside(Vec2 a, Vec2 b) const {
  if (!contains(a) || !contains(b)) return false;
  if (outer_.segment_crosses_boundary(a, b)) return false;
  for (const Polygon& h : holes_) {
    if (h.segment_crosses_boundary(a, b)) return false;
    // Fully-contained chord across a convex hole has no boundary crossing
    // only if both endpoints are inside the hole, which contains() already
    // rejected; midpoints guard concave holes hugging the segment.
    if (h.strictly_contains(lerp(a, b, 0.5))) return false;
  }
  return true;
}

Vec2 FieldOfInterest::sample_point(Rng& rng) const {
  BBox bb = bbox();
  for (int tries = 0; tries < 100000; ++tries) {
    Vec2 p{rng.uniform(bb.lo.x, bb.hi.x), rng.uniform(bb.lo.y, bb.hi.y)};
    if (contains(p)) return p;
  }
  ANR_CHECK_MSG(false, "sample_point: rejection sampling failed (tiny FoI?)");
  return {};
}

namespace {

// Lowers dist[k] to the distance from lattice point (xs[k], y) to edge
// (a, b) for every point inside the edge's box grown by `pad`; the row's
// xs are nondecreasing, so those points are one run.
void lower_to_edge(Vec2 a, Vec2 b, double pad, double y,
                   const std::vector<double>& xs, std::vector<double>& dist) {
  const BBox box = padded_edge_box(a, b, pad);
  if (!(y >= box.lo.y && y <= box.hi.y)) return;
  for (std::size_t k = static_cast<std::size_t>(
           std::lower_bound(xs.begin(), xs.end(), box.lo.x) - xs.begin());
       k < xs.size() && xs[k] <= box.hi.x; ++k) {
    dist[k] = std::min(dist[k], point_segment_distance({xs[k], y}, Segment{a, b}));
  }
}

template <typename F>
void for_each_edge(const Polygon& loop, F&& f) {
  const std::vector<Vec2>& pts = loop.points();
  for (std::size_t i = 0, j = pts.size() - 1; i < pts.size(); j = i++) {
    f(pts[j], pts[i]);
  }
}

}  // namespace

std::vector<Vec2> FieldOfInterest::lattice_points(double h, double margin) const {
  ANR_CHECK(h > 0.0);
  std::vector<Vec2> out;
  BBox bb = bbox();
  double row_h = h * std::sqrt(3.0) / 2.0;
  // Scanline fill: each row's points get, per loop, Polygon::probe's
  // answer from the row's sorted edge crossings (the parity is that of
  // the crossings right of the point) and from the edges whose padded box
  // meets the row (the near-edge distance). Every coordinate is stepped
  // exactly as a per-point loop would, so every output byte matches it.
  std::vector<double> xs, cross, near, margin_dist;
  std::vector<char> keep;
  auto probe_row = [&](const Polygon& loop, double y) {
    cross.clear();
    near.assign(xs.size(), 1e300);
    for_each_edge(loop, [&](Vec2 a, Vec2 b) {
      if ((b.y > y) != (a.y > y)) {
        const double x = edge_crossing_x(a, b, y);
        if (!std::isnan(x)) cross.push_back(x);  // NaN never counts
      }
      lower_to_edge(a, b, kEdgeBoxPad, y, xs, near);
    });
    std::sort(cross.begin(), cross.end());
  };
  // Calls f(k, parity) for every point of the row, walking the crossings.
  auto for_each_parity = [&](auto&& f) {
    std::size_t c = 0;
    for (std::size_t k = 0; k < xs.size(); ++k) {
      while (c < cross.size() && cross[c] <= xs[k]) ++c;
      f(k, (cross.size() - c) % 2 == 1);
    }
  };
  int row = 0;
  for (double y = bb.lo.y; y <= bb.hi.y; y += row_h, ++row) {
    double x0 = bb.lo.x + (row % 2 == 0 ? 0.0 : h / 2.0);
    xs.clear();
    for (double x = x0; x <= bb.hi.x; x += h) xs.push_back(x);
    keep.assign(xs.size(), 0);
    probe_row(outer_, y);
    for_each_parity([&](std::size_t k, bool parity) {
      keep[k] = near[k] < kBoundaryTolerance || parity;
    });
    for (const Polygon& hole : holes_) {
      probe_row(hole, y);
      for_each_parity([&](std::size_t k, bool parity) {
        if (parity && near[k] > kBoundaryTolerance) keep[k] = 0;
      });
    }
    if (margin > 0.0) {
      // An edge outside its box grown by the margin and kEdgeBoxPad (the
      // rounding allowance) is farther than the margin from the point.
      margin_dist.assign(xs.size(), 1e300);
      const double pad = margin + kEdgeBoxPad;
      auto lower = [&](Vec2 a, Vec2 b) {
        lower_to_edge(a, b, pad, y, xs, margin_dist);
      };
      for_each_edge(outer_, lower);
      for (const Polygon& hole : holes_) for_each_edge(hole, lower);
      for (std::size_t k = 0; k < xs.size(); ++k) {
        if (margin_dist[k] < margin) keep[k] = 0;
      }
    }
    for (std::size_t k = 0; k < xs.size(); ++k) {
      if (keep[k]) out.push_back({xs[k], y});
    }
  }
  return out;
}

FieldOfInterest FieldOfInterest::translated(Vec2 d) const {
  std::vector<Polygon> holes;
  holes.reserve(holes_.size());
  for (const Polygon& h : holes_) holes.push_back(h.translated(d));
  return FieldOfInterest(outer_.translated(d), std::move(holes));
}

}  // namespace anr
