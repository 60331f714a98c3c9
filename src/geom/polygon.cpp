#include "geom/polygon.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "geom/predicates.h"

namespace anr {

void BBox::expand(Vec2 p) {
  lo.x = std::min(lo.x, p.x);
  lo.y = std::min(lo.y, p.y);
  hi.x = std::max(hi.x, p.x);
  hi.y = std::max(hi.y, p.y);
}

void BBox::expand(const BBox& o) {
  if (!o.valid()) return;
  expand(o.lo);
  expand(o.hi);
}

bool BBox::contains(Vec2 p) const {
  return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
}

double Polygon::signed_area() const {
  double a = 0.0;
  for (std::size_t i = 0, n = pts_.size(); i < n; ++i) {
    a += pts_[i].cross(pts_[(i + 1) % n]);
  }
  return 0.5 * a;
}

double Polygon::area() const { return std::abs(signed_area()); }

Vec2 Polygon::centroid() const {
  double a = 0.0;
  Vec2 c{};
  for (std::size_t i = 0, n = pts_.size(); i < n; ++i) {
    Vec2 p = pts_[i], q = pts_[(i + 1) % n];
    double w = p.cross(q);
    a += w;
    c += (p + q) * w;
  }
  ANR_CHECK_MSG(std::abs(a) > 1e-30, "centroid of zero-area polygon");
  return c / (3.0 * a);
}

double Polygon::perimeter() const {
  double len = 0.0;
  for (std::size_t i = 0, n = pts_.size(); i < n; ++i) {
    len += distance(pts_[i], pts_[(i + 1) % n]);
  }
  return len;
}

BBox Polygon::bbox() const {
  BBox b;
  for (Vec2 p : pts_) b.expand(p);
  return b;
}

bool Polygon::contains(Vec2 p) const {
  if (pts_.size() < 3) return false;
  // Boundary tolerance: a point within 1e-9 of an edge is "inside"; the
  // crossing-number test alone is unstable exactly on the boundary.
  // Outside an edge's bounding box grown by 2e-9 the point is farther than
  // that from the edge, so the distance test is skipped there.
  const double kBoxPad = 2e-9;
  const std::size_t n = pts_.size();
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    Vec2 a = pts_[j], b = pts_[i];
    const bool near_edge_box = p.x >= std::min(a.x, b.x) - kBoxPad &&
                               p.x <= std::max(a.x, b.x) + kBoxPad &&
                               p.y >= std::min(a.y, b.y) - kBoxPad &&
                               p.y <= std::max(a.y, b.y) + kBoxPad;
    if (near_edge_box && point_segment_distance(p, Segment{a, b}) < 1e-9) {
      return true;
    }
    bool straddles = (b.y > p.y) != (a.y > p.y);
    if (straddles) {
      double x_cross = b.x + (p.y - b.y) * (a.x - b.x) / (a.y - b.y);
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

double Polygon::boundary_distance(Vec2 p) const {
  double best = 1e300;
  for (std::size_t i = 0, n = pts_.size(); i < n; ++i) {
    best = std::min(best,
                    point_segment_distance(p, Segment{pts_[i], pts_[(i + 1) % n]}));
  }
  return best;
}

Vec2 Polygon::closest_boundary_point(Vec2 p) const {
  ANR_CHECK(!pts_.empty());
  double best = 1e300;
  Vec2 best_pt = pts_[0];
  for (std::size_t i = 0, n = pts_.size(); i < n; ++i) {
    Vec2 cp = closest_point(Segment{pts_[i], pts_[(i + 1) % n]}, p);
    double d = distance(p, cp);
    if (d < best) {
      best = d;
      best_pt = cp;
    }
  }
  return best_pt;
}

double Polygon::perimeter_param(Vec2 p) const {
  ANR_CHECK(!pts_.empty());
  double best_d = 1e300, best_s = 0.0, s = 0.0;
  for (std::size_t i = 0, n = pts_.size(); i < n; ++i) {
    Segment e{pts_[i], pts_[(i + 1) % n]};
    double u = closest_point_param(e, p);
    double d = distance(p, lerp(e.a, e.b, u));
    if (d < best_d) {
      best_d = d;
      best_s = s + u * e.length();
    }
    s += e.length();
  }
  return best_s;
}

Vec2 Polygon::point_at_param(double s) const {
  ANR_CHECK(!pts_.empty());
  double total = perimeter();
  ANR_CHECK(total > 0.0);
  s = std::fmod(std::fmod(s, total) + total, total);
  for (std::size_t i = 0, n = pts_.size(); i < n; ++i) {
    double len = distance(pts_[i], pts_[(i + 1) % n]);
    if (s <= len || i + 1 == n) {
      return lerp(pts_[i], pts_[(i + 1) % n], len > 0.0 ? s / len : 0.0);
    }
    s -= len;
  }
  return pts_[0];
}

bool Polygon::segment_crosses_boundary(Vec2 a, Vec2 b) const {
  Segment s{a, b};
  for (std::size_t i = 0, n = pts_.size(); i < n; ++i) {
    Segment e{pts_[i], pts_[(i + 1) % n]};
    // Skip edges that merely touch the query segment's endpoints: a robot
    // standing exactly on the boundary is not "crossing" it.
    if (segments_intersect(s, e)) {
      auto x = segment_intersection(s, e);
      if (!x) return true;  // collinear overlap: treat as crossing
      if (distance(*x, a) > 1e-9 && distance(*x, b) > 1e-9) return true;
    }
  }
  return false;
}

std::vector<Segment> Polygon::edges() const {
  std::vector<Segment> out;
  out.reserve(pts_.size());
  for (std::size_t i = 0, n = pts_.size(); i < n; ++i) {
    out.push_back({pts_[i], pts_[(i + 1) % n]});
  }
  return out;
}

void Polygon::make_ccw() {
  if (signed_area() < 0.0) std::reverse(pts_.begin(), pts_.end());
}

Polygon Polygon::densified(double max_spacing) const {
  ANR_CHECK(max_spacing > 0.0);
  std::vector<Vec2> out;
  for (std::size_t i = 0, n = pts_.size(); i < n; ++i) {
    Vec2 a = pts_[i], b = pts_[(i + 1) % n];
    double len = distance(a, b);
    int pieces = std::max(1, static_cast<int>(std::ceil(len / max_spacing)));
    for (int k = 0; k < pieces; ++k) {
      out.push_back(lerp(a, b, static_cast<double>(k) / pieces));
    }
  }
  return Polygon(std::move(out));
}

Polygon Polygon::scaled(double s, Vec2 about) const {
  std::vector<Vec2> out;
  out.reserve(pts_.size());
  for (Vec2 p : pts_) out.push_back(about + (p - about) * s);
  return Polygon(std::move(out));
}

Polygon Polygon::translated(Vec2 d) const {
  std::vector<Vec2> out;
  out.reserve(pts_.size());
  for (Vec2 p : pts_) out.push_back(p + d);
  return Polygon(std::move(out));
}

Polygon Polygon::rotated(double angle, Vec2 about) const {
  std::vector<Vec2> out;
  out.reserve(pts_.size());
  for (Vec2 p : pts_) out.push_back(about + (p - about).rotated(angle));
  return Polygon(std::move(out));
}

Polygon Polygon::with_area(double target_area) const {
  double a = area();
  ANR_CHECK_MSG(a > 0.0, "cannot rescale zero-area polygon");
  return scaled(std::sqrt(target_area / a), centroid());
}

Polygon make_circle(Vec2 center, double radius, int segments) {
  ANR_CHECK(segments >= 3);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(segments));
  for (int i = 0; i < segments; ++i) {
    double a = 2.0 * M_PI * i / segments;
    pts.push_back(center + Vec2{radius * std::cos(a), radius * std::sin(a)});
  }
  return Polygon(std::move(pts));
}

Polygon make_rect(Vec2 lo, Vec2 hi) {
  return Polygon({{lo.x, lo.y}, {hi.x, lo.y}, {hi.x, hi.y}, {lo.x, hi.y}});
}

}  // namespace anr
