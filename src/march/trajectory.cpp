#include "march/trajectory.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace anr {

void Trajectory::append(Vec2 p, double t) {
  ANR_CHECK_MSG(times_.empty() || t >= times_.back() - 1e-12,
                "trajectory times must be nondecreasing");
  pts_.push_back(p);
  times_.push_back(times_.empty() ? t : std::max(t, times_.back()));
}

Vec2 Trajectory::position(double t) const {
  ANR_CHECK(!pts_.empty());
  if (t <= times_.front()) return pts_.front();
  if (t >= times_.back()) return pts_.back();
  auto it = std::upper_bound(times_.begin(), times_.end(), t);
  std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  std::size_t lo = hi - 1;
  double span = times_[hi] - times_[lo];
  if (span <= 0.0) return pts_[hi];
  double u = (t - times_[lo]) / span;
  return lerp(pts_[lo], pts_[hi], u);
}

Vec2 Trajectory::start() const {
  ANR_CHECK(!pts_.empty());
  return pts_.front();
}

Vec2 Trajectory::end() const {
  ANR_CHECK(!pts_.empty());
  return pts_.back();
}

double Trajectory::start_time() const {
  ANR_CHECK(!times_.empty());
  return times_.front();
}

double Trajectory::end_time() const {
  ANR_CHECK(!times_.empty());
  return times_.back();
}

double Trajectory::length() const {
  double len = 0.0;
  for (std::size_t i = 1; i < pts_.size(); ++i) {
    len += distance(pts_[i - 1], pts_[i]);
  }
  return len;
}

double Trajectory::length_between(double t0, double t1) const {
  if (pts_.empty() || t1 <= t0) return 0.0;
  double len = 0.0;
  Vec2 prev = position(t0);
  for (std::size_t i = 0; i < pts_.size(); ++i) {
    if (times_[i] <= t0 || times_[i] >= t1) continue;
    len += distance(prev, pts_[i]);
    prev = pts_[i];
  }
  len += distance(prev, position(t1));
  return len;
}

Trajectory Trajectory::truncated_at(double t) const {
  ANR_CHECK(!pts_.empty());
  double tc = std::clamp(t, start_time(), end_time());
  Trajectory out;
  for (std::size_t i = 0; i < pts_.size() && times_[i] < tc - 1e-12; ++i) {
    out.append(pts_[i], times_[i]);
  }
  out.append(position(tc), tc);
  return out;
}

void Trajectory::extend(const Trajectory& tail) {
  for (std::size_t i = 0; i < tail.num_waypoints(); ++i) {
    if (!pts_.empty() && tail.times()[i] <= times_.back() + 1e-12 &&
        distance(tail.waypoints()[i], pts_.back()) < 1e-12) {
      continue;  // duplicated joint
    }
    append(tail.waypoints()[i], std::max(tail.times()[i],
                                         times_.empty() ? tail.times()[i]
                                                        : times_.back()));
  }
}

namespace {

// Perimeter parameter (cumulative boundary length) of the point on `poly`'s
// boundary closest to p, plus the snapped point itself.
std::pair<double, Vec2> perimeter_param(const Polygon& poly, Vec2 p) {
  double best_d = 1e300, best_s = 0.0;
  Vec2 best_pt = p;
  double s = 0.0;
  const auto& pts = poly.points();
  for (std::size_t i = 0, n = pts.size(); i < n; ++i) {
    Segment e{pts[i], pts[(i + 1) % n]};
    double u = closest_point_param(e, p);
    Vec2 cp = lerp(e.a, e.b, u);
    double d = distance(p, cp);
    if (d < best_d) {
      best_d = d;
      best_s = s + u * e.length();
      best_pt = cp;
    }
    s += e.length();
  }
  return {best_s, best_pt};
}

// Waypoints along poly's boundary from perimeter param s0 to s1, walking
// the shorter arc. Returns points *between* the two params (polygon
// vertices passed), in walk order.
std::vector<Vec2> boundary_arc(const Polygon& poly, double s0, double s1) {
  const auto& pts = poly.points();
  const std::size_t n = pts.size();
  double total = poly.perimeter();

  double fwd = std::fmod(s1 - s0 + total, total);
  bool forward = fwd <= total - fwd;
  double arc_len = forward ? fwd : total - fwd;

  // Perimeter param of each vertex.
  std::vector<double> cum(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) {
    cum[i] = cum[i - 1] + distance(pts[i - 1], pts[i]);
  }

  // Collect vertices whose offset from s0 along the chosen direction lies
  // strictly inside (0, arc_len), ordered by that offset.
  std::vector<std::pair<double, Vec2>> hits;
  for (std::size_t i = 0; i < n; ++i) {
    double off = forward ? std::fmod(cum[i] - s0 + total, total)
                         : std::fmod(s0 - cum[i] + total, total);
    if (off > 1e-9 && off < arc_len - 1e-9) {
      hits.emplace_back(off, pts[i]);
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Vec2> out;
  out.reserve(hits.size());
  for (const auto& [off, p] : hits) out.push_back(p);
  return out;
}

// True when p is strictly inside poly (beyond boundary tolerance).
bool strictly_inside(const Polygon& poly, Vec2 p) {
  return poly.contains(p) && poly.boundary_distance(p) > 1e-7;
}

// Growth of obstacle_boxes. route_one detours only around points of the
// segment that are strictly inside the obstacle; a point this far outside
// its bounding box is not even within Polygon::contains' 1e-9 boundary
// tolerance, with room to spare for the rounding of lerp.
constexpr double kDetourBoxPad = 1e-7;

// Time at arc length `acc` of `total` along a constant-speed path that
// starts at t0 and ends at t1.
double leg_time(double t0, double t1, double acc, double total) {
  return t0 + (t1 - t0) * acc / total;
}

// Routes segment a->b around a single obstacle; returns full waypoint list
// including a and b.
std::vector<Vec2> route_one(Vec2 a, Vec2 b, const Polygon& obstacle) {
  if (!obstacle.segment_crosses_boundary(a, b) && !strictly_inside(obstacle, lerp(a, b, 0.5))) {
    return {a, b};
  }
  // Entry/exit: crossing params of the segment with the obstacle edges.
  Segment s{a, b};
  std::vector<double> params;
  for (const Segment& e : obstacle.edges()) {
    auto x = segment_intersection(s, e);
    if (!x) continue;
    double len = distance(a, b);
    if (len <= 0.0) continue;
    params.push_back(distance(a, *x) / len);
  }
  std::sort(params.begin(), params.end());
  params.erase(std::unique(params.begin(), params.end(),
                           [](double x, double y) { return std::abs(x - y) < 1e-9; }),
               params.end());
  if (params.size() < 2) return {a, b};

  std::vector<Vec2> out{a};
  for (std::size_t i = 0; i + 1 < params.size(); ++i) {
    double mid = (params[i] + params[i + 1]) / 2.0;
    if (!strictly_inside(obstacle, lerp(a, b, mid))) continue;
    Vec2 entry = lerp(a, b, params[i]);
    Vec2 exit = lerp(a, b, params[i + 1]);
    auto [s0, p0] = perimeter_param(obstacle, entry);
    auto [s1, p1] = perimeter_param(obstacle, exit);
    out.push_back(p0);
    for (Vec2 w : boundary_arc(obstacle, s0, s1)) out.push_back(w);
    out.push_back(p1);
  }
  out.push_back(b);
  return out;
}

}  // namespace

std::vector<Vec2> route_around(Vec2 a, Vec2 b,
                               const std::vector<Polygon>& obstacles) {
  std::vector<Vec2> path{a, b};
  // Iterate: rerouting around one obstacle can newly cross another; a few
  // passes settle for disjoint obstacles.
  for (int pass = 0; pass < 4; ++pass) {
    bool changed = false;
    std::vector<Vec2> next{path.front()};
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      Vec2 u = path[i], v = path[i + 1];
      std::vector<Vec2> best{u, v};
      for (const Polygon& ob : obstacles) {
        auto routed = route_one(u, v, ob);
        if (routed.size() > 2) {
          best = std::move(routed);
          changed = true;
          break;  // handle one obstacle per sub-segment per pass
        }
      }
      for (std::size_t k = 1; k < best.size(); ++k) next.push_back(best[k]);
    }
    path = std::move(next);
    if (!changed) break;
  }
  // Strip endpoints.
  if (path.size() <= 2) return {};
  return std::vector<Vec2>(path.begin() + 1, path.end() - 1);
}

std::vector<BBox> obstacle_boxes(const std::vector<Polygon>& obstacles) {
  std::vector<BBox> out;
  out.reserve(obstacles.size());
  for (const Polygon& ob : obstacles) {
    BBox box = ob.bbox();
    box.lo = box.lo - Vec2{kDetourBoxPad, kDetourBoxPad};
    box.hi = box.hi + Vec2{kDetourBoxPad, kDetourBoxPad};
    out.push_back(box);
  }
  return out;
}

void append_timed_step(Trajectory& path, Vec2 p, Vec2 q, double t0, double t1,
                       const std::vector<Polygon>& obstacles,
                       const std::vector<BBox>& boxes) {
  const Vec2 lo{std::min(p.x, q.x), std::min(p.y, q.y)};
  const Vec2 hi{std::max(p.x, q.x), std::max(p.y, q.y)};
  const bool clear = std::all_of(boxes.begin(), boxes.end(), [&](const BBox& b) {
    return hi.x < b.lo.x || lo.x > b.hi.x || hi.y < b.lo.y || lo.y > b.hi.y;
  });
  if (!clear) {
    const Trajectory seg = make_timed_path(p, q, t0, t1, obstacles);
    for (std::size_t w = 1; w < seg.num_waypoints(); ++w) {
      path.append(seg.waypoints()[w], seg.times()[w]);
    }
    return;
  }
  // make_timed_path's timing of the two-point path {p, q}.
  const double total = distance(p, q);
  path.append(q, total <= 0.0 ? t1 : leg_time(t0, t1, total, total));
}

Trajectory make_timed_path(Vec2 p, Vec2 q, double t0, double t1,
                           const std::vector<Polygon>& obstacles) {
  return make_timed_path_via({p, q}, t0, t1, obstacles);
}

Trajectory make_timed_path_via(const std::vector<Vec2>& via, double t0,
                               double t1,
                               const std::vector<Polygon>& obstacles) {
  ANR_CHECK(t1 >= t0);
  ANR_CHECK_MSG(!via.empty(), "timed path needs at least one waypoint");
  std::vector<Vec2> pts;
  pts.reserve(via.size());
  pts.push_back(via.front());
  for (std::size_t i = 0; i + 1 < via.size(); ++i) {
    for (Vec2 m : route_around(via[i], via[i + 1], obstacles)) {
      pts.push_back(m);
    }
    pts.push_back(via[i + 1]);
  }

  double total = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) total += distance(pts[i - 1], pts[i]);

  Trajectory out;
  if (total <= 0.0) {
    out.append(pts.front(), t0);
    out.append(pts.back(), t1);
    return out;
  }
  double acc = 0.0;
  out.append(pts[0], t0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    acc += distance(pts[i - 1], pts[i]);
    out.append(pts[i], leg_time(t0, t1, acc, total));
  }
  return out;
}

}  // namespace anr
