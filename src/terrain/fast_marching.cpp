#include "terrain/fast_marching.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "geom/segment.h"

namespace anr {

CostField CostField::build(const CostFieldSpec& spec,
                           const HeightField& terrain) {
  ANR_CHECK_MSG(spec.bounds.valid(), "cost field requires a valid bounds box");
  ANR_CHECK_MSG(spec.max_cells >= 1, "cost field needs at least one cell");
  for (const MudPatch& m : spec.mud) {
    ANR_CHECK_MSG(m.cost > 0.0, "mud cost multiplier must be positive");
  }

  CostField f;
  f.bounds_ = spec.bounds;
  f.uphill_penalty_ = std::max(0.0, spec.uphill_penalty);
  const double w = std::max(spec.bounds.width(), 1e-9);
  const double h = std::max(spec.bounds.height(), 1e-9);
  f.cell_ = std::max(w, h) / spec.max_cells;
  f.nx_ = std::max(1, static_cast<int>(std::ceil(w / f.cell_ - 1e-9)));
  f.ny_ = std::max(1, static_cast<int>(std::ceil(h / f.cell_ - 1e-9)));

  const std::size_t n = static_cast<std::size_t>(f.nx_) * f.ny_;
  f.cost_.resize(n);
  f.height_.resize(n);

  double min_cost = kInf, max_cost = -kInf;
  for (int iy = 0; iy < f.ny_; ++iy) {
    for (int ix = 0; ix < f.nx_; ++ix) {
      const std::size_t i = static_cast<std::size_t>(iy) * f.nx_ + ix;
      const Vec2 c{spec.bounds.lo.x + (ix + 0.5) * f.cell_,
                   spec.bounds.lo.y + (iy + 0.5) * f.cell_};
      f.height_[i] = terrain.height(c);
      double cost = 1.0 + std::max(0.0, spec.slope_weight) *
                              terrain.gradient(c).norm();
      for (const MudPatch& m : spec.mud) {
        if (distance(c, m.center) <= m.radius) cost *= m.cost;
      }
      for (const Polygon& ko : spec.keep_out) {
        if (!ko.empty() && ko.contains(c)) {
          cost = kInf;
          break;
        }
      }
      f.cost_[i] = cost;
      if (cost == kInf) {
        ++f.blocked_count_;
      } else {
        min_cost = std::min(min_cost, cost);
        max_cost = std::max(max_cost, cost);
      }
    }
  }
  f.min_cost_ = (min_cost == kInf) ? 1.0 : min_cost;

  // Step slowness into each cell from each side it can be entered from.
  f.step_.assign(4 * n, 0.0);
  const double pen = f.uphill_penalty_;
  for (int iy = 0; iy < f.ny_; ++iy) {
    for (int ix = 0; ix < f.nx_; ++ix) {
      const int to = iy * f.nx_ + ix;
      // Neighbour on each side, in StepSide order; -1 past the border.
      const int from[4] = {ix > 0 ? to - 1 : -1, ix + 1 < f.nx_ ? to + 1 : -1,
                           iy > 0 ? to - f.nx_ : -1,
                           iy + 1 < f.ny_ ? to + f.nx_ : -1};
      for (int side = 0; side < 4; ++side) {
        if (from[side] < 0) continue;
        double step = f.cell_ * f.cost_[static_cast<std::size_t>(to)];
        if (pen > 0.0) {
          const double grade = (f.height_[static_cast<std::size_t>(to)] -
                                f.height_[static_cast<std::size_t>(from[side])]) /
                               f.cell_;
          step *= 1.0 + pen * std::max(0.0, grade);
        }
        f.step_[4 * static_cast<std::size_t>(to) + side] = step;
      }
    }
  }

  bool heights_equal = true;
  for (std::size_t i = 1; i < n && heights_equal; ++i) {
    heights_equal = f.height_[i] == f.height_[0];
  }
  f.uniform_ = f.blocked_count_ == 0 && min_cost == max_cost &&
               (f.uphill_penalty_ == 0.0 || heights_equal);
  return f;
}

int CostField::index_of(Vec2 p) const {
  ANR_CHECK_MSG(contains(p), "cost field sample outside domain bounds");
  int ix = static_cast<int>(std::floor((p.x - bounds_.lo.x) / cell_));
  int iy = static_cast<int>(std::floor((p.y - bounds_.lo.y) / cell_));
  // Points exactly on the hi boundary belong to the last cell; anything
  // further out was already rejected above.
  ix = std::clamp(ix, 0, nx_ - 1);
  iy = std::clamp(iy, 0, ny_ - 1);
  return iy * nx_ + ix;
}

int CostField::index(int ix, int iy) const {
  ANR_CHECK(ix >= 0 && ix < nx_ && iy >= 0 && iy < ny_);
  return iy * nx_ + ix;
}

Vec2 CostField::center(int i) const {
  ANR_CHECK(i >= 0 && i < cell_count());
  const int ix = i % nx_, iy = i / nx_;
  return {bounds_.lo.x + (ix + 0.5) * cell_, bounds_.lo.y + (iy + 0.5) * cell_};
}

double CostField::cost(int i) const {
  ANR_CHECK(i >= 0 && i < cell_count());
  return cost_[static_cast<std::size_t>(i)];
}

double CostField::height(int i) const {
  ANR_CHECK(i >= 0 && i < cell_count());
  return height_[static_cast<std::size_t>(i)];
}

bool CostField::segment_blocked(Vec2 a, Vec2 b) const {
  if (blocked_count_ == 0) return false;
  int ia = index_of(a), ib = index_of(b);
  if (blocked(ia) || blocked(ib)) return true;
  int ax = ia % nx_, ay = ia / nx_;
  const int bx = ib % nx_, by = ib / nx_;
  const Vec2 d = b - a;
  const int step_x = (d.x > 0.0) - (d.x < 0.0);
  const int step_y = (d.y > 0.0) - (d.y < 0.0);
  const double inf = kInf;
  double t_max_x = inf, t_delta_x = inf;
  double t_max_y = inf, t_delta_y = inf;
  if (step_x != 0) {
    const double edge =
        bounds_.lo.x + (ax + (step_x > 0 ? 1 : 0)) * cell_;
    t_max_x = (edge - a.x) / d.x;
    t_delta_x = cell_ / std::abs(d.x);
  }
  if (step_y != 0) {
    const double edge =
        bounds_.lo.y + (ay + (step_y > 0 ? 1 : 0)) * cell_;
    t_max_y = (edge - a.y) / d.y;
    t_delta_y = cell_ / std::abs(d.y);
  }
  int guard = nx_ + ny_ + 4;
  while ((ax != bx || ay != by) && guard-- > 0) {
    if (std::abs(t_max_x - t_max_y) < 1e-12) {
      // Exact corner crossing: conservatively check both cells adjacent
      // to the corner before stepping diagonally.
      if (ax + step_x >= 0 && ax + step_x < nx_ &&
          blocked(ay * nx_ + ax + step_x)) {
        return true;
      }
      if (ay + step_y >= 0 && ay + step_y < ny_ &&
          blocked((ay + step_y) * nx_ + ax)) {
        return true;
      }
      ax += step_x;
      ay += step_y;
      t_max_x += t_delta_x;
      t_max_y += t_delta_y;
    } else if (t_max_x < t_max_y) {
      ax += step_x;
      t_max_x += t_delta_x;
    } else {
      ay += step_y;
      t_max_y += t_delta_y;
    }
    if (ax < 0 || ax >= nx_ || ay < 0 || ay >= ny_) break;
    if (blocked(ay * nx_ + ax)) return true;
  }
  return false;
}

double CostField::segment_cost(Vec2 a, Vec2 b) const {
  const double len = distance(a, b);
  if (len <= 0.0) return 0.0;
  if (segment_blocked(a, b)) return kInf;
  const int steps =
      std::max(1, static_cast<int>(std::ceil(len / (0.5 * cell_))));
  double total = 0.0;
  for (int s = 0; s < steps; ++s) {
    const double u = (s + 0.5) / steps;
    total += cost_at(lerp(a, b, u)) * (len / steps);
  }
  return total;
}

namespace {

// Min-heap of band cells on (time, cell index), with each cell's slot kept
// so a lowered time sifts its entry up in place (decrease-key).
class BandHeap {
 public:
  using Entry = FastMarchScratch::BandEntry;

  BandHeap(std::vector<Entry>& heap, int* slot) : heap_(heap), slot_(slot) {
    heap_.clear();
  }

  bool empty() const { return heap_.empty(); }

  void push(double t, int cell) {
    heap_.push_back({t, cell});
    sift_up(heap_.size() - 1);
  }

  // Lowers the time of a cell already in the heap.
  void decrease(int cell, double t) {
    const std::size_t k = static_cast<std::size_t>(slot_[cell]);
    heap_[k].t = t;
    sift_up(k);
  }

  int pop() {
    const int top = heap_.front().cell;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return top;
  }

 private:
  // (time, cell) order. Bitwise operators keep the child choice of
  // sift_down free of unpredictable branches.
  static bool before(const Entry& a, const Entry& b) {
    return (a.t < b.t) | ((a.t == b.t) & (a.cell < b.cell));
  }

  void place(std::size_t k, const Entry& e) {
    heap_[k] = e;
    slot_[e.cell] = static_cast<int>(k);
  }

  void sift_up(std::size_t k) {
    const Entry e = heap_[k];
    while (k > 0) {
      const std::size_t parent = (k - 1) / 2;
      if (!before(e, heap_[parent])) break;
      place(k, heap_[parent]);
      k = parent;
    }
    place(k, e);
  }

  // Refills the root hole the popped top left with `e`: the hole first
  // sinks along the smaller children to the bottom, then `e` rises from
  // there (the last entry is usually among the latest, so it rises little).
  void sift_down(const Entry& e) {
    const std::size_t n = heap_.size();
    std::size_t k = 0;
    for (std::size_t child = 1; child < n; child = 2 * k + 1) {
      if (child + 1 < n) child += before(heap_[child + 1], heap_[child]);
      place(k, heap_[child]);
      k = child;
    }
    heap_[k] = e;
    sift_up(k);
  }

  std::vector<Entry>& heap_;
  int* slot_;
};

enum CellState : std::uint8_t { kFar = 0, kBand = 1, kAccepted = 2, kBlocked = 3 };

// The narrow-band sweep over raw arrays. toa holds the seeded times,
// state marks the seeds kBand, blocked cells kBlocked and the rest kFar.
class Propagation {
 public:
  Propagation(const CostField& field, double* toa, std::uint8_t* state,
              BandHeap& band)
      : nx_(field.nx()),
        ny_(field.ny()),
        step_(field.step_slownesses().data()),
        toa_(toa),
        state_(state),
        band_(band) {}

  // Accepts band cells in (time, index) order until the band is empty;
  // returns how many were accepted.
  int run() {
    int accepted = 0;
    while (!band_.empty()) {
      const int i = band_.pop();
      state_[i] = kAccepted;
      ++accepted;
      const int ix = i % nx_, iy = i / nx_;
      if (iy > 0) relax(i - nx_, ix, iy - 1);
      if (ix > 0) relax(i - 1, ix - 1, iy);
      if (ix + 1 < nx_) relax(i + 1, ix + 1, iy);
      if (iy + 1 < ny_) relax(i + nx_, ix, iy + 1);
    }
    return accepted;
  }

 private:
  void relax(int j, int jx, int jy) {
    if (state_[j] >= kAccepted) return;  // accepted or blocked
    const double nt = update(j, jx, jy);
    if (nt < toa_[j]) {
      toa_[j] = nt;
      if (state_[j] == kBand) {
        band_.decrease(j, nt);
      } else {
        state_[j] = kBand;
        band_.push(nt, j);
      }
    }
  }

  // Godunov first-order upwind update of cell j = (jx, jy) from its
  // ACCEPTED neighbours: the smaller one on each axis (the lower side on a
  // tie), with the tabulated slowness of the step from it. Returns +inf
  // when no accepted neighbour exists.
  double update(int j, int jx, int jy) const {
    double ta = CostField::kInf, tb = CostField::kInf;
    int sa = -1, sb = -1;
    if (jx > 0 && state_[j - 1] == kAccepted) {
      ta = toa_[j - 1];
      sa = CostField::kFromWest;
    }
    if (jx + 1 < nx_ && state_[j + 1] == kAccepted && toa_[j + 1] < ta) {
      ta = toa_[j + 1];
      sa = CostField::kFromEast;
    }
    if (jy > 0 && state_[j - nx_] == kAccepted) {
      tb = toa_[j - nx_];
      sb = CostField::kFromSouth;
    }
    if (jy + 1 < ny_ && state_[j + nx_] == kAccepted && toa_[j + nx_] < tb) {
      tb = toa_[j + nx_];
      sb = CostField::kFromNorth;
    }
    if (sa < 0 && sb < 0) return CostField::kInf;
    const double* steps = step_ + 4 * static_cast<std::ptrdiff_t>(j);
    if (sb < 0) return ta + steps[sa];
    if (sa < 0) return tb + steps[sb];

    // Two-sided quadratic: ((T-ta)/fa)^2 + ((T-tb)/fb)^2 = 1.
    const double fa = steps[sa], fb = steps[sb];
    const double ia = 1.0 / (fa * fa), ib = 1.0 / (fb * fb);
    const double A = ia + ib;
    const double B = -2.0 * (ta * ia + tb * ib);
    const double C = ta * ta * ia + tb * tb * ib - 1.0;
    const double disc = B * B - 4.0 * A * C;
    if (disc >= 0.0) {
      const double t = (-B + std::sqrt(disc)) / (2.0 * A);
      if (t >= std::max(ta, tb)) return t;
    }
    return std::min(ta + fa, tb + fb);
  }

  const int nx_, ny_;
  const double* step_;
  double* toa_;
  std::uint8_t* state_;
  BandHeap& band_;
};

}  // namespace

FastMarchResult fast_march(const CostField& field, Vec2 source) {
  FastMarchScratch scratch;
  return fast_march(field, source, scratch);
}

FastMarchResult fast_march(const CostField& field, Vec2 source,
                           FastMarchScratch& scratch) {
  ANR_CHECK_MSG(field.contains(source),
                "fast_march source outside the cost field");
  FastMarchResult out;
  const std::size_t n = static_cast<std::size_t>(field.cell_count());
  out.toa.assign(n, CostField::kInf);

  const int src = field.index_of(source);
  if (field.blocked(src)) {
    out.source_blocked = true;
    return out;
  }

  scratch.state_.resize(n);
  scratch.slot_.resize(n);
  std::uint8_t* state = scratch.state_.data();
  const double* cost = field.costs().data();
  for (std::size_t i = 0; i < n; ++i) {
    state[i] = cost[i] == CostField::kInf ? kBlocked : kFar;
  }
  BandHeap band(scratch.heap_, scratch.slot_.data());

  const int nx = field.nx(), ny = field.ny();

  // Exact initialization over a small visible disk, not just the source
  // cell: a single seed leaves the point-source singularity in place and
  // its O(h) error propagates along the diagonals forever. Seeding every
  // unblocked, source-visible cell within two cells with cost·distance
  // keeps the far field first-order and the interpolant monotone at the
  // source. Each seed respects the min_cost·distance lower bound, so the
  // inductive bound on the whole field survives.
  const int sx = src % nx, sy = src / nx;
  const double seed_radius = 2.0 * field.cell_size() + 1e-9;
  for (int dy = -2; dy <= 2; ++dy) {
    for (int dx = -2; dx <= 2; ++dx) {
      const int cx = sx + dx, cy = sy + dy;
      if (cx < 0 || cx >= nx || cy < 0 || cy >= ny) continue;
      const int c = cy * nx + cx;
      if (field.blocked(c)) continue;
      const Vec2 center = field.center(c);
      const double d = distance(source, center);
      if (d > seed_radius) continue;
      if (c != src && field.segment_blocked(source, center)) continue;
      const std::size_t uc = static_cast<std::size_t>(c);
      out.toa[uc] = field.cost(c) * d;
      state[uc] = kBand;
      band.push(out.toa[uc], c);
    }
  }
  out.accepted = Propagation(field, out.toa.data(), state, band).run();
  return out;
}

double sample_toa(const CostField& field, const std::vector<double>& toa,
                  Vec2 p) {
  ANR_CHECK_MSG(field.contains(p), "ToA sample outside the cost field");
  ANR_CHECK(toa.size() == static_cast<std::size_t>(field.cell_count()));
  const int nx = field.nx(), ny = field.ny();
  const double cell = field.cell_size();
  const double gx = (p.x - field.bounds().lo.x) / cell - 0.5;
  const double gy = (p.y - field.bounds().lo.y) / cell - 0.5;
  const int x0 = std::clamp(static_cast<int>(std::floor(gx)), 0,
                            std::max(0, nx - 2));
  const int y0 = std::clamp(static_cast<int>(std::floor(gy)), 0,
                            std::max(0, ny - 2));
  const int x1 = std::min(x0 + 1, nx - 1);
  const int y1 = std::min(y0 + 1, ny - 1);
  const double fx = std::clamp(gx - x0, 0.0, 1.0);
  const double fy = std::clamp(gy - y0, 0.0, 1.0);
  const double t00 = toa[static_cast<std::size_t>(y0 * nx + x0)];
  const double t10 = toa[static_cast<std::size_t>(y0 * nx + x1)];
  const double t01 = toa[static_cast<std::size_t>(y1 * nx + x0)];
  const double t11 = toa[static_cast<std::size_t>(y1 * nx + x1)];
  if (t00 < CostField::kInf && t10 < CostField::kInf &&
      t01 < CostField::kInf && t11 < CostField::kInf) {
    const double a = t00 + (t10 - t00) * fx;
    const double b = t01 + (t11 - t01) * fx;
    return a + (b - a) * fy;
  }
  // Corner-cutting stencil clipped by an unreached/blocked cell: fall back
  // to the containing cell's value (+inf when itself unreached).
  return toa[static_cast<std::size_t>(field.index_of(p))];
}

std::uint64_t toa_checksum(const std::vector<double>& toa) {
  std::string bytes;
  bytes.reserve(toa.size() * 8);
  for (double v : toa) {
    std::uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    for (int s = 0; s < 64; s += 8) {
      bytes.push_back(static_cast<char>((u >> s) & 0xff));
    }
  }
  return fnv1a64(bytes);
}

namespace {

// Central-difference gradient of the interpolated ToA surface. Returns
// false when any stencil sample is unreached (caller falls back to the
// discrete neighbor walk).
bool toa_gradient(const CostField& field, const std::vector<double>& toa,
                  Vec2 p, Vec2* grad) {
  const double eps = 0.45 * field.cell_size();
  const BBox& b = field.bounds();
  auto clamped = [&](Vec2 q) {
    q.x = std::clamp(q.x, b.lo.x, b.hi.x);
    q.y = std::clamp(q.y, b.lo.y, b.hi.y);
    return q;
  };
  const Vec2 xp = clamped({p.x + eps, p.y}), xm = clamped({p.x - eps, p.y});
  const Vec2 yp = clamped({p.x, p.y + eps}), ym = clamped({p.x, p.y - eps});
  const double sxp = sample_toa(field, toa, xp);
  const double sxm = sample_toa(field, toa, xm);
  const double syp = sample_toa(field, toa, yp);
  const double sym = sample_toa(field, toa, ym);
  if (sxp == CostField::kInf || sxm == CostField::kInf ||
      syp == CostField::kInf || sym == CostField::kInf) {
    return false;
  }
  const double dx = std::max(xp.x - xm.x, 1e-12);
  const double dy = std::max(yp.y - ym.y, 1e-12);
  *grad = {(sxp - sxm) / dx, (syp - sym) / dy};
  return true;
}

double point_segment_distance(Vec2 p, Vec2 a, Vec2 b) {
  const Segment s{a, b};
  return distance(p, lerp(a, b, closest_point_param(s, p)));
}

// Douglas–Peucker marking pass that never collapses a subchain whose
// shortcut segment would pass through a blocked cell.
void dp_mark(const CostField& field, const std::vector<Vec2>& pts,
             std::size_t a, std::size_t b, double tol,
             std::vector<char>& keep) {
  if (b <= a + 1) return;
  double dmax = -1.0;
  std::size_t imax = a + 1;
  for (std::size_t i = a + 1; i < b; ++i) {
    const double d = point_segment_distance(pts[i], pts[a], pts[b]);
    if (d > dmax) {
      dmax = d;
      imax = i;
    }
  }
  if (dmax <= tol && !field.segment_blocked(pts[a], pts[b])) return;
  keep[imax] = 1;
  dp_mark(field, pts, a, imax, tol, keep);
  dp_mark(field, pts, imax, b, tol, keep);
}

std::vector<Vec2> simplify_path(const CostField& field,
                                const std::vector<Vec2>& pts, double tol) {
  if (pts.size() <= 2) return pts;
  std::vector<char> keep(pts.size(), 0);
  keep.front() = keep.back() = 1;
  dp_mark(field, pts, 0, pts.size() - 1, tol, keep);
  std::vector<Vec2> out;
  out.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (keep[i]) out.push_back(pts[i]);
  }
  return out;
}

}  // namespace

GeodesicPath extract_geodesic(const CostField& field,
                              const FastMarchResult& fm, Vec2 source,
                              Vec2 goal) {
  ANR_CHECK(field.contains(source) && field.contains(goal));
  ANR_CHECK(fm.toa.size() == static_cast<std::size_t>(field.cell_count()));
  GeodesicPath out;
  if (fm.source_blocked) {
    out.failure = "unreachable";
    return out;
  }
  const int gcell = field.index_of(goal);
  if (!fm.reached(gcell)) {
    out.failure = field.blocked(gcell) ? "blocked_goal" : "unreachable";
    return out;
  }
  const double goal_sample = sample_toa(field, fm.toa, goal);
  out.time = goal_sample < CostField::kInf
                 ? goal_sample
                 : fm.toa[static_cast<std::size_t>(gcell)];

  const double cell = field.cell_size();
  const double step = 0.5 * cell;
  const int nx = field.nx(), ny = field.ny();
  const int max_steps = 8 * (nx + ny) + 64;

  std::vector<Vec2> rev{goal};
  Vec2 cur = goal;
  bool arrived = false;
  for (int it = 0; it < max_steps; ++it) {
    if (distance(cur, source) <= cell && !field.segment_blocked(cur, source)) {
      arrived = true;
      break;
    }
    const double tcur = sample_toa(field, fm.toa, cur);
    Vec2 cand;
    bool have = false;

    Vec2 g;
    if (tcur < CostField::kInf && toa_gradient(field, fm.toa, cur, &g)) {
      const double glen = g.norm();
      if (glen > 1e-12) {
        const Vec2 c = cur - g * (step / glen);
        if (field.contains(c) &&
            sample_toa(field, fm.toa, c) < tcur - 1e-12 &&
            !field.segment_blocked(cur, c)) {
          cand = c;
          have = true;
        }
      }
    }
    if (!have) {
      // Discrete fallback: hop to the 4-neighbor cell center with the
      // smallest arrival time (ties go to the lower index via scan order).
      // Diagonal hops are excluded so each hop only crosses the two
      // edge-adjacent cells, both known unblocked.
      const int ci = field.index_of(cur);
      const double tc = fm.toa[static_cast<std::size_t>(ci)];
      const int cx = ci % nx, cy = ci / nx;
      const int neighbors[4] = {cy > 0 ? ci - nx : -1, cx > 0 ? ci - 1 : -1,
                                cx + 1 < nx ? ci + 1 : -1,
                                cy + 1 < ny ? ci + nx : -1};
      int best = -1;
      double best_t = tc;
      for (int nb : neighbors) {
        if (nb < 0) continue;
        const double tn = fm.toa[static_cast<std::size_t>(nb)];
        if (tn < best_t) {
          best_t = tn;
          best = nb;
        }
      }
      if (best >= 0) {
        cand = field.center(best);
        have = true;
      }
    }
    if (!have) {
      out.failure = "stuck_descent";
      return out;
    }
    rev.push_back(cand);
    cur = cand;
  }
  if (!arrived) {
    out.failure = "stuck_descent";
    return out;
  }
  rev.push_back(source);
  std::reverse(rev.begin(), rev.end());
  out.points = simplify_path(field, rev, 0.25 * cell);
  out.ok = true;
  return out;
}

}  // namespace anr
