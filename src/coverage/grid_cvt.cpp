#include "coverage/grid_cvt.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.h"
#include "common/task_arena.h"
#include "geom/polygon.h"

namespace anr {

namespace {

// Sample blocks per parallel chunk of the list build and the assignment.
constexpr std::size_t kBlockGrain = 64;

std::atomic<std::uint64_t> next_grid_id{0};

}  // namespace

GridCvt::GridCvt(const FieldOfInterest& foi, DensityFn density,
                 int target_samples)
    : id_(next_grid_id.fetch_add(1) + 1), foi_(foi) {
  ANR_CHECK(target_samples >= 64);
  double area = foi.area();
  spacing_ = std::sqrt(2.0 * area /
                       (std::sqrt(3.0) * static_cast<double>(target_samples)));
  samples_ = foi.lattice_points(spacing_);
  ANR_CHECK_MSG(samples_.size() >= 16, "FoI too small for CVT sampling");
  weight_.reserve(samples_.size());
  for (Vec2 p : samples_) {
    double w = density(p);
    ANR_CHECK_MSG(w >= 0.0, "density must be nonnegative");
    weight_.push_back(w);
  }
  sample_index_ = std::make_unique<GridIndex>(samples_, spacing_);

  // Bucket the samples into square blocks (CSR by counting sort; ids stay
  // increasing within a block). The fill advances each block's start to
  // its end, so one shift restores the starts without a cursor array.
  block_ = 4.0 * spacing_;
  BBox box;
  for (Vec2 p : samples_) box.expand(p);
  block_lo_ = box.lo;
  block_nx_ = static_cast<int>(std::floor(box.width() / block_)) + 1;
  block_ny_ = static_cast<int>(std::floor(box.height() / block_)) + 1;
  auto block_of = [&](Vec2 p) {
    const int bx = std::min(
        static_cast<int>(std::floor((p.x - block_lo_.x) / block_)),
        block_nx_ - 1);
    const int by = std::min(
        static_cast<int>(std::floor((p.y - block_lo_.y) / block_)),
        block_ny_ - 1);
    return static_cast<std::size_t>(bx) +
           static_cast<std::size_t>(by) * static_cast<std::size_t>(block_nx_);
  };
  const std::size_t nblocks = static_cast<std::size_t>(block_nx_) *
                              static_cast<std::size_t>(block_ny_);
  block_start_.assign(nblocks + 1, 0);
  for (Vec2 p : samples_) ++block_start_[block_of(p) + 1];
  for (std::size_t b = 0; b < nblocks; ++b) {
    block_start_[b + 1] += block_start_[b];
  }
  block_samples_.resize(samples_.size());
  for (std::size_t s = 0; s < samples_.size(); ++s) {
    block_samples_[static_cast<std::size_t>(
        block_start_[block_of(samples_[s])]++)] = static_cast<int>(s);
  }
  for (std::size_t b = nblocks; b > 0; --b) {
    block_start_[b] = block_start_[b - 1];
  }
  block_start_[0] = 0;

  // Interior blocks. Every block whose square, grown by `pad`, meets an
  // FoI edge is cleared (a conservative separating-axis test per edge over
  // the blocks its box covers, plus one block of margin). A remaining
  // block that holds a sample lies wholly inside the FoI: the grown square
  // is connected and crosses no edge, and the sample (a lattice point that
  // passed foi.contains) is in it. The pad dwarfs the rounding of
  // block_index, so a centroid it places in a flagged block is inside too.
  const double pad = 1e-6 * block_;
  block_interior_.assign(nblocks, 1);
  auto clear_edge = [&](Vec2 a, Vec2 b) {
    const Vec2 mid = (a + b) * 0.5, half = (b - a) * 0.5;
    const double h = 0.5 * block_ + pad;
    auto cell = [&](double v, double lo, int n) {
      return static_cast<int>(std::clamp(std::floor((v - lo) / block_), 0.0,
                                         static_cast<double>(n - 1)));
    };
    const int bx0 = std::max(cell(std::min(a.x, b.x), block_lo_.x, block_nx_) - 1, 0);
    const int bx1 = std::min(cell(std::max(a.x, b.x), block_lo_.x, block_nx_) + 1,
                             block_nx_ - 1);
    const int by0 = std::max(cell(std::min(a.y, b.y), block_lo_.y, block_ny_) - 1, 0);
    const int by1 = std::min(cell(std::max(a.y, b.y), block_lo_.y, block_ny_) + 1,
                             block_ny_ - 1);
    for (int by = by0; by <= by1; ++by) {
      for (int bx = bx0; bx <= bx1; ++bx) {
        const std::size_t b = static_cast<std::size_t>(bx) +
                              static_cast<std::size_t>(by) *
                                  static_cast<std::size_t>(block_nx_);
        const Vec2 d = mid - block_centre(b);
        const bool apart =
            std::abs(d.x) > h + std::abs(half.x) ||
            std::abs(d.y) > h + std::abs(half.y) ||
            std::abs(half.cross(d)) > h * (std::abs(half.x) + std::abs(half.y));
        if (!apart) block_interior_[b] = 0;
      }
    }
  };
  auto clear_loop = [&](const Polygon& poly) {
    for (const Segment& e : poly.edges()) clear_edge(e.a, e.b);
  };
  clear_loop(foi_.outer());
  for (const Polygon& h : foi_.holes()) clear_loop(h);
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (block_start_[b] == block_start_[b + 1]) block_interior_[b] = 0;
  }
}

std::vector<Vec2> GridCvt::centroids(const std::vector<Vec2>& sites) const {
  Scratch scratch;
  std::vector<Vec2> out;
  centroids_into(sites, scratch, out);
  return out;
}

double GridCvt::list_slack(std::size_t nsites) const {
  ANR_CHECK(nsites > 0);
  return 0.5 * std::min(block_, std::sqrt(foi_.area() /
                                          static_cast<double>(nsites)));
}

std::vector<BBox> GridCvt::interior_blocks() const {
  std::vector<BBox> out;
  for (std::size_t b = 0; b < block_interior_.size(); ++b) {
    if (block_interior_[b] == 0) continue;
    const Vec2 c = block_centre(b);
    BBox box;
    box.expand(c - Vec2{0.5 * block_, 0.5 * block_});
    box.expand(c + Vec2{0.5 * block_, 0.5 * block_});
    out.push_back(box);
  }
  return out;
}

long GridCvt::block_index(Vec2 p) const {
  const double fx = (p.x - block_lo_.x) / block_;
  const double fy = (p.y - block_lo_.y) / block_;
  if (!(fx >= 0.0 && fy >= 0.0 && fx < block_nx_ && fy < block_ny_)) return -1;
  return static_cast<long>(fx) + static_cast<long>(fy) * block_nx_;
}

Vec2 GridCvt::block_centre(std::size_t b) const {
  const std::size_t nx = static_cast<std::size_t>(block_nx_);
  return block_lo_ + Vec2{(static_cast<double>(b % nx) + 0.5) * block_,
                          (static_cast<double>(b / nx) + 0.5) * block_};
}

namespace {

// A block's square, seen from a site at offset d from its centre: the
// squared distances to its nearest and to its farthest point.
struct SquareBounds {
  double h;  ///< half side, grown so samples rounded just outside count
  double near2(Vec2 d) const {
    const double dx = std::max(std::abs(d.x) - h, 0.0);
    const double dy = std::max(std::abs(d.y) - h, 0.0);
    return dx * dx + dy * dy;
  }
  double far2(Vec2 d) const {
    const double dx = std::abs(d.x) + h, dy = std::abs(d.y) + h;
    return dx * dx + dy * dy;
  }
};

// Relative margin that absorbs rounding in every distance bound below.
constexpr double kBoundMargin = 1.0 + 1e-9;

// Appends to `out` each of the sites ids[0 .. n) whose nearest-point
// distance to the square centred at c is at most U + widen, where U is
// the smallest farthest-point distance from one of them to the square.
void keep_near_square(const int* ids, std::size_t n,
                      const std::vector<Vec2>& sites, Vec2 c,
                      const SquareBounds& square, double widen,
                      std::vector<int>& out) {
  double u2 = 1e300;
  for (std::size_t j = 0; j < n; ++j) {
    u2 = std::min(u2, square.far2(sites[static_cast<std::size_t>(ids[j])] - c));
  }
  const double keep = (std::sqrt(u2) + widen) * kBoundMargin;
  for (std::size_t j = 0; j < n; ++j) {
    if (square.near2(sites[static_cast<std::size_t>(ids[j])] - c) <=
        keep * keep) {
      out.push_back(ids[j]);
    }
  }
}

}  // namespace

void GridCvt::build_candidate_lists(const std::vector<Vec2>& sites,
                                    Scratch& scratch) const {
  // U = the smallest farthest-point distance from a site to block b's
  // square bounds the distance from each of its samples to the nearest
  // site, so only sites whose nearest-point distance to the square is at
  // most U can be a sample's nearest site or within a relative 1e-12 of
  // it (a near-tie). While each site stays within W of where it is now, U
  // grows by at most W and a site comes at most W closer, so the list
  // keeps every site whose nearest-point distance is at most U + 2 W.
  // Those all lie within dc + 2 half_diag + 2 W of the centre c, where dc
  // is the distance from c to its nearest site: one radius query finds
  // them.
  const std::size_t nsites = sites.size();
  scratch.site_grid.rebuild(
      sites, std::max(block_, std::sqrt(foi_.area() /
                                        static_cast<double>(nsites))));
  scratch.slack = list_slack(nsites);
  scratch.built_at = sites;
  scratch.built_for = id_;
  const std::size_t nblocks = block_start_.size() - 1;
  const std::size_t nchunks = (nblocks + kBlockGrain - 1) / kBlockGrain;
  if (scratch.chunk_sites.size() < nchunks) scratch.chunk_sites.resize(nchunks);
  scratch.cand_start.assign(nblocks + 1, 0);
  const SquareBounds square{0.5 * block_ * kBoundMargin};
  const double reach_pad = 2.0 * square.h * std::sqrt(2.0) + 2.0 * scratch.slack;
  parallel_chunks(nblocks, kBlockGrain,
                  [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    std::vector<int>& buf = scratch.chunk_sites[chunk];
    buf.clear();
    std::vector<int> found;
    for (std::size_t b = begin; b < end; ++b) {
      if (block_start_[b] == block_start_[b + 1]) continue;
      const Vec2 c = block_centre(b);
      const int near_c = scratch.site_grid.nearest(c);
      const double reach =
          (distance(c, sites[static_cast<std::size_t>(near_c)]) + reach_pad) *
          kBoundMargin;
      scratch.site_grid.query_radius_into(c, reach, found);
      const std::size_t first = buf.size();
      keep_near_square(found.data(), found.size(), sites, c, square,
                       2.0 * scratch.slack, buf);
      scratch.cand_start[b + 1] = static_cast<int>(buf.size() - first);
    }
  });
  for (std::size_t b = 0; b < nblocks; ++b) {
    scratch.cand_start[b + 1] += scratch.cand_start[b];
  }
  scratch.cand_sites.clear();
  for (std::size_t chunk = 0; chunk < nchunks; ++chunk) {
    const std::vector<int>& buf = scratch.chunk_sites[chunk];
    scratch.cand_sites.insert(scratch.cand_sites.end(), buf.begin(), buf.end());
  }
}

void GridCvt::centroids_into(const std::vector<Vec2>& sites, Scratch& scratch,
                             std::vector<Vec2>& out) const {
  ANR_CHECK(!sites.empty());
  // Exact nearest-site assignment, block by block. Each step narrows the
  // block's cached list (see build_candidate_lists) to the sites whose
  // nearest-point distance to the square is at most U, the smallest
  // farthest-point distance among them: that keeps each sample's nearest
  // site and its near-ties, often just one site, and each sample takes
  // the argmin over them. A sample whose two best squared distances agree
  // to a relative 1e-12 is a near-tie; it takes the per-sample ring scan
  // over the 4 x spacing site index, so ties resolve in that scan's order.
  // Extra candidates change neither the argmin nor which samples count as
  // near-ties, so the result is that of an all-site scan. The parallel
  // phase only writes each sample's own `site_of` slot and its chunk's
  // buffer; ties and the floating-point centroid sums are then settled
  // serially in sample order, so the result is identical at any
  // parallelism level.
  const std::size_t nsites = sites.size();
  bool lists_valid =
      scratch.built_for == id_ && scratch.built_at.size() == nsites;
  const double slack2 = scratch.slack * scratch.slack;
  for (std::size_t i = 0; lists_valid && i < nsites; ++i) {
    lists_valid = distance2(sites[i], scratch.built_at[i]) <= slack2;
  }
  if (!lists_valid) build_candidate_lists(sites, scratch);
  const std::size_t nblocks = block_start_.size() - 1;
  const SquareBounds square{0.5 * block_ * kBoundMargin};
  scratch.site_of.resize(samples_.size());
  parallel_chunks(nblocks, kBlockGrain,
                  [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    std::vector<int>& cand = scratch.chunk_sites[chunk];
    for (std::size_t b = begin; b < end; ++b) {
      const int first = block_start_[b], last = block_start_[b + 1];
      if (first == last) continue;
      cand.clear();
      keep_near_square(
          scratch.cand_sites.data() + scratch.cand_start[b],
          static_cast<std::size_t>(scratch.cand_start[b + 1] -
                                   scratch.cand_start[b]),
          sites, block_centre(b), square, 0.0, cand);
      if (cand.size() == 1) {
        for (int k = first; k < last; ++k) {
          scratch.site_of[static_cast<std::size_t>(block_samples_[
              static_cast<std::size_t>(k)])] = cand[0];
        }
        continue;
      }
      for (int k = first; k < last; ++k) {
        const std::size_t s =
            static_cast<std::size_t>(block_samples_[static_cast<std::size_t>(k)]);
        double best = 1e300, second = 1e300;
        int site = -1;
        for (int i : cand) {
          const double d2 = distance2(sites[static_cast<std::size_t>(i)],
                                      samples_[s]);
          if (d2 < best) {
            second = best;
            best = d2;
            site = i;
          } else if (d2 < second) {
            second = d2;
          }
        }
        // A near-tie is settled below, serially, by the ring scan.
        scratch.site_of[s] = second - best <= 1e-12 * second ? -1 : site;
      }
    }
  });
  scratch.acc.assign(nsites, Vec2{});
  scratch.mass.assign(nsites, 0.0);
  bool tie_index_built = false;
  for (std::size_t s = 0; s < samples_.size(); ++s) {
    int& slot = scratch.site_of[s];
    if (slot < 0) {
      if (!tie_index_built) {
        scratch.site_index.rebuild(sites, std::max(spacing_ * 4.0, 1e-9));
        tie_index_built = true;
      }
      slot = scratch.site_index.nearest(samples_[s]);
    }
    const std::size_t site = static_cast<std::size_t>(slot);
    scratch.acc[site] += samples_[s] * weight_[s];
    scratch.mass[site] += weight_[s];
  }
  out.clear();
  out.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (scratch.mass[i] <= 0.0) {
      out.push_back(sites[i]);
      continue;
    }
    Vec2 c = scratch.acc[i] / scratch.mass[i];
    const long b = block_index(c);
    const bool interior = b >= 0 && block_interior_[static_cast<std::size_t>(b)];
    if (!interior && !foi_.contains(c)) c = nearest_sample(c);
    out.push_back(c);
  }
}

Vec2 GridCvt::nearest_sample(Vec2 p) const {
  int idx = sample_index_->nearest(p);
  ANR_CHECK(idx >= 0);
  return samples_[static_cast<std::size_t>(idx)];
}

}  // namespace anr
