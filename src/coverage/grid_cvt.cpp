#include "coverage/grid_cvt.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/task_arena.h"
#include "geom/polygon.h"

namespace anr {

GridCvt::GridCvt(const FieldOfInterest& foi, DensityFn density,
                 int target_samples)
    : foi_(foi) {
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
  const int block_ny = static_cast<int>(std::floor(box.height() / block_)) + 1;
  auto block_of = [&](Vec2 p) {
    const int bx = std::min(
        static_cast<int>(std::floor((p.x - block_lo_.x) / block_)),
        block_nx_ - 1);
    const int by = std::min(
        static_cast<int>(std::floor((p.y - block_lo_.y) / block_)),
        block_ny - 1);
    return static_cast<std::size_t>(bx) +
           static_cast<std::size_t>(by) * static_cast<std::size_t>(block_nx_);
  };
  const std::size_t nblocks = static_cast<std::size_t>(block_nx_) *
                              static_cast<std::size_t>(block_ny);
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
}

std::vector<Vec2> GridCvt::centroids(const std::vector<Vec2>& sites) const {
  Scratch scratch;
  std::vector<Vec2> out;
  centroids_into(sites, scratch, out);
  return out;
}

void GridCvt::centroids_into(const std::vector<Vec2>& sites, Scratch& scratch,
                             std::vector<Vec2>& out) const {
  ANR_CHECK(!sites.empty());
  // Exact nearest-site assignment, block by block. Every sample of a block
  // lies within half_diag of the block centre c, so if the site nearest to
  // c is dc away, every sample's nearest site lies within dc + 2 half_diag
  // of c: one radius query per block yields a short candidate list (about
  // two sites), and each sample takes the argmin over it. A sample whose
  // two best squared distances agree to a relative 1e-12 is a near-tie;
  // it takes the per-sample ring scan over the 4 x spacing site index, so
  // ties resolve in that scan's order. The parallel phase only writes each
  // sample's own `site_of` slot and its chunk's candidate buffer; the
  // floating-point centroid sums then accumulate serially in sample order,
  // so the result is identical at any parallelism level.
  const std::size_t nsites = sites.size();
  scratch.site_index.rebuild(sites, std::max(spacing_ * 4.0, 1e-9));
  scratch.site_grid.rebuild(
      sites, std::max(block_, std::sqrt(foi_.area() /
                                        static_cast<double>(nsites))));
  const std::size_t kBlockGrain = 64;
  const std::size_t nblocks = block_start_.size() - 1;
  const std::size_t nchunks = (nblocks + kBlockGrain - 1) / kBlockGrain;
  if (scratch.candidates.size() < nchunks) scratch.candidates.resize(nchunks);
  const double half_diag = block_ * std::sqrt(0.5);
  scratch.site_of.resize(samples_.size());
  parallel_chunks(nblocks, kBlockGrain,
                  [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    std::vector<int>& cand = scratch.candidates[chunk];
    for (std::size_t b = begin; b < end; ++b) {
      const int first = block_start_[b], last = block_start_[b + 1];
      if (first == last) continue;
      const std::size_t bx = b % static_cast<std::size_t>(block_nx_);
      const std::size_t by = b / static_cast<std::size_t>(block_nx_);
      const Vec2 c = block_lo_ + Vec2{(static_cast<double>(bx) + 0.5) * block_,
                                      (static_cast<double>(by) + 0.5) * block_};
      const int near_c = scratch.site_grid.nearest(c);
      // The relative margin absorbs rounding in every distance involved.
      const double reach =
          (distance(c, sites[static_cast<std::size_t>(near_c)]) +
           2.0 * half_diag) * (1.0 + 1e-9);
      scratch.site_grid.query_radius_into(c, reach, cand);
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
        if (second - best <= 1e-12 * second) {
          site = scratch.site_index.nearest(samples_[s]);
        }
        scratch.site_of[s] = site;
      }
    }
  });
  scratch.acc.assign(nsites, Vec2{});
  scratch.mass.assign(nsites, 0.0);
  for (std::size_t s = 0; s < samples_.size(); ++s) {
    const std::size_t site = static_cast<std::size_t>(scratch.site_of[s]);
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
    if (!foi_.contains(c)) c = nearest_sample(c);
    out.push_back(c);
  }
}

Vec2 GridCvt::nearest_sample(Vec2 p) const {
  int idx = sample_index_->nearest(p);
  ANR_CHECK(idx >= 0);
  return samples_[static_cast<std::size_t>(idx)];
}

}  // namespace anr
