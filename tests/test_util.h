// Shared helpers for the libanr test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "foi/foi.h"
#include "foi/scenario.h"
#include "geom/polygon.h"
#include "geom/vec2.h"
#include "runtime/mission_service.h"

namespace anr::testutil {

/// n uniform points in [lo, hi]^2.
inline std::vector<Vec2> random_points(int n, double lo, double hi,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(lo, hi), rng.uniform(lo, hi)});
  }
  return pts;
}

/// `job` with a density closure that blocks until `open` is ready: its
/// planner build holds a service worker for as long as the test needs.
inline runtime::PlanJob gated_job(runtime::PlanJob job,
                                  std::shared_future<void> open) {
  job.options.density = [open](Vec2) {
    open.wait();
    return 1.0;
  };
  job.closure_tag = "gated";
  return job;
}

/// Unit square FoI scaled to side `s`.
inline FieldOfInterest square_foi(double s) {
  return FieldOfInterest(make_rect({0.0, 0.0}, {s, s}));
}

/// Square FoI with a centered circular hole.
inline FieldOfInterest square_with_hole(double s, double hole_r) {
  return FieldOfInterest(make_rect({0.0, 0.0}, {s, s}),
                         {make_circle({s / 2.0, s / 2.0}, hole_r, 32)});
}

/// Triangular-lattice robot deployment clipped to a circle, spacing d.
inline std::vector<Vec2> lattice_disk(Vec2 center, double radius, double d) {
  FieldOfInterest disk{make_circle(center, radius, 64)};
  return disk.lattice_points(d);
}

/// `foi` scaled by `s` about its centroid.
inline FieldOfInterest scaled_foi(const FieldOfInterest& foi, double s) {
  const Vec2 c = foi.centroid();
  auto scale = [&](const Polygon& p) {
    std::vector<Vec2> pts;
    for (Vec2 q : p.points()) pts.push_back(c + (q - c) * s);
    return Polygon(std::move(pts));
  };
  std::vector<Polygon> holes;
  for (const Polygon& h : foi.holes()) holes.push_back(scale(h));
  return FieldOfInterest(scale(foi.outer()), std::move(holes));
}

/// The plan_swarm_4k deployment: scenario 1's M1 scaled to hold 4096
/// lattice robots at the density of 144, each nudged by a seeded jitter of
/// at most a tenth of the spacing (fleet seed 15, stream 1).
inline std::vector<Vec2> swarm_4k_points() {
  const int n = 4096;
  const Scenario sc = scenario(1);
  const FieldOfInterest m1 =
      scaled_foi(sc.m1, std::sqrt(n / static_cast<double>(sc.num_robots)));
  double h = std::sqrt(2.0 * m1.area() / (std::sqrt(3.0) * n));
  std::vector<Vec2> pts = m1.lattice_points(h);
  for (int guard = 0; static_cast<int>(pts.size()) < n && guard < 64; ++guard) {
    h *= 0.97;
    pts = m1.lattice_points(h);
  }
  pts.resize(n);
  Rng rng(splitmix64(splitmix64(15) ^ 2));
  for (Vec2& p : pts) {
    const double a = rng.uniform(0.0, 2.0 * M_PI);
    const double r = 0.1 * h * std::sqrt(rng.uniform(0.0, 1.0));
    const Vec2 q = p + Vec2{r * std::cos(a), r * std::sin(a)};
    if (m1.contains(q)) p = q;
  }
  return pts;
}

/// Expects `got` to equal the golden file at `path` byte for byte. Under
/// ANR_REGEN_GOLDEN=1 the file is rewritten instead and the test skipped.
inline void expect_golden(const std::string& path, const std::string& got) {
  if (std::getenv("ANR_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out << got) << "cannot write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (run with ANR_REGEN_GOLDEN=1)";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(got, ss.str()) << "bytes diverged from the golden " << path;
}

}  // namespace anr::testutil
