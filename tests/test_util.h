// Shared helpers for the libanr test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "foi/foi.h"
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
