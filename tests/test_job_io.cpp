// NDJSON job schema: FoI round trips, request parsing (scenario shortcut,
// explicit geometry, options), deployment memoization, result lines.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "foi/scenario.h"
#include "foi/shapes.h"
#include "io/job_io.h"
#include "io/json.h"

namespace anr {
namespace {

TEST(JobIo, FoiRoundTripPreservesGeometry) {
  Scenario sc = scenario(4);  // has holes
  ASSERT_TRUE(sc.m1.has_holes() || sc.m2_shape.has_holes());
  const FieldOfInterest& foi =
      sc.m1.has_holes() ? sc.m1 : sc.m2_shape;
  FieldOfInterest back = foi_from_json(json::parse(foi_to_json(foi).dump()));
  ASSERT_EQ(back.outer().size(), foi.outer().size());
  ASSERT_EQ(back.holes().size(), foi.holes().size());
  for (std::size_t i = 0; i < foi.outer().size(); ++i) {
    EXPECT_EQ(back.outer()[i], foi.outer()[i]);
  }
  EXPECT_DOUBLE_EQ(back.area(), foi.area());
}

TEST(JobIo, ScenarioShortcutFillsGeometryAndDeployment) {
  auto v = json::parse(
      R"({"id": "s1", "scenario": 1, "separation": 15.0, "robots": 64,
          "options": {"objective": "b", "grid_points": 400}})");
  std::map<std::string, std::vector<Vec2>> memo;
  JobRequest req = job_from_json(v, &memo);
  EXPECT_EQ(req.job.id, "s1");
  Scenario sc = scenario(1);
  EXPECT_DOUBLE_EQ(req.job.r_c, sc.comm_range);
  EXPECT_EQ(req.job.positions.size(), 64u);
  EXPECT_EQ(req.job.options.objective, MarchObjective::kMinDistance);
  EXPECT_EQ(req.job.options.mesher.target_grid_points, 400);
  Vec2 expect_off = sc.m1.centroid() + Vec2{15.0 * sc.comm_range, 0.0} -
                    sc.m2_shape.centroid();
  EXPECT_NEAR(req.job.m2_offset.x, expect_off.x, 1e-12);
  EXPECT_NEAR(req.job.m2_offset.y, expect_off.y, 1e-12);
  // Deployment generation was memoized under a stable key.
  EXPECT_EQ(memo.size(), 1u);
  JobRequest again = job_from_json(v, &memo);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(again.job.positions, req.job.positions);
}

TEST(JobIo, ExplicitGeometryAndPositions) {
  Polygon m1_outer = make_blob({0.0, 0.0}, 400.0, {{3, 0.1, 0.0}}, 64);
  Polygon m2_outer = make_blob({0.0, 0.0}, 380.0, {{4, 0.12, 0.5}}, 64);
  json::Object req_o;
  req_o.emplace("id", "explicit");
  req_o.emplace("m1", foi_to_json(FieldOfInterest(m1_outer)));
  req_o.emplace("m2", foi_to_json(FieldOfInterest(m2_outer)));
  req_o.emplace("r_c", 90.0);
  json::Object off;
  off.emplace("x", 1000.0);
  off.emplace("y", -50.0);
  req_o.emplace("offset", std::move(off));
  json::Array xs, ys;
  for (int i = 0; i < 5; ++i) {
    xs.emplace_back(10.0 * i);
    ys.emplace_back(-5.0 * i);
  }
  json::Object pos;
  pos.emplace("x", std::move(xs));
  pos.emplace("y", std::move(ys));
  req_o.emplace("positions", std::move(pos));
  req_o.emplace("include_plan", true);

  JobRequest req = job_from_json(json::Value(std::move(req_o)));
  EXPECT_TRUE(req.include_plan);
  EXPECT_DOUBLE_EQ(req.job.r_c, 90.0);
  ASSERT_EQ(req.job.positions.size(), 5u);
  EXPECT_EQ(req.job.positions[2], (Vec2{20.0, -10.0}));
  EXPECT_EQ(req.job.m2_offset, (Vec2{1000.0, -50.0}));
}

TEST(JobIo, MissingGeometryAndBadEnumsThrow) {
  EXPECT_THROW(job_from_json(json::parse(R"({"id": "empty"})")),
               std::runtime_error);
  EXPECT_THROW(job_from_json(json::parse(
                   R"({"scenario": 1, "options": {"objective": "zz"}})")),
               std::runtime_error);
  EXPECT_THROW(job_from_json(json::parse(
                   R"({"scenario": 1, "options": {"extraction": "zz"}})")),
               std::runtime_error);
}

TEST(JobIo, OutOfRangeIntegerFieldsThrow) {
  // Casting these to int would be undefined behaviour; they are refused.
  for (const char* line :
       {R"({"scenario": 1e300})", R"({"scenario": 1, "robots": -1e30})",
        R"({"scenario": 1, "seed": -1})", R"({"scenario": 1, "seed": 1e20})",
        R"({"scenario": 1, "options": {"grid_points": 3e10}})",
        R"({"scenario": 1, "options": {"rotation_depth": -3e9}})"}) {
    EXPECT_THROW(job_from_json(json::parse(line)), std::runtime_error) << line;
  }
}

TEST(JobIo, NonPositiveTransitionTimeThrows) {
  // Timed paths need a positive T; such a job would fail every planning
  // mode after queueing instead of being refused at the line.
  for (const char* line :
       {R"({"scenario": 1, "options": {"transition_time": -1}})",
        R"({"scenario": 1, "options": {"transition_time": 0}})",
        R"({"scenario": 1, "options": {"transition_time": 1e999}})"}) {
    EXPECT_THROW(job_from_json(json::parse(line)), std::runtime_error) << line;
  }
  EXPECT_NO_THROW(job_from_json(json::parse(
      R"({"scenario": 1, "robots": 8, "options": {"transition_time": 2.5}})")));
}

// Every truncation and every single-byte change of a valid job line
// either parses into a request or throws a typed error (a JSON parse
// error or other runtime_error, or a ContractViolation); nothing crashes.
TEST(JobIo, JobLineSurvivesTruncationAndByteFlips) {
  const std::string line =
      R"({"id":"f","scenario":1,"robots":8,"seed":3,"separation":12.5,)"
      R"("options":{"objective":"a","grid_points":350,"cvt_samples":4000,)"
      R"("max_adjust_steps":5}})";
  std::map<std::string, std::vector<Vec2>> memo;
  ASSERT_NO_THROW(job_from_json(json::parse(line), &memo));
  int parsed = 0;
  int refused = 0;
  auto feed = [&](const std::string& text) {
    try {
      job_from_json(json::parse(text), &memo);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++refused;
    } catch (const ContractViolation&) {
      ++refused;
    }
  };
  for (std::size_t len = 0; len < line.size(); ++len) {
    feed(line.substr(0, len));
  }
  for (std::size_t i = 0; i < line.size(); ++i) {
    for (int mask = 1; mask < 256; ++mask) {
      std::string bad = line;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      feed(bad);
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, 0);
}

TEST(JobIo, ResultLinesCarryDiagnosticsAndErrors) {
  runtime::JobResult bad;
  bad.id = "x";
  bad.ok = false;
  bad.error = "queue full (capacity 4)";
  json::Value vb = json::parse(result_to_json(bad, false).dump());
  EXPECT_EQ(vb.at("id").as_string(), "x");
  EXPECT_FALSE(vb.at("ok").as_bool());
  EXPECT_EQ(vb.at("error").as_string(), "queue full (capacity 4)");

  runtime::JobResult good;
  good.id = "y";
  good.ok = true;
  good.cache_hit = true;
  good.plan_seconds = 0.25;
  good.plan.rotation_angle = 1.5;
  good.plan.predicted_link_ratio = 0.9;
  good.plan.start = {{0, 0}, {1, 1}};
  json::Value vg = json::parse(result_to_json(good, true).dump());
  EXPECT_TRUE(vg.at("ok").as_bool());
  EXPECT_TRUE(vg.at("cache_hit").as_bool());
  EXPECT_DOUBLE_EQ(vg.at("rotation_angle").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(vg.at("plan_seconds").as_number(), 0.25);
  EXPECT_EQ(vg.at("robots").as_number(), 2.0);
  // include_plan embeds the full persistable plan document.
  EXPECT_EQ(vg.at("plan").at("format").as_string(), "anr-march-plan/1");
  json::Value compact = json::parse(result_to_json(good, false).dump());
  EXPECT_FALSE(compact.has("plan"));
}

}  // namespace
}  // namespace anr
