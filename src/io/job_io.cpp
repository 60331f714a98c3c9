#include "io/job_io.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "coverage/lloyd.h"
#include "foi/scenario.h"
#include "io/plan_io.h"
#include "net/connectivity.h"

namespace anr {

namespace {

// Field `key` of `v` as an integer of type T, truncated toward zero. A
// non-finite or out-of-range number is a typed error (the plain cast
// would be undefined behaviour).
template <class T>
T integer_field(const json::Value& v, const char* key) {
  const double x = v.at(key).as_number();
  if (!(x > static_cast<double>(std::numeric_limits<T>::min()) - 1.0 &&
        x < static_cast<double>(std::numeric_limits<T>::max()) + 1.0)) {
    throw std::runtime_error(std::string(key) + " is out of range");
  }
  return static_cast<T>(x);
}

json::Value polygon_to_json(const Polygon& p) {
  json::Array xs, ys;
  xs.reserve(p.size());
  ys.reserve(p.size());
  for (Vec2 q : p.points()) {
    xs.emplace_back(q.x);
    ys.emplace_back(q.y);
  }
  json::Object o;
  o.emplace("x", std::move(xs));
  o.emplace("y", std::move(ys));
  return json::Value(std::move(o));
}

Polygon polygon_from_json(const json::Value& v) {
  const auto& xs = v.at("x").as_array();
  const auto& ys = v.at("y").as_array();
  if (xs.size() != ys.size()) {
    throw std::runtime_error("polygon x/y arrays of unequal length");
  }
  std::vector<Vec2> pts;
  pts.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    pts.push_back({xs[i].as_number(), ys[i].as_number()});
  }
  return Polygon(std::move(pts));
}

std::vector<Vec2> points_from_json(const json::Value& v) {
  const auto& xs = v.at("x").as_array();
  const auto& ys = v.at("y").as_array();
  if (xs.size() != ys.size()) {
    throw std::runtime_error("positions x/y arrays of unequal length");
  }
  std::vector<Vec2> pts;
  pts.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    pts.push_back({xs[i].as_number(), ys[i].as_number()});
  }
  return pts;
}

PlannerOptions options_from_json(const json::Value& v) {
  PlannerOptions opt;
  if (v.has("objective")) {
    const std::string& m = v.at("objective").as_string();
    if (m == "a") {
      opt.objective = MarchObjective::kMaxStableLinks;
    } else if (m == "b") {
      opt.objective = MarchObjective::kMinDistance;
    } else {
      throw std::runtime_error("objective must be \"a\" or \"b\"");
    }
  }
  if (v.has("grid_points")) {
    opt.mesher.target_grid_points = integer_field<int>(v, "grid_points");
  }
  if (v.has("cvt_samples")) {
    opt.cvt_samples = integer_field<int>(v, "cvt_samples");
  }
  if (v.has("max_adjust_steps")) {
    opt.max_adjust_steps = integer_field<int>(v, "max_adjust_steps");
  }
  if (v.has("safe_adjustment")) {
    opt.safe_adjustment = v.at("safe_adjustment").as_bool();
  }
  if (v.has("distributed")) opt.distributed = v.at("distributed").as_bool();
  if (v.has("exhaustive_rotation")) {
    opt.exhaustive_rotation = v.at("exhaustive_rotation").as_bool();
  }
  if (v.has("transition_time")) {
    opt.transition_time = v.at("transition_time").as_number();
  }
  if (v.has("rotation_partitions")) {
    opt.rotation.initial_partitions =
        integer_field<int>(v, "rotation_partitions");
  }
  if (v.has("rotation_depth")) {
    opt.rotation.depth = integer_field<int>(v, "rotation_depth");
  }
  if (v.has("extraction")) {
    const std::string& e = v.at("extraction").as_string();
    if (e == "auto") {
      opt.extraction = ExtractionMode::kAuto;
    } else if (e == "gabriel") {
      opt.extraction = ExtractionMode::kGabriel;
    } else {
      throw std::runtime_error("extraction must be \"auto\" or \"gabriel\"");
    }
  }
  if (v.has("adjustment")) {
    const std::string& a = v.at("adjustment").as_string();
    if (a == "grid") {
      opt.adjustment = AdjustmentEngine::kGridCvt;
    } else if (a == "local") {
      opt.adjustment = AdjustmentEngine::kLocalVoronoi;
    } else {
      throw std::runtime_error("adjustment must be \"grid\" or \"local\"");
    }
  }
  return opt;
}

}  // namespace

json::Value foi_to_json(const FieldOfInterest& foi) {
  json::Object o;
  o.emplace("outer", polygon_to_json(foi.outer()));
  if (foi.has_holes()) {
    json::Array holes;
    holes.reserve(foi.holes().size());
    for (const Polygon& h : foi.holes()) holes.push_back(polygon_to_json(h));
    o.emplace("holes", std::move(holes));
  }
  return json::Value(std::move(o));
}

FieldOfInterest foi_from_json(const json::Value& v) {
  Polygon outer = polygon_from_json(v.at("outer"));
  std::vector<Polygon> holes;
  if (v.has("holes")) {
    for (const json::Value& h : v.at("holes").as_array()) {
      holes.push_back(polygon_from_json(h));
    }
  }
  return FieldOfInterest(std::move(outer), std::move(holes));
}

JobRequest job_from_json(
    const json::Value& v,
    std::map<std::string, std::vector<Vec2>>* deployment_cache) {
  JobRequest req;
  runtime::PlanJob& job = req.job;
  if (v.has("id")) job.id = v.at("id").as_string();
  req.include_plan = v.has("include_plan") && v.at("include_plan").as_bool();
  if (v.has("plan_encoding")) {
    const std::string& enc = v.at("plan_encoding").as_string();
    if (enc == "binary") {
      req.binary_plan = true;
    } else if (enc != "json") {
      throw std::runtime_error("plan_encoding must be \"json\" or \"binary\"");
    }
  }

  int robots = 144;
  std::uint64_t seed = 1;
  std::string geometry_key;
  if (v.has("scenario")) {
    int id = integer_field<int>(v, "scenario");
    Scenario sc = scenario(id);
    job.m1 = sc.m1;
    job.m2_shape = sc.m2_shape;
    job.r_c = sc.comm_range;
    robots = sc.num_robots;
    geometry_key = "scenario:" + std::to_string(id);
  }
  if (v.has("m1")) {
    job.m1 = foi_from_json(v.at("m1"));
    geometry_key.clear();
  }
  if (v.has("m2")) job.m2_shape = foi_from_json(v.at("m2"));
  if (job.m1.outer().size() == 0 || job.m2_shape.outer().size() == 0) {
    throw std::runtime_error(
        "request needs geometry: a \"scenario\" id or explicit m1/m2");
  }
  if (v.has("r_c")) job.r_c = v.at("r_c").as_number();
  if (v.has("robots")) robots = integer_field<int>(v, "robots");
  if (v.has("seed")) {
    seed = integer_field<std::uint64_t>(v, "seed");
  }

  if (v.has("deadline")) {
    job.deadline_seconds = v.at("deadline").as_number();
  }

  if (v.has("offset")) {
    job.m2_offset = {v.at("offset").at("x").as_number(),
                     v.at("offset").at("y").as_number()};
  } else {
    double sep = v.has("separation") ? v.at("separation").as_number() : 20.0;
    job.m2_offset = job.m1.centroid() + Vec2{sep * job.r_c, 0.0} -
                    job.m2_shape.centroid();
  }

  if (v.has("options")) job.options = options_from_json(v.at("options"));

  if (v.has("positions")) {
    job.positions = points_from_json(v.at("positions"));
  } else {
    // Generate the paper's optimal-coverage deployment. Memoized: batches
    // repeating a scenario pay the Lloyd convergence once.
    std::string key = (geometry_key.empty()
                           ? "m1:" + foi_to_json(job.m1).dump()
                           : geometry_key) +
                      "/n=" + std::to_string(robots) +
                      "/seed=" + std::to_string(seed);
    if (deployment_cache != nullptr) {
      auto it = deployment_cache->find(key);
      if (it != deployment_cache->end()) {
        job.positions = it->second;
        return req;
      }
    }
    job.positions = optimal_coverage_positions(job.m1, robots, seed,
                                               uniform_density())
                        .positions;
    if (deployment_cache != nullptr) {
      deployment_cache->emplace(std::move(key), job.positions);
    }
  }
  return req;
}

json::Value result_to_json(const runtime::JobResult& result,
                           bool include_plan) {
  json::Object o;
  o.emplace("id", result.id);
  o.emplace("ok", result.ok);
  o.emplace("status", runtime::job_status_name(result.status));
  if (!result.ok) {
    o.emplace("error", result.error);
    return json::Value(std::move(o));
  }
  o.emplace("degraded", result.degradation.degraded);
  if (result.degradation.degraded) {
    o.emplace("plan_mode", plan_mode_name(result.degradation.mode));
  }
  o.emplace("cache_hit", result.cache_hit);
  o.emplace("queue_seconds", result.queue_seconds);
  o.emplace("build_seconds", result.build_seconds);
  o.emplace("plan_seconds", result.plan_seconds);
  const MarchPlan& plan = result.plan;
  o.emplace("robots", plan.start.size());
  o.emplace("rotation_angle", plan.rotation_angle);
  o.emplace("predicted_link_ratio", plan.predicted_link_ratio);
  o.emplace("snapped_targets", plan.snapped_targets);
  o.emplace("repaired_robots", plan.repaired_robots);
  o.emplace("repaired_subgroups", plan.repaired_subgroups);
  o.emplace("max_boundary_gap", plan.max_boundary_gap);
  o.emplace("total_time", plan.total_time);
  o.emplace("adjust_steps", plan.adjust_steps);
  if (include_plan) o.emplace("plan", plan_to_json(plan));
  return json::Value(std::move(o));
}

}  // namespace anr
