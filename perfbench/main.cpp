// perfbench — runs one workload and prints its result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--source ID]
//   perfbench --workload serve_zipf --probe-capacity --seconds S
//
// Prefer `python3 perfbench/run.py`, which builds this binary first.
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/task_arena.h"
#include "perfbench.h"

namespace {

using perfbench::quoted;
using Schema = std::vector<std::pair<const char*, const char*>>;

// Metric names and units exactly as BENCHMARK.json lists them.
const Schema kEndToEnd = {
    {"setup_s", "s"},           {"latency_p50_ref", "ref"},
    {"latency_p90_ref", "ref"}, {"latency_mean_ref", "ref"},
    {"peak_rss_mb", "MB"},      {"stable_link_ratio", "ratio"},
    {"distance_per_robot_m", "m"}, {"connectivity_ratio", "ratio"},
};

const Schema kPerLayer = {
    {"march.extraction_s", "s"},
    {"harmonic.disk_map_s", "s"},
    {"harmonic.multigrid_plans", "count"},
    {"harmonic.rotation_search_s", "s"},
    {"harmonic.rotation_evals", "count"},
    {"harmonic.interpolation_s", "s"},
    {"march.snapped_targets", "count"},
    {"march.adjustment_s", "s"},
    {"march.adjust_steps", "count"},
    {"terrain.routing_s", "s"},
    {"terrain.fmm_solves", "count"},
    {"terrain.fmm_fallback_ratio", "ratio"},
    {"terrain.fast_march_s", "s"},
    {"terrain.extract_geodesic_s", "s"},
    {"net.is_connected_s", "s"},
    {"march.plan_s", "s"},
    {"march.plan_unattributed_s", "s"},
    {"foi.mesh_foi_s", "s"},
    {"harmonic.m2_disk_map_s", "s"},
    {"coverage.cvt_build_s", "s"},
    {"setup.total_s", "s"},
    {"setup.unattributed_s", "s"},
    {"runtime.admit_s", "s"},
    {"runtime.queue_wait_p50_s", "s"},
    {"runtime.queue_wait_p90_s", "s"},
    {"runtime.cache_hit_ratio", "ratio"},
    {"runtime.cache_builds", "count"},
    {"runtime.cache_evictions", "count"},
    {"runtime.cache_build_s", "s"},
    {"runtime.plan_s", "s"},
    {"runtime.shed_ratio", "ratio"},
    {"runtime.reject_ratio", "ratio"},
    {"shard.load_imbalance", "ratio"},
    {"io.encode_plan_s", "s"},
    {"io.decode_plan_s", "s"},
    {"io.plan_bytes", "bytes"},
    {"serve.e2e_s", "s"},
    {"serve.unattributed_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

int usage() {
  std::cerr << "usage: perfbench --workload plan_paper|plan_swarm_4k|"
               "plan_terrain|serve_zipf --seed N --seconds S --trace 0|1 "
               "[--source ID] [--probe-capacity]\n";
  return 2;
}

std::string stamp_json(const perfbench::RunArgs& args,
                       const std::string& layout) {
  std::string s = "{";
  s += "\"workload\": " + quoted(args.workload);
  s += ", \"seed\": " + std::to_string(args.seed);
  s += ", \"seconds\": " + perfbench::num(args.seconds);
  s += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  s += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
  s += ", \"compiler\": " + quoted(__VERSION__);
  s += ", \"source\": " + quoted(args.source_id);
  s += ", \"arena_threads\": " + std::to_string(anr::arena_threads());
  s += ", \"layout\": " + quoted(layout);
  s += ", \"serve_rate_per_s\": " +
       perfbench::num(perfbench::kServeRatePerSecond);
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--probe-capacity") {
      probe = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--source") {
      args.source_id = value;
    } else {
      return usage();
    }
  }
  const bool serve = args.workload == "serve_zipf";
  if ((!serve && !perfbench::is_plan_workload(args.workload)) ||
      !(args.seconds > 0.0) || (probe && !serve)) {
    return usage();
  }

  try {
    if (probe) return perfbench::probe_serve_capacity(args);
    perfbench::Report report;
    std::string layout;
    if (serve) {
      perfbench::run_serve_workload(args, report, layout);
    } else {
      perfbench::run_plan_workload(args, report, layout);
    }
    report.print(stamp_json(args, layout), args.trace ? kPerLayer : kEndToEnd);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
