#include "march/execution_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "march/fault_plant.h"
#include "march/resilience.h"
#include "net/connectivity_monitor.h"

namespace anr {

const char* exec_event_name(ExecEventType type) {
  switch (type) {
    case ExecEventType::kFaultInjected:
      return "fault_injected";
    case ExecEventType::kFaultCleared:
      return "fault_cleared";
    case ExecEventType::kFaultDetected:
      return "fault_detected";
    case ExecEventType::kDisconnected:
      return "disconnected";
    case ExecEventType::kReconnected:
      return "reconnected";
    case ExecEventType::kPauseStarted:
      return "pause_started";
    case ExecEventType::kPauseEnded:
      return "pause_ended";
    case ExecEventType::kRecoveryStarted:
      return "recovery_started";
    case ExecEventType::kRecoveryFinished:
      return "recovery_finished";
    case ExecEventType::kRetargeted:
      return "retargeted";
    case ExecEventType::kDegraded:
      return "degraded";
    case ExecEventType::kCompleted:
      return "completed";
    case ExecEventType::kPeerSuspected:
      return "peer_suspected";
    case ExecEventType::kSuspicionCleared:
      return "suspicion_cleared";
    case ExecEventType::kIsolated:
      return "isolated";
    case ExecEventType::kRejoined:
      return "rejoined";
    case ExecEventType::kCoordinatorElected:
      return "coordinator_elected";
  }
  return "unknown";
}

namespace {

/// One robot's execution state.
struct Bot {
  int orig = -1;      ///< original plan index
  Trajectory traj;    ///< current timeline (may be spliced mid-run)
  double p = 0.0;     ///< progress: trajectory time reached
  bool detected = false;  ///< crash noticed by peers
  Vec2 pos;           ///< clean (commanded) position at the current tick
};

/// Largest edge of the Euclidean MST: the smallest radius at which `pts`
/// form one component. Prim, O(n^2), runs once per execution.
double bottleneck_radius(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  if (n <= 1) return 0.0;
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<char> in_tree(n, 0);
  best[0] = 0.0;
  double bottleneck = 0.0;
  for (std::size_t it = 0; it < n; ++it) {
    std::size_t u = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_tree[i] && (u == n || best[i] < best[u])) u = i;
    }
    in_tree[u] = 1;
    bottleneck = std::max(bottleneck, best[u]);
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_tree[v]) best[v] = std::min(best[v], distance(pts[u], pts[v]));
    }
  }
  return bottleneck;
}

}  // namespace

ExecutionEngine::ExecutionEngine(double r_c, ExecutionOptions options)
    : r_c_(r_c), opt_(std::move(options)) {
  ANR_CHECK(r_c_ > 0.0);
  ANR_CHECK(opt_.guard_factor > 0.0 && opt_.guard_factor <= 1.0);
  ANR_CHECK(opt_.catch_up_factor >= 1.0);
  if (opt_.registry != nullptr && opt_.registry->enabled()) {
    obs::Registry& reg = *opt_.registry;
    ins_.runs = reg.counter("anr_exec_runs_total", {}, "executions finished");
    ins_.ticks = reg.counter("anr_exec_ticks_total", {}, "simulation ticks");
    ins_.pauses = reg.counter("anr_exec_pauses_total", {},
                              "pause-and-wait engagements");
    ins_.retries = reg.counter("anr_exec_retries_total", {},
                               "backoff windows consumed across pauses");
    ins_.crashes = reg.counter("anr_exec_crashes_total", {},
                               "crash-stops detected and absorbed");
    ins_.recoveries = reg.counter("anr_exec_recoveries_total", {},
                                  "peer-absorb operations dispatched");
    ins_.guard_trips = reg.counter(
        "anr_exec_guard_trips_total", {},
        "clean-to-tripped transitions of the connectivity guard");
    ins_.disconnects = reg.counter("anr_exec_disconnects_total", {},
                                   "hard connectivity losses (Def. 2)");
    ins_.retargets = reg.counter("anr_exec_retargets_total", {},
                                 "mission changes spliced mid-march");
    ins_.degraded = reg.counter("anr_exec_degraded_runs_total", {},
                                "runs that exhausted a budget");
  }
}

ExecutionReport ExecutionEngine::run(const MarchPlan& plan,
                                     const fault::FaultSchedule& schedule,
                                     const FieldOfInterest& m2_world,
                                     const DensityFn& density) const {
  ExecutionReport report;
  FaultPlant plant(plan, schedule, opt_.noise_seed, report);
  const std::size_t n0 = plan.trajectories.size();
  net::ConnectivityMonitor monitor(r_c_, opt_.guard_factor);

  std::vector<Bot> bots(n0);
  double horizon = 0.0;
  for (std::size_t i = 0; i < n0; ++i) {
    bots[i].orig = static_cast<int>(i);
    bots[i].traj = plan.trajectories[i];
    bots[i].pos = bots[i].traj.position(0.0);
    horizon = std::max(horizon, bots[i].traj.end_time());
  }
  ANR_CHECK_MSG(horizon > 0.0, "plan horizon is empty");
  const double dt = opt_.dt > 0.0 ? opt_.dt : horizon / 512.0;
  const double max_wall = opt_.max_wall_factor * horizon;
  const double backoff0 =
      opt_.initial_backoff > 0.0 ? opt_.initial_backoff : 16.0 * dt;

  std::vector<MissionChange> missions = opt_.mission_changes;
  std::stable_sort(missions.begin(), missions.end(),
                   [](const MissionChange& a, const MissionChange& b) {
                     return a.t < b.t;
                   });
  std::size_t next_mission = 0;

  auto crashed = [&plant](const Bot& b) { return plant.crashed(b.orig); };

  double t = 0.0;
  double p_sched = 0.0;  // shared schedule clock (frozen while paused)
  bool paused = false;
  bool suppress_pause = false;  // retry budget spent; wait for a clean guard
  double backoff = backoff0;
  double pause_deadline = 0.0;
  int retry_count = 0;
  bool was_connected = true;
  bool was_guard_ok = true;
  int guard_trips = 0;
  int disconnects = 0;
  net::ConnectivityMonitor::Verdict verdict;

  // Reused per-tick scratch.
  std::vector<Vec2> actual;
  std::vector<Vec2> planned_now;
  std::vector<int> orig_to_alive(n0);
  std::vector<std::pair<int, int>> dropped_alive;

  std::int64_t tick = 0;
  for (;;) {
    ++tick;
    t = static_cast<double>(tick) * dt;
    // Fault windows (for the log) and crash-stops: a crashed robot freezes
    // in place, radio dead from here on.
    plant.advance(tick, t);

    // --- motion -----------------------------------------------------------
    if (!paused) p_sched = std::min(p_sched + dt, horizon);
    for (Bot& b : bots) {
      if (crashed(b)) continue;
      // Capped at the schedule clock, so only a healthy robot behind it
      // sprints (at the catch-up rate) to close the deficit.
      double p_next = std::min(
          p_sched, b.p + dt * plant.max_rate(b.orig, opt_.catch_up_factor));
      if (p_next > b.p) {
        Vec2 next = b.traj.position(p_next);
        report.executed_distance += distance(b.pos, next);
        b.p = p_next;
        b.pos = next;
      }
    }

    // --- online connectivity monitor --------------------------------------
    actual.clear();
    std::fill(orig_to_alive.begin(), orig_to_alive.end(), -1);
    for (const Bot& b : bots) {
      if (crashed(b)) continue;
      orig_to_alive[static_cast<std::size_t>(b.orig)] =
          static_cast<int>(actual.size());
      actual.push_back(plant.sensed(b.orig, b.pos));
    }
    dropped_alive.clear();
    for (const auto& [a, b] : plant.dropped_links()) {
      int ia = orig_to_alive[static_cast<std::size_t>(a)];
      int ib = orig_to_alive[static_cast<std::size_t>(b)];
      if (ia >= 0 && ib >= 0) dropped_alive.emplace_back(ia, ib);
    }
    // The guard compares the executed formation against the *planned*
    // configuration at the same schedule time: a plan legitimately passes
    // through loose moments (backbone links near r_c), so a fixed guard
    // fraction would trip on fault-free execution. Calibrate the guard to
    // the planned bottleneck and it fires only on regressions.
    planned_now.clear();
    for (const Bot& b : bots) {
      if (!crashed(b)) planned_now.push_back(b.traj.position(p_sched));
    }
    double gf = opt_.guard_factor;
    const double bp = bottleneck_radius(planned_now);
    if (bp > gf * r_c_) {
      // Quantized upward so the monitor's per-radius checker set stays small.
      gf = std::min(1.0, std::ceil(1.02 * bp / r_c_ * 50.0) / 50.0);
    }
    verdict = monitor.assess(actual, plant.range_factor(), dropped_alive, gf);
    if (!verdict.guard_ok && was_guard_ok) ++guard_trips;
    was_guard_ok = verdict.guard_ok;
    if (!verdict.connected && was_connected) {
      ++disconnects;
      plant.log(t, ExecEventType::kDisconnected, -1,
                "alive network split into components");
      report.connected_throughout = false;
      if (report.first_disconnect_time < 0.0) {
        report.first_disconnect_time = t;
      }
    } else if (verdict.connected && !was_connected) {
      plant.log(t, ExecEventType::kReconnected, -1, "alive network rejoined");
    }
    was_connected = verdict.connected;

    // --- crash detection + peer absorb ------------------------------------
    std::vector<std::size_t> just_detected;
    for (std::size_t i = 0; i < bots.size(); ++i) {
      Bot& b = bots[i];
      if (crashed(b) && !b.detected &&
          t >= plant.crash_time(b.orig) + opt_.detection_delay) {
        b.detected = true;
        just_detected.push_back(i);
        report.crashed.push_back(b.orig);
        plant.log(t, ExecEventType::kFaultDetected, b.orig,
                  "crash-stop of " + robot_detail(b.orig));
      }
    }
    if (!just_detected.empty() && opt_.enable_recovery) {
      if (just_detected.size() >= bots.size()) {
        report.degraded = true;
        plant.log(t, ExecEventType::kDegraded, -1, "all robots crashed");
        bots.clear();
        break;
      }
      ++report.recoveries;
      plant.log(t, ExecEventType::kRecoveryStarted, -1,
                "absorbing " + std::to_string(just_detected.size()) +
                    " crashed robot(s)");
      std::vector<Trajectory> planned;
      std::vector<int> failed;
      planned.reserve(bots.size());
      for (std::size_t i = 0; i < bots.size(); ++i) {
        planned.push_back(bots[i].traj);
        if (crashed(bots[i]) && bots[i].detected) {
          failed.push_back(static_cast<int>(i));
        }
      }
      try {
        FailureRecovery rec = recover_from_failure(
            planned, t, failed, m2_world, r_c_, density,
            opt_.recovery_lloyd_steps, opt_.recovery_cvt_samples);
        std::vector<Bot> next;
        next.reserve(rec.survivors.size());
        for (std::size_t k = 0; k < rec.survivors.size(); ++k) {
          Bot b = bots[static_cast<std::size_t>(rec.survivors[k])];
          b.traj = rec.trajectories[k];
          next.push_back(std::move(b));
        }
        bots = std::move(next);
        horizon = 0.0;
        for (const Bot& b : bots) {
          horizon = std::max(horizon, b.traj.end_time());
        }
        plant.log(t, ExecEventType::kRecoveryFinished, -1,
                  "survivor timelines spliced; " +
                      std::to_string(rec.lloyd_steps) + " re-spread steps");
      } catch (const std::exception& e) {
        report.degraded = true;
        plant.log(t, ExecEventType::kDegraded, -1,
                  std::string("absorb failed: ") + e.what());
        bots.erase(std::remove_if(bots.begin(), bots.end(), crashed),
                   bots.end());
      }
    }

    // --- pause-and-wait policy for transient trouble ----------------------
    if (opt_.enable_recovery) {
      if (!verdict.guard_ok) {
        if (paused) {
          if (t >= pause_deadline) {
            if (retry_count >= opt_.max_pause_retries) {
              report.degraded = true;
              paused = false;
              suppress_pause = true;
              plant.log(t, ExecEventType::kDegraded, -1,
                        "pause retry budget exhausted (" +
                            std::to_string(retry_count) + " retries)");
              plant.log(t, ExecEventType::kPauseEnded, -1, "resumed degraded");
            } else {
              ++retry_count;
              ++report.retries;
              backoff *= 2.0;
              pause_deadline = t + backoff;
            }
          }
        } else if (!suppress_pause) {
          paused = true;
          ++report.pauses;
          retry_count = 0;
          backoff = backoff0;
          pause_deadline = t + backoff;
          plant.log(t, ExecEventType::kPauseStarted, -1,
                    "connectivity guard tripped; schedule clock frozen");
        }
      } else {
        suppress_pause = false;
        if (paused) {
          paused = false;
          plant.log(t, ExecEventType::kPauseEnded, -1, "guard clean; resumed");
        }
      }
    }

    // --- scripted mission changes -----------------------------------------
    while (next_mission < missions.size() && t >= missions[next_mission].t) {
      const MissionChange& mc = missions[next_mission];
      ++next_mission;
      ANR_CHECK_MSG(mc.planner != nullptr, "mission change without planner");
      std::vector<Trajectory> current;
      current.reserve(bots.size());
      for (const Bot& b : bots) {
        if (!crashed(b)) current.push_back(b.traj);
      }
      try {
        RetargetResult rr =
            retarget_mid_march(current, p_sched, *mc.planner, mc.m2_offset);
        std::size_t k = 0;
        for (Bot& b : bots) {
          if (crashed(b)) continue;
          b.traj = rr.trajectories[k++];
        }
        horizon = 0.0;
        for (const Bot& b : bots) {
          if (!crashed(b)) horizon = std::max(horizon, b.traj.end_time());
        }
        ++report.retargets;
        plant.log(t, ExecEventType::kRetargeted, -1,
                  "mission change spliced at schedule time " +
                      std::to_string(p_sched));
      } catch (const std::exception& e) {
        report.degraded = true;
        plant.log(t, ExecEventType::kDegraded, -1,
                  std::string("retarget failed: ") + e.what());
      }
    }

    // --- termination -------------------------------------------------------
    bool done = true;
    for (const Bot& b : bots) {
      if (crashed(b)) {
        if (!b.detected) done = false;  // detection (and absorb) pending
        continue;
      }
      if (b.p < b.traj.end_time() - 1e-9) done = false;
    }
    if (done && next_mission >= missions.size()) {
      plant.log(t, ExecEventType::kCompleted, -1, "all alive robots at rest");
      break;
    }
    if (t > max_wall) {
      report.degraded = true;
      plant.log(t, ExecEventType::kDegraded, -1, "wall-clock budget exhausted");
      break;
    }
  }

  // --- final accounting ----------------------------------------------------
  report.end_time = t;
  report.final_connected = verdict.connected;
  std::vector<int> ids;
  std::vector<Vec2> finals;
  for (const Bot& b : bots) {
    if (crashed(b)) continue;
    ids.push_back(b.orig);
    finals.push_back(b.pos);
  }
  plant.finish(ids, finals, r_c_);

  // Batched instrumentation: counts come from the finished report, so the
  // tick loop runs identically with or without a registry attached.
  obs::inc(ins_.runs);
  obs::inc(ins_.ticks, static_cast<std::uint64_t>(tick));
  obs::inc(ins_.pauses, static_cast<std::uint64_t>(report.pauses));
  obs::inc(ins_.retries, static_cast<std::uint64_t>(report.retries));
  obs::inc(ins_.crashes, report.crashed.size());
  obs::inc(ins_.recoveries, static_cast<std::uint64_t>(report.recoveries));
  obs::inc(ins_.guard_trips, static_cast<std::uint64_t>(guard_trips));
  obs::inc(ins_.disconnects, static_cast<std::uint64_t>(disconnects));
  obs::inc(ins_.retargets, static_cast<std::uint64_t>(report.retargets));
  if (report.degraded) obs::inc(ins_.degraded);
  return report;
}

}  // namespace anr
