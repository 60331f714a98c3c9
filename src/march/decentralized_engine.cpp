#include "march/decentralized_engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "march/fault_plant.h"
#include "march/local_controller.h"
#include "net/fault_bridge.h"
#include "net/unit_disk_graph.h"

namespace anr {

namespace {

/// Connectivity of the alive sub-network after removing the dropped
/// links — the observational C sample; controllers never see it.
bool alive_connected(const std::vector<std::vector<int>>& adj,
                     const std::vector<char>& alive,
                     const std::vector<std::pair<int, int>>& dropped) {
  const int n = static_cast<int>(adj.size());
  int first = -1;
  int count = 0;
  for (int i = 0; i < n; ++i) {
    if (alive[static_cast<std::size_t>(i)]) {
      ++count;
      if (first < 0) first = i;
    }
  }
  if (count <= 1) return true;
  auto is_dropped = [&dropped](int a, int b) {
    const int lo = a < b ? a : b;
    const int hi = a < b ? b : a;
    for (const auto& [x, y] : dropped) {
      if (x == lo && y == hi) return true;
    }
    return false;
  };
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::deque<int> frontier{first};
  seen[static_cast<std::size_t>(first)] = 1;
  int reached = 1;
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop_front();
    for (int v : adj[static_cast<std::size_t>(u)]) {
      if (seen[static_cast<std::size_t>(v)] ||
          !alive[static_cast<std::size_t>(v)] || is_dropped(u, v)) {
        continue;
      }
      seen[static_cast<std::size_t>(v)] = 1;
      ++reached;
      frontier.push_back(v);
    }
  }
  return reached == count;
}

}  // namespace

DecentralizedEngine::DecentralizedEngine(double r_c,
                                         DecentralizedOptions options)
    : r_c_(r_c), opt_(std::move(options)) {
  ANR_CHECK(r_c_ > 0.0);
  ANR_CHECK(opt_.max_delay >= 1);
  ANR_CHECK(opt_.loss_rate >= 0.0 && opt_.loss_rate < 1.0);
  ANR_CHECK(opt_.catch_up_factor >= 1.0);
  ANR_CHECK(opt_.heartbeat_period >= 1);
  ANR_CHECK(opt_.suspicion_ticks >
            opt_.heartbeat_period + opt_.max_delay + 1);
  if (opt_.registry != nullptr && opt_.registry->enabled()) {
    obs::Registry& reg = *opt_.registry;
    ins_.runs =
        reg.counter("anr_dex_runs_total", {}, "decentralized runs finished");
    ins_.rounds = reg.counter("anr_dex_rounds_total", {}, "network rounds");
    ins_.messages = reg.counter("anr_dex_messages_total", {},
                                "transmission attempts (copies)");
    ins_.bytes =
        reg.counter("anr_dex_bytes_total", {}, "wire bytes transmitted");
    ins_.lost = reg.counter("anr_dex_lost_total", {},
                            "transmissions lost to the channel");
    ins_.retransmissions = reg.counter("anr_dex_retransmissions_total", {},
                                       "reliable-layer retransmissions");
    ins_.heartbeats =
        reg.counter("anr_dex_heartbeats_total", {}, "heartbeat broadcasts");
    ins_.suspicions = reg.counter("anr_dex_suspicions_total", {},
                                  "suspicion episodes raised");
    ins_.isolations = reg.counter("anr_dex_isolations_total", {},
                                  "robots cut off in total silence");
    ins_.elections = reg.counter("anr_dex_elections_total", {},
                                 "coordinator elections won");
    ins_.absorbs = reg.counter("anr_dex_absorbs_total", {},
                               "peer-absorb recoveries completed");
    ins_.detection_latency =
        reg.histogram("anr_dex_detection_seconds", {},
                      "crash to first distributed confirm (wall seconds)");
    ins_.recovery_latency =
        reg.histogram("anr_dex_recovery_seconds", {},
                      "confirm to absorb flooded (wall seconds)");
  }
}

DecentralizedReport DecentralizedEngine::run(
    const MarchPlan& plan, const fault::FaultSchedule& schedule,
    const FieldOfInterest& m2_world, const DensityFn& density) const {
  DecentralizedReport report;
  ExecutionReport& ex = report.exec;
  FaultPlant plant(plan, schedule, opt_.noise_seed, ex);
  const std::size_t n = plan.trajectories.size();

  double horizon = 0.0;
  for (const Trajectory& traj : plan.trajectories) {
    horizon = std::max(horizon, traj.end_time());
  }
  ANR_CHECK_MSG(horizon > 0.0, "plan horizon is empty");
  const double dt = opt_.dt > 0.0 ? opt_.dt : horizon / 512.0;
  const double max_wall = opt_.max_wall_factor * horizon;
  const double lag_tol = opt_.lag_tolerance > 0.0
                             ? opt_.lag_tolerance
                             : (opt_.max_delay + 3) * dt;

  // --- local controllers (all the control intelligence lives here) ------
  std::vector<LocalController> ctrl;
  ctrl.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    LocalControllerConfig cfg;
    cfg.id = static_cast<int>(i);
    cfg.num_robots = static_cast<int>(n);
    cfg.r_c = r_c_;
    cfg.dt = dt;
    cfg.heartbeat_period = opt_.heartbeat_period;
    cfg.suspicion_ticks = opt_.suspicion_ticks;
    cfg.suspicion_jitter = opt_.suspicion_jitter;
    cfg.confirm_ticks = opt_.confirm_ticks;
    cfg.election_ticks = opt_.election_ticks;
    cfg.gather_ticks = opt_.gather_ticks;
    cfg.isolation_ticks = opt_.isolation_ticks;
    cfg.lag_tolerance = lag_tol;
    cfg.catch_up_factor = opt_.catch_up_factor;
    cfg.suspicion_range_factor = opt_.suspicion_range_factor;
    cfg.timeout_seed = opt_.timeout_seed;
    cfg.enable_recovery = opt_.enable_recovery;
    cfg.m2_world = &m2_world;
    cfg.density = density ? &density : nullptr;
    cfg.recovery_lloyd_steps = opt_.recovery_lloyd_steps;
    cfg.recovery_cvt_samples = opt_.recovery_cvt_samples;
    ctrl.emplace_back(std::move(cfg), plan.trajectories[i]);
  }

  std::vector<Vec2> pos(n);   // clean (commanded) positions
  std::vector<Vec2> gps(n);   // noisy positions: what radios and GPS see
  std::vector<char> alive(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = plan.trajectories[i].position(plan.trajectories[i].start_time());
    gps[i] = pos[i];
  }

  // --- the hostile channel ---------------------------------------------
  net::Network net(net::unit_disk_adjacency(gps, r_c_ * plant.range_factor()));
  if (opt_.max_delay > 1) net.set_link_delays(opt_.max_delay, opt_.delay_seed);
  if (opt_.loss_rate > 0.0) net.set_message_loss(opt_.loss_rate, opt_.loss_seed);
  net.set_reliability(opt_.reliability);
  net.set_link_outage(net::make_fault_outage(plant.model(), dt));

  // Per-robot episode flags so the log carries state *transitions*, not
  // one entry per observer per tick.
  std::vector<char> suspected_logged(n, 0);
  std::vector<char> confirmed_logged(n, 0);
  std::vector<int> det_index(n, -1);

  double t = 0.0;
  bool was_connected = true;
  std::int64_t idle_streak = 0;
  // Longest possible detection cascade start-up: a pending crash turns
  // into visible activity (suspicion -> claim -> gather) within this many
  // ticks, so an idle streak past it means nothing is left to happen.
  const std::int64_t grace = opt_.suspicion_ticks + opt_.suspicion_jitter +
                             opt_.confirm_ticks + opt_.election_ticks +
                             opt_.gather_ticks + 2 * opt_.max_delay + 8;

  auto translate = [&](int actor, const LocalEvent& le) {
    const int j = le.subject;
    switch (le.kind) {
      case LocalEventKind::kSuspected: {
        ++report.suspicions;
        if (!suspected_logged[static_cast<std::size_t>(j)]) {
          suspected_logged[static_cast<std::size_t>(j)] = 1;
          plant.log(t, ExecEventType::kPeerSuspected, j, le.detail);
          if (det_index[static_cast<std::size_t>(j)] >= 0) {
            CrashDetection& det =
                report.detections[static_cast<std::size_t>(
                    det_index[static_cast<std::size_t>(j)])];
            if (det.suspected_time < 0.0) det.suspected_time = t;
          }
        }
        break;
      }
      case LocalEventKind::kSuspicionCleared:
        if (suspected_logged[static_cast<std::size_t>(j)]) {
          suspected_logged[static_cast<std::size_t>(j)] = 0;
          plant.log(t, ExecEventType::kSuspicionCleared, j, le.detail);
        }
        break;
      case LocalEventKind::kConfirmed: {
        if (confirmed_logged[static_cast<std::size_t>(j)]) break;
        confirmed_logged[static_cast<std::size_t>(j)] = 1;
        const bool truly = det_index[static_cast<std::size_t>(j)] >= 0;
        plant.log(t, ExecEventType::kFaultDetected, j,
                  (truly ? "crash-stop confirmed " : "false crash verdict ") +
                      le.detail);
        if (truly) {
          ex.crashed.push_back(j);
          CrashDetection& det = report.detections[static_cast<std::size_t>(
              det_index[static_cast<std::size_t>(j)])];
          if (det.detected_time < 0.0) det.detected_time = t;
        }
        break;
      }
      case LocalEventKind::kElected: {
        ++report.elections;
        plant.log(t, ExecEventType::kCoordinatorElected, actor,
                  "for " + robot_detail(j) + "; " + le.detail);
        plant.log(t, ExecEventType::kRecoveryStarted, actor,
                  "gathering survivor timelines for " + robot_detail(j));
        if (det_index[static_cast<std::size_t>(j)] >= 0) {
          CrashDetection& det = report.detections[static_cast<std::size_t>(
              det_index[static_cast<std::size_t>(j)])];
          if (det.coordinator < 0) det.coordinator = actor;
        }
        break;
      }
      case LocalEventKind::kAbsorbDone: {
        ++report.absorbs;
        ++ex.recoveries;
        plant.log(t, ExecEventType::kRecoveryFinished, -1, le.detail);
        if (det_index[static_cast<std::size_t>(j)] >= 0) {
          CrashDetection& det = report.detections[static_cast<std::size_t>(
              det_index[static_cast<std::size_t>(j)])];
          if (det.recovered_time < 0.0) det.recovered_time = t;
        }
        break;
      }
      case LocalEventKind::kAbsorbFailed:
        ex.degraded = true;
        plant.log(t, ExecEventType::kDegraded, j,
                  "absorb failed: " + le.detail);
        break;
      case LocalEventKind::kSpliced:
        // Motion-level consequence of a logged recovery; kept out of the
        // log to avoid one entry per survivor.
        break;
      case LocalEventKind::kIsolatedSelf:
        ++report.isolations;
        plant.log(t, ExecEventType::kIsolated, actor, le.detail);
        break;
      case LocalEventKind::kRejoinedSelf:
        plant.log(t, ExecEventType::kRejoined, actor, le.detail);
        break;
    }
  };

  // --- tick loop --------------------------------------------------------
  std::vector<std::vector<net::Message>> inboxes(n);
  std::int64_t tick = 0;
  for (;;) {
    ++tick;
    t = static_cast<double>(tick) * dt;

    // Crash-stops: the plant kills the robot (motion + radio). Peers are
    // NOT told — they must notice via missed heartbeats.
    for (int i : plant.advance(tick, t)) {
      alive[static_cast<std::size_t>(i)] = 0;
      det_index[static_cast<std::size_t>(i)] =
          static_cast<int>(report.detections.size());
      CrashDetection det;
      det.robot = i;
      det.crash_time = plant.crash_time(i);
      report.detections.push_back(det);
    }

    // Inboxes were filled by the previous round's deliveries. Dead
    // radios drain to nowhere.
    for (std::size_t i = 0; i < n; ++i) {
      inboxes[i] = net.take_inbox(static_cast<int>(i));
      if (!alive[i]) inboxes[i].clear();
    }

    // Controllers step in id order (the event log's tiebreak), then the
    // plant applies actuation faults to what each controller wanted.
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      const int id = static_cast<int>(i);
      LocalController::StepResult res =
          ctrl[i].step(tick, std::move(inboxes[i]), net);
      const double p_prev = ctrl[i].progress();
      const double achieved =
          p_prev + std::min(std::max(res.desired_progress - p_prev, 0.0),
                            dt * plant.max_rate(id, opt_.catch_up_factor));
      const Vec2 next = ctrl[i].trajectory().position(achieved);
      ex.executed_distance += distance(pos[i], next);
      pos[i] = next;
      gps[i] = plant.sensed(id, next);
      ctrl[i].observe_self(achieved, gps[i]);
      for (const LocalEvent& le : res.events) {
        translate(static_cast<int>(i), le);
      }
    }

    // Radio truth for the next round: unit-disk topology over the noisy
    // positions at the degraded range, dead radios removed. Scripted
    // link dropouts act at delivery time via the outage predicate.
    const double r_eff = r_c_ * plant.range_factor();
    std::vector<std::vector<int>> adj = net::unit_disk_adjacency(gps, r_eff);
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) {
        adj[i].clear();
        continue;
      }
      adj[i].erase(std::remove_if(adj[i].begin(), adj[i].end(),
                                  [&alive](int v) {
                                    return !alive[static_cast<std::size_t>(v)];
                                  }),
                   adj[i].end());
    }
    net.update_topology(adj);
    net.deliver_round();

    // Observational C sample (reporting only, never control).
    const bool connected = alive_connected(adj, alive, plant.dropped_links());
    if (!connected && was_connected) {
      ex.connected_throughout = false;
      if (ex.first_disconnect_time < 0.0) ex.first_disconnect_time = t;
      plant.log(t, ExecEventType::kDisconnected, -1,
                "global connectivity lost");
    } else if (connected && !was_connected) {
      plant.log(t, ExecEventType::kReconnected, -1,
                "global connectivity restored");
    }
    was_connected = connected;

    // Termination: every alive robot done and no election or gather in
    // flight, sustained for a full detection-cascade grace window.
    bool idle = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (alive[i] && (!ctrl[i].done() || ctrl[i].busy())) {
        idle = false;
        break;
      }
    }
    idle_streak = idle ? idle_streak + 1 : 0;
    if (idle && idle_streak >= grace) {
      plant.log(t, ExecEventType::kCompleted, -1,
                "all alive robots reached their timeline ends");
      break;
    }
    if (t > max_wall) {
      ex.degraded = true;
      plant.log(t, ExecEventType::kDegraded, -1, "wall budget exhausted");
      break;
    }
  }

  // --- final accounting -------------------------------------------------
  ex.end_time = t;
  ex.final_connected = was_connected;
  std::vector<int> ids;
  std::vector<Vec2> finals;
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    ids.push_back(static_cast<int>(i));
    finals.push_back(pos[i]);
  }
  plant.finish(ids, finals, r_c_);
  // Crashes nobody confirmed still count as crashed (detection order
  // first, then undetected in crash order).
  for (const CrashDetection& det : report.detections) {
    if (det.detected_time < 0.0) ex.crashed.push_back(det.robot);
  }

  report.rounds = net.rounds_elapsed();
  report.messages_sent = net.messages_sent();
  report.messages_delivered = net.messages_delivered();
  report.messages_lost = net.messages_lost();
  report.retransmissions = net.retransmissions();
  report.messages_expired = net.messages_expired();
  report.duplicates_suppressed = net.duplicates_suppressed();
  report.acks_sent = net.acks_sent();
  report.bytes_sent = net.bytes_sent();
  for (const LocalController& c : ctrl) {
    report.heartbeats += c.heartbeats_sent();
  }

  double det_sum = 0.0;
  int det_count = 0;
  double rec_sum = 0.0;
  int rec_count = 0;
  for (const CrashDetection& det : report.detections) {
    if (det.detected_time >= 0.0) {
      det_sum += det.detected_time - det.crash_time;
      ++det_count;
      if (det.recovered_time >= 0.0) {
        rec_sum += det.recovered_time - det.detected_time;
        ++rec_count;
      }
    }
  }
  report.mean_detection_latency =
      det_count > 0 ? det_sum / det_count : -1.0;
  report.mean_recovery_latency =
      rec_count > 0 ? rec_sum / rec_count : -1.0;

  // Batched instrumentation from the finished report: the tick loop runs
  // identically with or without a registry attached.
  obs::inc(ins_.runs);
  obs::inc(ins_.rounds, report.rounds);
  obs::inc(ins_.messages, report.messages_sent);
  obs::inc(ins_.bytes, report.bytes_sent);
  obs::inc(ins_.lost, report.messages_lost);
  obs::inc(ins_.retransmissions, report.retransmissions);
  obs::inc(ins_.heartbeats, report.heartbeats);
  obs::inc(ins_.suspicions, static_cast<std::uint64_t>(report.suspicions));
  obs::inc(ins_.isolations, static_cast<std::uint64_t>(report.isolations));
  obs::inc(ins_.elections, static_cast<std::uint64_t>(report.elections));
  obs::inc(ins_.absorbs, static_cast<std::uint64_t>(report.absorbs));
  for (const CrashDetection& det : report.detections) {
    if (det.detected_time >= 0.0) {
      obs::observe(ins_.detection_latency, det.detected_time - det.crash_time);
      if (det.recovered_time >= 0.0) {
        obs::observe(ins_.recovery_latency,
                     det.recovered_time - det.detected_time);
      }
    }
  }
  return report;
}

}  // namespace anr
