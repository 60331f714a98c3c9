// DecentralizedEngine: executes a march with NO global oracle in the
// control path.
//
// The centralized ExecutionEngine detects crashes and watches
// connectivity through omniscient observers (the FaultModel, the
// ConnectivityMonitor). This engine replaces all of that with per-robot
// LocalControllers exchanging real messages over a hostile net::Network:
// seeded per-link delays and message loss, ack/retransmit reliability
// for the control plane, and scripted partition/heal windows injected as
// link outages through net::make_fault_outage. The engine's own jobs are
// reduced to physics and bookkeeping:
//
//   - plant: the shared FaultPlant (march/fault_plant.h, the same one the
//     centralized engine uses) clamps the progress each controller
//     *wants* by its actuation faults (crash-stop, stuck, slowdown); the
//     engine moves robots along their timelines and feeds noisy GPS back;
//   - radio truth: rebuild the unit-disk topology every tick from the
//     noisy positions at the degraded range, so links really break as
//     robots drift apart;
//   - observation: sample global connectivity C and tally message/
//     detection/recovery metrics for the report — reporting only, never
//     control decisions.
//
// Determinism: a run is a pure function of (plan, schedule, options).
// Controllers step in robot-id order, every randomness source is a
// seeded hash, and the event log serializes byte-identically for a given
// seed tuple. Under zero loss and zero faults the march lands on exactly
// the centralized plan's final configuration (tests/test_decentralized).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coverage/density.h"
#include "fault/fault_model.h"
#include "foi/foi.h"
#include "march/execution_engine.h"
#include "march/planner.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace anr {

struct DecentralizedOptions {
  /// Tick length; 0 picks plan.total_time / 512 (matches ExecutionEngine).
  double dt = 0.0;

  // --- channel hostility ------------------------------------------------
  /// Per-message delivery delay of 1..max_delay rounds (1 = synchronous).
  int max_delay = 1;
  std::uint64_t delay_seed = 0x5eedULL;
  /// Per-transmission loss probability (0 = lossless).
  double loss_rate = 0.0;
  std::uint64_t loss_seed = 0x10551ULL;
  /// Ack/retransmit knobs for the reliable control plane.
  net::ReliabilityOptions reliability{};

  // --- local-controller tuning (see LocalControllerConfig) --------------
  int heartbeat_period = 1;
  int suspicion_ticks = 12;
  int suspicion_jitter = 4;
  int confirm_ticks = 8;
  int election_ticks = 12;
  int gather_ticks = 12;
  int isolation_ticks = 18;
  /// 0 picks (max_delay + 3) * dt — the smallest slack that keeps
  /// heartbeat staleness from throttling a healthy march.
  double lag_tolerance = 0.0;
  double catch_up_factor = 3.0;
  double suspicion_range_factor = 0.8;
  std::uint64_t timeout_seed = 0x7ea5ULL;

  // --- recovery ---------------------------------------------------------
  bool enable_recovery = true;
  int recovery_lloyd_steps = 40;
  int recovery_cvt_samples = 8000;

  std::uint64_t noise_seed = 0x5eedULL;
  /// Wall cap as a multiple of the plan horizon.
  double max_wall_factor = 25.0;
  /// Metrics sink (anr_dex_* families), batched post-run. May be null.
  obs::Registry* registry = nullptr;
};

/// Lifecycle of one true crash as the swarm experienced it. Times < 0
/// mean the stage never happened (e.g. a crash nobody detected).
struct CrashDetection {
  int robot = -1;
  int coordinator = -1;       ///< absorb coordinator (-1 when none elected)
  double crash_time = 0.0;
  double suspected_time = -1.0;
  double detected_time = -1.0;  ///< first confirm by any peer
  double recovered_time = -1.0; ///< absorb computed and flooded
};

struct DecentralizedReport {
  /// The common execution summary (events, survivors, connectivity,
  /// distances, final configuration). `recoveries` counts absorbs.
  ExecutionReport exec;

  // --- message complexity ----------------------------------------------
  std::size_t rounds = 0;
  std::size_t messages_sent = 0;
  std::size_t messages_delivered = 0;
  std::size_t messages_lost = 0;
  std::size_t retransmissions = 0;
  std::size_t messages_expired = 0;
  std::size_t duplicates_suppressed = 0;
  std::size_t acks_sent = 0;
  std::size_t bytes_sent = 0;
  std::size_t heartbeats = 0;

  // --- distributed-detection accounting --------------------------------
  int suspicions = 0;   ///< suspicion episodes raised across all robots
  int isolations = 0;   ///< robots that went totally silent-side
  int elections = 0;    ///< coordinator elections won
  int absorbs = 0;      ///< peer-absorb recoveries completed
  std::vector<CrashDetection> detections;  ///< true crashes, crash order
  /// Mean crash->confirm and confirm->absorb latencies over the true
  /// crashes that reached those stages; -1 when none did.
  double mean_detection_latency = -1.0;
  double mean_recovery_latency = -1.0;
};

/// Executes plans through message-passing local controllers. Stateless
/// across runs.
class DecentralizedEngine {
 public:
  explicit DecentralizedEngine(double r_c, DecentralizedOptions options = {});

  /// Runs `plan` under `schedule` with per-robot local control. Throws
  /// ContractViolation on an invalid schedule or empty plan.
  DecentralizedReport run(const MarchPlan& plan,
                          const fault::FaultSchedule& schedule,
                          const FieldOfInterest& m2_world,
                          const DensityFn& density = {}) const;

  double comm_range() const { return r_c_; }
  const DecentralizedOptions& options() const { return opt_; }

 private:
  struct Instruments {
    obs::Counter* runs = nullptr;
    obs::Counter* rounds = nullptr;
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* lost = nullptr;
    obs::Counter* retransmissions = nullptr;
    obs::Counter* heartbeats = nullptr;
    obs::Counter* suspicions = nullptr;
    obs::Counter* isolations = nullptr;
    obs::Counter* elections = nullptr;
    obs::Counter* absorbs = nullptr;
    obs::Histogram* detection_latency = nullptr;
    obs::Histogram* recovery_latency = nullptr;
  };

  double r_c_;
  DecentralizedOptions opt_;
  Instruments ins_;
};

}  // namespace anr
