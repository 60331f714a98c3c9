// ExecutionEngine: deterministic fault-injection execution of a march.
//
// Planning (MarchPlanner) proves a march exists that keeps the swarm one
// connected network; this engine *executes* a plan while a FaultSchedule
// breaks things, and exercises the paper's recoverability claim online.
// How a fault acts on a robot (crash-stop, stuck/slowed actuation, noise,
// the fault log, the closing survivor accounting) is the shared
// FaultPlant (march/fault_plant.h); this engine adds the centralized
// policy:
//
//   - trajectories are stepped on a fixed tick; per-robot progress can lag
//     the shared schedule clock (stuck/slowed actuation) and is closed at
//     a bounded catch-up rate once the fault clears;
//   - an online connectivity guard (net::ConnectivityMonitor) watches the
//     alive network every tick at the effective radio range and at a
//     shrunk guard radius — the early warning fires strictly before the
//     hard Def. 2 guarantee can be lost, because gaps grow by at most one
//     tick of travel;
//   - recovery policies: pause-and-wait with bounded, doubling backoff for
//     transient trouble (the swarm freezes its schedule clock so gaps stop
//     growing; lagging robots keep catching up); peer-absorb via
//     recover_from_failure for permanent crash-stops; retarget_mid_march
//     splicing for scripted mission changes. When the retry budget runs
//     out the engine emits a degraded event and marches on;
//   - everything is a pure function of (plan, schedule, options): the
//     typed event log (injected -> detected -> recovery started/finished
//     -> degraded) serializes byte-identically for a given seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coverage/density.h"
#include "fault/fault_model.h"
#include "foi/foi.h"
#include "march/planner.h"
#include "march/trajectory.h"
#include "obs/metrics.h"

namespace anr {

/// Typed entries of the execution event log, in emission order.
enum class ExecEventType {
  kFaultInjected,     ///< a schedule window opened
  kFaultCleared,      ///< a transient window closed
  kFaultDetected,     ///< the monitor attributed trouble (crash detection)
  kDisconnected,      ///< hard connectivity (Def. 2) lost this tick
  kReconnected,       ///< hard connectivity regained
  kPauseStarted,      ///< pause-and-wait engaged (guard tripped)
  kPauseEnded,        ///< guard clean again; schedule clock resumed
  kRecoveryStarted,   ///< peer-absorb replan dispatched
  kRecoveryFinished,  ///< survivors' timelines spliced
  kRetargeted,        ///< mission change spliced mid-march
  kDegraded,          ///< a retry/backoff/wall budget was exhausted
  kCompleted,         ///< all alive robots reached their timeline ends
  // Decentralized-mode events (march/decentralized_engine.h): emitted by
  // the per-robot local controllers, never by a global oracle.
  kPeerSuspected,       ///< first peer passed its missed-heartbeat budget
  kSuspicionCleared,    ///< a suspected peer was heard again (partition heal)
  kIsolated,            ///< a robot stopped hearing anyone (cut off)
  kRejoined,            ///< an isolated robot regained contact and resumed
  kCoordinatorElected,  ///< closest-live-neighbor election settled
};

/// Stable lowercase name ("fault_injected", ...).
const char* exec_event_name(ExecEventType type);

struct ExecutionEvent {
  double t = 0.0;  ///< wall-clock time of the event
  ExecEventType type = ExecEventType::kCompleted;
  bool has_fault = false;                          ///< `fault` is meaningful
  fault::FaultKind fault = fault::FaultKind::kCrash;
  int robot = -1;      ///< original robot id when the event has a subject
  std::string detail;  ///< short deterministic description
};

/// A scripted mid-march mission change: at wall time `t`, abandon the
/// current march and head for `planner`'s M2 translated by `m2_offset`.
/// The planner must outlive the run() call.
struct MissionChange {
  double t = 0.0;
  const MarchPlanner* planner = nullptr;
  Vec2 m2_offset{};
};

struct ExecutionOptions {
  /// Tick length; 0 picks plan.total_time / 512.
  double dt = 0.0;
  /// Master switch for all recovery policies (pause, absorb). Mission
  /// changes execute either way — they are instructions, not recoveries.
  bool enable_recovery = true;
  /// Guard radius factor for the early-warning connectivity check. The
  /// engine auto-relaxes it per tick to the planned formation's bottleneck
  /// link (plus 2%), so the guard fires on regressions from the plan,
  /// never on the plan's own loose moments.
  double guard_factor = 0.85;
  /// Wall delay between a crash and its detection by peers.
  double detection_delay = 0.0;
  /// Pause-and-wait budget: up to this many doubling backoff windows.
  int max_pause_retries = 6;
  /// First backoff window; 0 picks 16 ticks.
  double initial_backoff = 0.0;
  /// Rate at which a lagging (formerly stuck/slowed) robot closes its
  /// schedule deficit once healthy.
  double catch_up_factor = 3.0;
  /// Hard wall-clock cap as a multiple of the plan horizon; exceeding it
  /// emits a degraded event and stops the run.
  double max_wall_factor = 25.0;
  /// Re-spread knobs forwarded to recover_from_failure.
  int recovery_lloyd_steps = 40;
  int recovery_cvt_samples = 8000;
  /// Seed for deterministic position-noise sampling.
  std::uint64_t noise_seed = 0x5eedULL;
  /// Scripted mission changes, applied in time order.
  std::vector<MissionChange> mission_changes;
  /// Metrics sink (anr_exec_* counters: runs, ticks, pauses, retries,
  /// crashes absorbed, guard trips, ...). Counters are batched from the
  /// finished report, so instrumentation cannot perturb the tick loop or
  /// the deterministic event log. Must outlive the engine.
  obs::Registry* registry = nullptr;
};

struct ExecutionReport {
  std::vector<ExecutionEvent> events;

  int num_robots = 0;
  std::vector<int> crashed;    ///< original ids, in detection order
  std::vector<int> survivors;  ///< original ids still alive at the end
  double survival_rate = 1.0;

  /// Global connectivity C over the alive network, sampled every tick.
  bool connected_throughout = true;
  double first_disconnect_time = -1.0;  ///< < 0 when never disconnected
  bool final_connected = true;

  /// Post-run stable link ratio L: fraction of the initial links between
  /// surviving robots still within r_c at the final positions.
  double stable_link_ratio = 1.0;

  double planned_distance = 0.0;   ///< fault-free total path length
  double executed_distance = 0.0;  ///< commanded distance actually flown
  double extra_distance = 0.0;     ///< executed - planned (recovery cost)

  int pauses = 0;      ///< pause-and-wait engagements
  int retries = 0;     ///< backoff windows consumed across pauses
  int recoveries = 0;  ///< peer-absorb operations dispatched
  int retargets = 0;   ///< mission changes spliced
  bool degraded = false;

  double end_time = 0.0;  ///< wall time when the run finished

  std::vector<int> final_ids;        ///< original ids for final_positions
  std::vector<Vec2> final_positions; ///< survivors' final (clean) positions
};

/// Executes plans under fault campaigns. Stateless across runs; one
/// engine can replay many (plan, schedule) pairs.
class ExecutionEngine {
 public:
  explicit ExecutionEngine(double r_c, ExecutionOptions options = {});

  /// Runs `plan` under `schedule`. `m2_world` is the target FoI in world
  /// coordinates (the re-spread domain for crash absorption). Throws
  /// ContractViolation on an invalid schedule or empty plan.
  ExecutionReport run(const MarchPlan& plan,
                      const fault::FaultSchedule& schedule,
                      const FieldOfInterest& m2_world,
                      const DensityFn& density = {}) const;

  double comm_range() const { return r_c_; }
  const ExecutionOptions& options() const { return opt_; }

 private:
  /// Metric handles (all null when ExecutionOptions::registry is unset).
  struct Instruments {
    obs::Counter* runs = nullptr;
    obs::Counter* ticks = nullptr;
    obs::Counter* pauses = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* guard_trips = nullptr;
    obs::Counter* disconnects = nullptr;
    obs::Counter* retargets = nullptr;
    obs::Counter* degraded = nullptr;
  };

  double r_c_;
  ExecutionOptions opt_;
  Instruments ins_;
};

}  // namespace anr
