// FaultModel: pointwise evaluation of a FaultSchedule during execution.
//
// The FaultPlant (march/fault_plant.h) that both execution engines share
// asks, every tick, "what is wrong right now?" — which robots are dead or
// degraded, which links are down, how far the radio range has shrunk.
// The model answers from the schedule alone plus a noise seed, so an
// execution is a pure function of (plan, schedule, seed): position noise
// is a counter-free hash of (seed, robot, tick), never a shared RNG
// stream, so verdicts do not depend on query order.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_schedule.h"
#include "geom/vec2.h"

namespace anr::fault {

/// Per-robot fault state at one instant.
struct RobotFaultState {
  bool crashed = false;      ///< crash-stop fired at or before t
  double crash_time = 0.0;   ///< valid when crashed
  bool stuck = false;        ///< inside a kStuck window
  double speed_factor = 1.0; ///< min over active kSlowdown windows (1 = nominal)
  double noise_sigma = 0.0;  ///< max over active kPositionNoise windows
};

class FaultModel {
 public:
  /// `noise_seed` drives position-noise sampling only.
  FaultModel(FaultSchedule schedule, std::uint64_t noise_seed);

  const FaultSchedule& schedule() const { return schedule_; }

  RobotFaultState robot_state(int robot, double t) const;

  /// Effective communication-range factor at t: min severity over the
  /// active kRangeDegradation windows (1 when none).
  double range_factor(double t) const;

  /// True when the (a, b) link is inside an active kLinkDropout window.
  bool link_dropped(int a, int b, double t) const;

  /// Links down at t as unordered (min, max) pairs, schedule order.
  std::vector<std::pair<int, int>> dropped_links(double t) const;

  /// Events whose window opens in (t_prev, t] — for the injection log.
  std::vector<const FaultEvent*> activated(double t_prev, double t) const;
  /// Transient events whose window closes in (t_prev, t].
  std::vector<const FaultEvent*> cleared(double t_prev, double t) const;

  /// Deterministic GPS-noise offset for `robot` at `tick`, standard
  /// deviation `sigma` per axis. Pure function of (seed, robot, tick).
  Vec2 noise_offset(int robot, std::int64_t tick, double sigma) const;

 private:
  FaultSchedule schedule_;
  std::uint64_t noise_seed_;
};

}  // namespace anr::fault
