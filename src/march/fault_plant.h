// FaultPlant: how a scheduled fault acts on the robots of one execution.
//
// Both execution engines run a plan while a FaultSchedule breaks things:
// the centralized ExecutionEngine (march/execution_engine.h) and the
// per-robot DecentralizedEngine (march/decentralized_engine.h). What a
// fault *does* is the same in both, so it lives here, once:
//
//   - the schedule is validated against the plan, and every window that
//     opens or closes is logged (kFaultInjected / kFaultCleared);
//   - a crash-stop fires at its scheduled time and is permanent;
//   - actuation is clamped: a stuck robot does not move, a slowed one
//     moves at its speed factor, a healthy one may close a deficit at
//     the engine's catch-up factor;
//   - position noise is added to what radios and monitors see;
//   - the closing accounting (survivors, survival rate, extra distance,
//     stable link ratio over surviving pairs) fills the report.
//
// The engines keep their own policy: how a crash is noticed, whether the
// swarm pauses, how a dead robot's region is absorbed. Each robot's fault
// state is evaluated once per tick; it is a pure function of (robot, t).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_model.h"
#include "march/execution_engine.h"
#include "march/planner.h"

namespace anr {

/// "robot <id>": how the event log names a robot.
std::string robot_detail(int id);

class FaultPlant {
 public:
  /// Validates `schedule` against `plan` (ContractViolation when the plan
  /// is empty or the schedule invalid), records the robot count and the
  /// planned distance in `report`, and logs the windows open at t = 0.
  /// `plan` and `report` must outlive the plant.
  FaultPlant(const MarchPlan& plan, const fault::FaultSchedule& schedule,
             std::uint64_t noise_seed, ExecutionReport& report);

  FaultPlant(const FaultPlant&) = delete;
  FaultPlant& operator=(const FaultPlant&) = delete;

  const fault::FaultModel& model() const { return model_; }

  /// Steps to `tick` at wall time `t`: logs the windows that opened or
  /// closed since the previous step and evaluates each live robot's fault
  /// state. Returns the robots whose crash-stop fired in this step, in id
  /// order.
  const std::vector<int>& advance(std::int64_t tick, double t);

  bool crashed(int robot) const { return state(robot).crashed; }
  double crash_time(int robot) const { return state(robot).crash_time; }

  /// The fastest progress (schedule seconds per wall second) the robot's
  /// actuators allow this tick: 0 when stuck, the speed factor when
  /// slowed, and `catch_up_factor` when healthy. Engines cap progress at
  /// the schedule (or the controller's wish), so only a healthy robot
  /// that is behind ever moves faster than 1.
  double max_rate(int robot, double catch_up_factor) const;

  /// What radios and GPS see of a robot commanded to `clean`: the clean
  /// position plus this tick's noise inside a noise window.
  Vec2 sensed(int robot, Vec2 clean) const;

  /// Radio range factor and dropped links at the current tick.
  double range_factor() const { return model_.range_factor(t_); }
  std::vector<std::pair<int, int>> dropped_links() const {
    return model_.dropped_links(t_);
  }

  /// Appends one entry to the report's event log.
  void log(double t, ExecEventType type, int robot, std::string detail);

  /// Closing accounting from the surviving robots' original ids and final
  /// (clean) positions: survivors, final configuration, survival rate,
  /// extra distance, and the stable link ratio over surviving pairs.
  void finish(const std::vector<int>& ids, const std::vector<Vec2>& positions,
              double r_c);

 private:
  const fault::RobotFaultState& state(int robot) const {
    return states_[static_cast<std::size_t>(robot)];
  }
  void log_fault(double t, ExecEventType type, const fault::FaultEvent& e);

  const MarchPlan& plan_;
  ExecutionReport& report_;
  fault::FaultModel model_;
  std::vector<fault::RobotFaultState> states_;
  std::vector<int> just_crashed_;
  std::int64_t tick_ = 0;
  double t_ = 0.0;
};

}  // namespace anr
