#include "march/fault_plant.h"

#include "common/check.h"
#include "march/metrics.h"

namespace anr {

namespace {

std::string subject_detail(const fault::FaultEvent& e) {
  using fault::FaultKind;
  switch (e.kind) {
    case FaultKind::kLinkDropout:
      return "link " + std::to_string(e.link_a) + "-" +
             std::to_string(e.link_b);
    case FaultKind::kRangeDegradation:
      return "range_factor " + std::to_string(e.severity);
    default:
      return robot_detail(e.robot);
  }
}

}  // namespace

std::string robot_detail(int id) { return "robot " + std::to_string(id); }

FaultPlant::FaultPlant(const MarchPlan& plan,
                       const fault::FaultSchedule& schedule,
                       std::uint64_t noise_seed, ExecutionReport& report)
    : plan_(plan), report_(report), model_(schedule, noise_seed) {
  const std::size_t n = plan.trajectories.size();
  ANR_CHECK_MSG(n >= 1, "plan has no trajectories");
  {
    Status st = schedule.validate(static_cast<int>(n));
    ANR_CHECK_MSG(st.ok(), st.to_string());
  }
  report_.num_robots = static_cast<int>(n);
  for (const Trajectory& traj : plan.trajectories) {
    ANR_CHECK_MSG(!traj.empty(), "plan has an empty trajectory");
    report_.planned_distance += traj.length();
  }
  states_.resize(n);
  for (const fault::FaultEvent* fe : model_.activated(-1.0, 0.0)) {
    log_fault(fe->t_start, ExecEventType::kFaultInjected, *fe);
  }
}

const std::vector<int>& FaultPlant::advance(std::int64_t tick, double t) {
  for (const fault::FaultEvent* fe : model_.activated(t_, t)) {
    log_fault(fe->t_start, ExecEventType::kFaultInjected, *fe);
  }
  for (const fault::FaultEvent* fe : model_.cleared(t_, t)) {
    log_fault(fe->t_end(), ExecEventType::kFaultCleared, *fe);
  }
  tick_ = tick;
  t_ = t;
  just_crashed_.clear();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].crashed) continue;  // crash-stops are permanent
    states_[i] = model_.robot_state(static_cast<int>(i), t);
    if (states_[i].crashed) just_crashed_.push_back(static_cast<int>(i));
  }
  return just_crashed_;
}

double FaultPlant::max_rate(int robot, double catch_up_factor) const {
  const fault::RobotFaultState& s = state(robot);
  if (s.stuck) return 0.0;
  // A slowed actuator cannot sprint: its factor is its ceiling.
  return s.speed_factor < 1.0 ? s.speed_factor : catch_up_factor;
}

Vec2 FaultPlant::sensed(int robot, Vec2 clean) const {
  const double sigma = state(robot).noise_sigma;
  if (sigma > 0.0) clean += model_.noise_offset(robot, tick_, sigma);
  return clean;
}

void FaultPlant::log(double t, ExecEventType type, int robot,
                     std::string detail) {
  ExecutionEvent e;
  e.t = t;
  e.type = type;
  e.robot = robot;
  e.detail = std::move(detail);
  report_.events.push_back(std::move(e));
}

void FaultPlant::log_fault(double t, ExecEventType type,
                           const fault::FaultEvent& fe) {
  log(t, type, fe.robot, subject_detail(fe));
  report_.events.back().has_fault = true;
  report_.events.back().fault = fe.kind;
}

void FaultPlant::finish(const std::vector<int>& ids,
                        const std::vector<Vec2>& positions, double r_c) {
  ANR_CHECK(ids.size() == positions.size());
  ExecutionReport& r = report_;
  r.survivors = ids;
  r.final_ids = ids;
  r.final_positions = positions;
  r.survival_rate = static_cast<double>(ids.size()) /
                    static_cast<double>(r.num_robots);
  r.extra_distance = r.executed_distance - r.planned_distance;

  // L over surviving pairs: initial links still within r_c at the end.
  const std::size_t n = plan_.trajectories.size();
  std::vector<Vec2> start(n);
  for (std::size_t i = 0; i < n; ++i) start[i] = plan_.trajectories[i].start();
  std::vector<char> survives(n, 0);
  std::vector<Vec2> final_by_id(n);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    survives[static_cast<std::size_t>(ids[k])] = 1;
    final_by_id[static_cast<std::size_t>(ids[k])] = positions[k];
  }
  int links = 0, kept = 0;
  for (const auto& [a, b] : communication_links(start, r_c)) {
    if (!survives[static_cast<std::size_t>(a)] ||
        !survives[static_cast<std::size_t>(b)]) {
      continue;
    }
    ++links;
    if (distance(final_by_id[static_cast<std::size_t>(a)],
                 final_by_id[static_cast<std::size_t>(b)]) <=
        r_c * (1.0 + 1e-12)) {
      ++kept;
    }
  }
  r.stable_link_ratio =
      links == 0 ? 1.0 : static_cast<double>(kept) / static_cast<double>(links);
}

}  // namespace anr
