#include "baselines/hungarian_march.h"

#include "common/check.h"
#include "coverage/lloyd.h"
#include "march/metrics.h"
#include "march/stages.h"
#include "matching/hungarian.h"

namespace anr {

HungarianMarchPlanner::HungarianMarchPlanner(FieldOfInterest m1,
                                             FieldOfInterest m2_shape,
                                             double r_c, int num_robots,
                                             BaselineOptions options)
    : m1_(std::move(m1)),
      m2_(std::move(m2_shape)),
      r_c_(r_c),
      opt_(options) {
  ANR_CHECK(num_robots >= 1 && r_c_ > 0.0);
  coverage_ = optimal_coverage_positions(m2_, num_robots, opt_.coverage_seed,
                                         uniform_density(), opt_.coverage)
                  .positions;
}

MarchPlan HungarianMarchPlanner::plan(const std::vector<Vec2>& positions,
                                      Vec2 m2_offset) const {
  ANR_CHECK(positions.size() == coverage_.size());
  const std::size_t n = positions.size();

  std::vector<Vec2> goals(n);
  for (std::size_t i = 0; i < n; ++i) goals[i] = coverage_[i] + m2_offset;
  AssignmentResult match = min_distance_assignment(positions, goals);

  MarchPlan plan;
  plan.start = positions;
  plan.transition_end = opt_.transition_time;
  plan.total_time = opt_.transition_time;

  plan.mapped_targets.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan.mapped_targets[i] = goals[static_cast<std::size_t>(match.row_to_col[i])];
  }
  plan.final_positions = plan.mapped_targets;
  plan.trajectories =
      straight_transitions(positions, plan.mapped_targets, opt_.transition_time,
                           transition_obstacles(m1_, m2_, m2_offset));
  plan.predicted_link_ratio = predicted_stable_link_ratio(
      positions, plan.mapped_targets, communication_links(positions, r_c_),
      r_c_);
  return plan;
}

}  // namespace anr
