#include "march/transition_sim.h"

#include <algorithm>

#include "common/check.h"
#include "march/metrics.h"
#include "net/incremental_connectivity.h"
#include "net/unit_disk_graph.h"

namespace anr {

TransitionMetrics simulate_transition(const std::vector<Trajectory>& trajs,
                                      double r_c, double transition_end,
                                      int samples) {
  ANR_CHECK(!trajs.empty());
  ANR_CHECK(samples >= 2);
  const std::size_t n = trajs.size();

  double t0 = trajs[0].start_time();
  double t1 = trajs[0].end_time();
  for (const Trajectory& tr : trajs) {
    t0 = std::min(t0, tr.start_time());
    t1 = std::max(t1, tr.end_time());
  }
  t1 = std::max(t1, transition_end);

  TransitionMetrics out;
  for (const Trajectory& tr : trajs) {
    out.total_distance += tr.length();
    out.transition_distance += tr.length_between(t0, transition_end);
    out.adjustment_distance += tr.length_between(transition_end, t1);
  }

  // Initial links define the stable-link denominator (Def. 1: neighbors in
  // M1 at the start of the transition).
  std::vector<Vec2> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[i] = trajs[i].position(t0);
  auto links = communication_links(pos, r_c);
  out.initial_links = static_cast<int>(links.size());

  std::vector<char> alive_full(links.size(), 1);
  std::vector<char> alive_transition(links.size(), 1);

  // Sample instants: uniform over [t0, t1] plus the transition boundary.
  std::vector<double> ts;
  ts.reserve(static_cast<std::size_t>(samples) + 1);
  for (int k = 0; k < samples; ++k) {
    ts.push_back(t0 + (t1 - t0) * k / (samples - 1));
  }
  ts.push_back(transition_end);
  std::sort(ts.begin(), ts.end());

  // One checker across the instants: consecutive samples move little, so
  // its spanning-tree certificate answers most of them.
  net::IncrementalConnectivity connectivity(r_c);
  double r2 = r_c * r_c;
  for (double t : ts) {
    for (std::size_t i = 0; i < n; ++i) pos[i] = trajs[i].position(t);
    for (std::size_t li = 0; li < links.size(); ++li) {
      auto [a, b] = links[li];
      bool in_range = distance2(pos[static_cast<std::size_t>(a)],
                                pos[static_cast<std::size_t>(b)]) <= r2 + 1e-9;
      if (!in_range) {
        alive_full[li] = 0;
        if (t <= transition_end + 1e-12) alive_transition[li] = 0;
      }
    }
    if (out.global_connectivity && !connectivity.check(pos)) {
      out.global_connectivity = false;
      out.first_disconnect_time = t;
    }
    ++out.samples;
  }

  auto ratio = [&](const std::vector<char>& alive) {
    if (alive.empty()) return 1.0;
    std::size_t cnt = static_cast<std::size_t>(
        std::count(alive.begin(), alive.end(), char{1}));
    return static_cast<double>(cnt) / static_cast<double>(alive.size());
  };
  out.stable_links = static_cast<int>(
      std::count(alive_full.begin(), alive_full.end(), char{1}));
  out.stable_link_ratio = ratio(alive_full);
  out.stable_link_ratio_transition = ratio(alive_transition);
  return out;
}

}  // namespace anr
