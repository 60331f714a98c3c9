#include "terrain/surface_metrics.h"

#include <algorithm>

#include "common/check.h"
#include "net/connectivity.h"
#include "terrain/surface_planner.h"

namespace anr {

namespace {

double surface_length_between(const Trajectory& tr, double t0, double t1,
                              const HeightField& terrain) {
  if (tr.empty() || t1 <= t0) return 0.0;
  double len = 0.0;
  Vec2 prev = tr.position(t0);
  for (std::size_t i = 0; i < tr.num_waypoints(); ++i) {
    if (tr.times()[i] <= t0 || tr.times()[i] >= t1) continue;
    len += terrain.surface_length(prev, tr.waypoints()[i]);
    prev = tr.waypoints()[i];
  }
  len += terrain.surface_length(prev, tr.position(t1));
  return len;
}

}  // namespace

SurfaceMetrics simulate_on_surface(const std::vector<Trajectory>& trajs,
                                   const HeightField& terrain, double r_c,
                                   double transition_end, int samples) {
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

  SurfaceMetrics out;
  for (const Trajectory& tr : trajs) {
    out.planar_distance += tr.length();
    out.surface_distance += surface_length_between(tr, t0, t1, terrain);
    out.base.transition_distance +=
        surface_length_between(tr, t0, transition_end, terrain);
    out.base.adjustment_distance +=
        surface_length_between(tr, transition_end, t1, terrain);
    out.max_climb = std::max(out.max_climb,
                             std::abs(terrain.height(tr.start()) -
                                      terrain.height(tr.end())));
  }
  out.base.total_distance = out.surface_distance;

  // Initial links under the 3D metric.
  std::vector<Vec2> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[i] = trajs[i].position(t0);
  const std::vector<std::pair<int, int>> links =
      surface_links(pos, terrain, r_c);
  out.base.initial_links = static_cast<int>(links.size());
  std::vector<char> alive(links.size(), 1);
  std::vector<char> alive_transition(links.size(), 1);

  std::vector<double> ts;
  for (int k = 0; k < samples; ++k) {
    ts.push_back(t0 + (t1 - t0) * k / (samples - 1));
  }
  ts.push_back(transition_end);
  std::sort(ts.begin(), ts.end());

  out.base.global_connectivity = true;
  out.base.first_disconnect_time = -1.0;
  for (double t : ts) {
    for (std::size_t i = 0; i < n; ++i) pos[i] = trajs[i].position(t);
    for (std::size_t li = 0; li < links.size(); ++li) {
      auto [a, b] = links[li];
      if (terrain.chord_distance(pos[static_cast<std::size_t>(a)],
                                 pos[static_cast<std::size_t>(b)]) >
          r_c + 1e-9) {
        alive[li] = 0;
        if (t <= transition_end + 1e-12) alive_transition[li] = 0;
      }
    }
    if (out.base.global_connectivity &&
        !net::is_connected(surface_adjacency(pos, terrain, r_c))) {
      out.base.global_connectivity = false;
      out.base.first_disconnect_time = t;
    }
    ++out.base.samples;
  }

  auto ratio = [](const std::vector<char>& v) {
    if (v.empty()) return 1.0;
    return static_cast<double>(std::count(v.begin(), v.end(), char{1})) /
           static_cast<double>(v.size());
  };
  out.base.stable_links =
      static_cast<int>(std::count(alive.begin(), alive.end(), char{1}));
  out.base.stable_link_ratio = ratio(alive);
  out.base.stable_link_ratio_transition = ratio(alive_transition);
  return out;
}

}  // namespace anr
