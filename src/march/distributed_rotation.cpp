#include "march/distributed_rotation.h"

#include "common/check.h"
#include "net/network.h"
#include "net/protocols/flood.h"
#include "net/unit_disk_graph.h"

namespace anr {

namespace {
constexpr int kMappedPos = 11;  // reals = {x, y}
}

DistributedRotationResult distributed_rotation_search(
    const std::function<std::vector<Vec2>(double)>& map_targets,
    const std::vector<Vec2>& positions, double r_c, MarchObjective objective,
    const RotationSearchOptions& opt) {
  const std::size_t n = positions.size();
  auto adj = net::unit_disk_adjacency(positions, r_c);

  DistributedRotationResult out;
  double r2 = r_c * r_c;

  // One probe: local mapping, 1-hop exchange, flood-sum of local counts.
  auto probe = [&](double theta) {
    std::vector<Vec2> q = map_targets(theta);
    ANR_CHECK(q.size() == n);

    net::Network net(adj);
    for (std::size_t i = 0; i < n; ++i) {
      net::Message m;
      m.tag = kMappedPos;
      m.reals = {q[i].x, q[i].y};
      net.broadcast(static_cast<int>(i), m);
    }
    net.deliver_round();
    std::vector<double> local(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (objective == MarchObjective::kMinDistance) {
        net.take_inbox(static_cast<int>(i));  // drain (unused for method b)
        local[i] = -distance(positions[i], q[i]);
        continue;
      }
      for (const net::Message& m : net.take_inbox(static_cast<int>(i))) {
        if (m.tag != kMappedPos) continue;
        Vec2 qj{m.reals[0], m.reals[1]};
        if (distance2(q[i], qj) <= r2 + 1e-9) local[i] += 0.5;  // each link
                                                                // counted twice
      }
    }
    out.messages += net.messages_sent();
    out.rounds += net.rounds_elapsed();

    net::Network flood_net(adj);
    auto sum = net::run_flood_sum(flood_net, local);
    out.messages += sum.messages;
    out.rounds += sum.rounds;

    // Method (a): maximize preserved links (the denominator, total initial
    // links, is constant across probes — ratio ordering is unchanged).
    return sum.sum;
  };

  // Every robot takes the same branch of the interval search, so the
  // probe sequence is the centralized search's.
  RotationSearchResult rot = search_rotation(probe, opt);
  out.angle = rot.angle;
  out.value = rot.value;
  out.evaluations = rot.evaluations;
  return out;
}

}  // namespace anr
