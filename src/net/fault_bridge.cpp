#include "net/fault_bridge.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace anr::net {

namespace {

/// Per-round view of the schedule: the dropped-link set, rebuilt once
/// when the round advances. Shared by value-copied std::function
/// instances through a shared_ptr.
struct OutageCache {
  const fault::FaultModel* model = nullptr;
  double round_dt = 0.0;
  std::size_t round = std::numeric_limits<std::size_t>::max();
  std::unordered_set<std::uint64_t> dropped;

  void refresh(std::size_t r) {
    if (r == round) return;
    round = r;
    const double t = static_cast<double>(r) * round_dt;
    dropped.clear();
    for (const auto& [a, b] : model->dropped_links(t)) {
      dropped.insert((static_cast<std::uint64_t>(static_cast<std::uint32_t>(a))
                      << 32) |
                     static_cast<std::uint32_t>(b));
    }
  }

  bool link_down(NodeId a, NodeId b) const {
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    return dropped.count(
               (static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo))
                << 32) |
               static_cast<std::uint32_t>(hi)) > 0;
  }
};

}  // namespace

LinkOutageFn make_fault_outage(const fault::FaultModel& model,
                               double round_dt) {
  ANR_CHECK(round_dt > 0.0);
  auto cache = std::make_shared<OutageCache>();
  cache->model = &model;
  cache->round_dt = round_dt;
  return [cache](NodeId from, NodeId to, std::size_t round) -> bool {
    cache->refresh(round);
    return cache->link_down(from, to);
  };
}

}  // namespace anr::net
