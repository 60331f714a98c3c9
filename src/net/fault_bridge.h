// Bridge from the fault layer to the message simulator.
//
// A FaultSchedule scripts link-dropout and range-degradation windows,
// but until this adapter existed the windows only informed the
// centralized connectivity oracle — the Network kept delivering. The
// bridge closes that gap: it binds a FaultModel to Network's link-outage
// hook so that a scheduled dropout suppresses the actual messages in
// flight. The same seeded campaigns that drive the centralized
// ExecutionEngine thereby drop real traffic in the decentralized mode.
// (A shrunk radio range needs no bridge: the decentralized engine
// rebuilds the unit-disk topology at the degraded range every tick.)
//
// Rounds map to wall time via `round_dt` (the engine ticks the network
// once per simulation tick). The adapter caches the schedule's dropped
// set per round, so a partition window scripted as hundreds of
// per-link dropout events costs one schedule scan per round, not one
// per delivery.
#pragma once

#include "fault/fault_model.h"
#include "net/network.h"

namespace anr::net {

/// Outage predicate for Network::set_link_outage: the (a, b) link is
/// down at round r when the schedule has an active kLinkDropout window
/// over it at t = r * round_dt. The FaultModel must outlive the network.
LinkOutageFn make_fault_outage(const fault::FaultModel& model,
                               double round_dt);

}  // namespace anr::net
