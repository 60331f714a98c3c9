// SLO-driven admission control for the serving path.
//
// A MissionService under overload already has two blunt instruments:
// kBlock (stall the submitter) and kReject (drop on a full queue). A
// serving frontend wants something graduated: keep accepting while the
// backend is healthy, *shed* to the cheap degraded plan as pressure
// builds, and only reject outright when even shedding cannot keep the
// SLO. This module provides that ladder:
//
//   AdmissionController — turns two live signals into one scalar
//     "pressure": queue occupancy (depth / capacity) and the windowed
//     p99 of the backend's full-service end-to-end latency
//     (anr_job_e2e_full_seconds) relative to the SLO:
//
//         pressure = max(queue_depth / queue_capacity,
//                        window_p99 / slo_seconds)
//
//     The decision is a monotone step function of pressure — fixed
//     thresholds, no hysteresis state that could invert the ordering:
//
//         pressure <  shed_pressure    -> kAccept (full service)
//         pressure <  reject_pressure  -> kShed   (degraded-only plan)
//         pressure >= reject_pressure  -> kReject (typed rejection)
//
//     Monotone means: for any two observations in the same refresh
//     window, a higher pressure never gets a strictly better decision.
//     tests/test_admission.cpp asserts this property over seeded bursts.
//
//   ServingGateway — the enforcement point. Wraps a backend submit
//     function: kAccept passes the job through unchanged, kShed rewrites
//     it to ServiceLevel::kDegradedOnly (baseline planner, degraded=true
//     in the result), kReject resolves the future immediately with
//     JobStatus::kRejectedOverload. Every submitted job resolves exactly
//     one way, so accepted + shed + rejected == submitted always holds.
//
// The latency window is histogram-delta based: refresh() snapshots the
// watched histograms' bucket counts and computes the p99 of observations
// that arrived since the previous refresh (the bucket upper bound — a
// conservative overestimate). Quiet windows (fewer than min_window_count
// new samples) decay the held p99 geometrically instead of recomputing
// from noise, so pressure relaxes after a burst rather than latching.
//
// Everything here is registry-agnostic: with no registry the controller
// still works off the queue probe alone (latency pressure reads 0).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/mission_service.h"

namespace anr::runtime {

/// The admission ladder, ordered by severity.
enum class AdmitDecision {
  kAccept,  ///< full service
  kShed,    ///< degraded-only service (baseline planner)
  kReject,  ///< refuse: JobStatus::kRejectedOverload
};

/// Stable lowercase name ("accept", "shed", "reject").
const char* admit_decision_name(AdmitDecision d);

struct AdmissionOptions {
  /// Target p99 end-to-end latency for full-service jobs, seconds.
  double slo_seconds = 1.0;
  /// Pressure at which full service stops and shedding starts.
  double shed_pressure = 0.75;
  /// Pressure at which even shedding stops and jobs are refused.
  /// Must be >= shed_pressure (checked at construction).
  double reject_pressure = 1.5;
  /// Occupancy denominator: the backend's (aggregate) queue capacity.
  /// The sharded backend's probe scales its fullest shard by the shard
  /// count, so there occupancy is that shard's own occupancy.
  std::size_t queue_capacity = 256;
  /// A refresh window needs at least this many new latency samples to
  /// recompute p99; below it the held p99 decays instead.
  std::size_t min_window_count = 16;
  /// Geometric decay applied to the held p99 on a quiet window, in
  /// [0, 1). 0 forgets immediately; 0.5 halves per window.
  double idle_decay = 0.5;
  /// Metrics sink (anr_admit_total{decision=...}, anr_admit_pressure,
  /// anr_admit_p99_seconds, anr_admit_occupancy). Must outlive the
  /// controller. nullptr disables.
  obs::Registry* registry = nullptr;
  obs::Labels metric_labels;
};

/// One admission decision plus the signals that produced it, so callers
/// (and the property test) can audit threshold compliance.
struct AdmitResult {
  AdmitDecision decision = AdmitDecision::kAccept;
  double pressure = 0.0;
  double occupancy = 0.0;    ///< queue_depth / queue_capacity at decision
  double p99_seconds = 0.0;  ///< held window p99 at decision
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Adds a latency histogram to the window (one per shard in a sharded
  /// deployment; deltas are merged). The histogram must outlive the
  /// controller. Call before concurrent admit()/refresh() use.
  void watch(const obs::Histogram* latency);

  /// Installs the queue-depth probe (e.g. the backend's aggregate
  /// depth). Without one, occupancy reads 0. Call before concurrent use.
  void set_queue_probe(std::function<std::size_t()> probe);

  /// Closes the current latency window: recomputes the held p99 from
  /// bucket deltas since the previous refresh (or decays it on a quiet
  /// window). Thread-safe; typically driven by the gateway's cadence.
  void refresh();

  /// Decides one job's fate at current pressure. Thread-safe, cheap
  /// (one probe call + one mutex-guarded read of the held p99).
  AdmitResult admit();

  /// The held (last-window) p99, seconds.
  double window_p99() const;

  const AdmissionOptions& options() const { return opt_; }

 private:
  struct Watched {
    const obs::Histogram* hist = nullptr;
    std::vector<std::uint64_t> prev_buckets;  ///< cumulative at last refresh
  };

  AdmissionOptions opt_;
  std::function<std::size_t()> probe_;

  mutable std::mutex mu_;  ///< guards watched_ and p99_
  std::vector<Watched> watched_;
  double p99_ = 0.0;

  struct Instruments {
    obs::Counter* by_decision[3] = {};  ///< indexed by AdmitDecision
    obs::Gauge* pressure = nullptr;
    obs::Gauge* p99 = nullptr;
    obs::Gauge* occupancy = nullptr;
  };
  Instruments ins_;
};

/// What the gateway needs from a backend: a submit, a depth probe (the
/// controller's occupancy signal) and the full-service latency
/// histograms the controller watches. shard::ShardedMissionService
/// builds its own (gateway_backend()).
struct GatewayBackend {
  std::function<std::future<JobResult>(PlanJob)> submit;
  std::function<std::size_t()> queue_depth;
  std::vector<const obs::Histogram*> latency;
};

struct GatewayStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;  ///< passed through at full service
  std::uint64_t shed = 0;      ///< downgraded to kDegradedOnly
  std::uint64_t rejected = 0;  ///< resolved kRejectedOverload here
};

json::Value gateway_stats_to_json(const GatewayStats& s);

/// The admission enforcement point in front of a backend. Owns nothing
/// but counters; controller and backend must outlive it.
class ServingGateway {
 public:
  /// Installs `backend.queue_depth` as the controller's queue probe and
  /// has it watch `backend.latency`. `refresh_every` sets the window
  /// cadence: the controller is refreshed once per that many
  /// submissions (>= 1).
  ServingGateway(GatewayBackend backend, AdmissionController* controller,
                 int refresh_every = 32);

  ServingGateway(const ServingGateway&) = delete;
  ServingGateway& operator=(const ServingGateway&) = delete;

  /// Admission-checked submit. The returned future always resolves:
  /// through the backend for kAccept/kShed, immediately with
  /// kRejectedOverload for kReject. The admission verdict for shed jobs
  /// surfaces in the result (status kDegraded, degradation.degraded);
  /// when `decision` is non-null it receives the verdict synchronously
  /// (per-job classification for load harnesses).
  std::future<JobResult> submit(PlanJob job, AdmitResult* decision = nullptr);

  GatewayStats stats() const;
  AdmissionController& controller() { return *ctrl_; }

 private:
  GatewayBackend backend_;
  AdmissionController* ctrl_;
  std::uint64_t refresh_every_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace anr::runtime
