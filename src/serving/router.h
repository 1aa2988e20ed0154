#ifndef TITANT_SERVING_ROUTER_H_
#define TITANT_SERVING_ROUTER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/circuit_breaker.h"
#include "serving/model_server.h"

namespace titant::serving {

/// Fronts a fleet of Model Server instances (§4.4: "MS are distributed to
/// satisfy low latency and high service load"): round-robin dispatch,
/// health-based failover, per-instance circuit breakers, broadcast model
/// rollouts with stale-instance hold-down, aggregated latency.
///
/// Each instance's breaker counts instance-level failures (Unavailable /
/// Timeout / ResourceExhausted / Internal) and follows CircuitBreaker's
/// fixed policy: 5 in a row trip it, every 16th request routed to it
/// while open goes through as a probe, and an answer closes it.
///
/// Thread-safe: Score may be called concurrently; health toggles and model
/// rollouts serialize against each other but not against reads (instances
/// handle their own synchronization).
class ModelServerRouter {
 public:
  /// Spins up `num_instances` servers sharing `store` (which must outlive
  /// the router).
  ModelServerRouter(kvstore::KvTable* store, ModelServerOptions options, int num_instances);

  int num_instances() const { return static_cast<int>(instances_.size()); }

  /// Rolls the model out to every instance (all-or-nothing per instance;
  /// returns the first error but keeps rolling the rest). An instance
  /// whose load fails is held out of rotation — serving a stale model
  /// version from inside a "rolled out" fleet is worse than losing the
  /// capacity — until a later rollout succeeds on it or ops revives it
  /// via SetInstanceHealthy(i, true).
  Status LoadModel(const std::string& blob, uint64_t version);

  /// Dispatches to the next in-rotation instance (round robin).
  /// Instance-level failures fail over to the next one and feed that
  /// instance's breaker; returns Unavailable when no instance is usable.
  /// `deadline_us` (absolute monotonic micros, <= 0 = none) is forwarded
  /// to the instance for degraded-mode budget checks.
  StatusOr<Verdict> Score(const TransferRequest& request, int64_t deadline_us = 0);

  /// Batch counterpart of Score (and the engine behind it: Score is the
  /// batch-of-1 special case). One dispatch decision picks one instance to
  /// score the whole batch; instance-level failures fail over the batch as
  /// a unit and feed that instance's breaker, while per-item outcomes
  /// (degraded rows, unknown users) ride inside the returned vector.
  StatusOr<std::vector<StatusOr<Verdict>>> ScoreBatch(
      const std::vector<TransferRequest>& requests, int64_t deadline_us = 0);

  /// Span engine behind Score and ScoreBatch, mirroring
  /// ModelServer::ScoreSpan: results land in `out[0..n)`, every buffer
  /// lives in `scratch` (nullptr = the chosen instance's per-thread
  /// default), and a warm scratch keeps the whole dispatch allocation-free.
  /// Failover/breaker semantics are identical to ScoreBatch.
  Status ScoreSpan(const TransferRequest* requests, std::size_t n, int64_t deadline_us,
                   StatusOr<Verdict>* out, ScoreScratch* scratch = nullptr);

  /// Marks an instance up/down (ops control; also used by failure tests).
  /// Reviving an instance clears its breaker and any rollout hold-down.
  Status SetInstanceHealthy(int instance, bool healthy);

  /// True when the instance is in rotation: marked up by ops AND not held
  /// down by a failed rollout AND its circuit breaker is not open.
  bool instance_healthy(int instance) const {
    const std::size_t i = static_cast<std::size_t>(instance);
    return healthy_[i].load() && !rollout_held_[i].load() && !breakers_[i].open();
  }

  /// Breaker / rollout introspection (ops + tests).
  bool breaker_open(int instance) const {
    return breakers_[static_cast<std::size_t>(instance)].open();
  }
  bool rollout_held(int instance) const {
    return rollout_held_[static_cast<std::size_t>(instance)].load();
  }
  /// Times any breaker transitioned closed -> open since construction.
  uint64_t breaker_trips() const;
  /// Instances currently out of rotation (ops down, held, or open).
  int open_instances() const;

  /// Requests served per instance (load-balance diagnostics).
  uint64_t requests_served(int instance) const {
    return served_[static_cast<std::size_t>(instance)].load();
  }

  /// Degraded verdicts across the fleet (see ModelServer::degraded_scores).
  uint64_t degraded_total() const;

  /// Latency distribution merged across instances.
  Histogram AggregateLatency() const;

  /// Highest model version installed on any instance (rollouts are
  /// broadcast, so instances normally agree; 0 before the first load).
  uint64_t model_version() const;

 private:
  std::vector<std::unique_ptr<ModelServer>> instances_;
  std::vector<std::atomic<bool>> healthy_;        // Ops-controlled up/down.
  std::vector<std::atomic<bool>> rollout_held_;   // Stale model: failed rollout.
  std::vector<CircuitBreaker> breakers_;
  std::vector<std::atomic<uint64_t>> served_;
  std::atomic<uint64_t> cursor_{0};
};

}  // namespace titant::serving

#endif  // TITANT_SERVING_ROUTER_H_
