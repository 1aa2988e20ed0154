#ifndef TITANT_REPLICATION_FAILOVER_STORE_H_
#define TITANT_REPLICATION_FAILOVER_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/statusor.h"
#include "kvstore/store.h"
#include "net/wire.h"

namespace titant::replication {

struct FailoverStoreStats {
  bool on_standby = false;
  uint64_t failovers = 0;  // Primary -> standby flips.
  uint64_t failbacks = 0;  // Standby -> recovered-primary flips.
  uint64_t probes = 0;     // Half-open primary probes issued.
};

/// The serving tier's store failover: a KvTable fronting a primary and a
/// warm standby (each itself a KvTable — in-process stores in tests, a
/// remote-store client against a KvStoreServer in a multi-node
/// deployment). ModelServer, the router, and the streaming Ingestor hold
/// this instead of a concrete store and never learn which node answered.
///
/// Fail over: the primary's CircuitBreaker (the router's type) counts
/// consecutive calls with an infra-failed outcome (any probe
/// Unavailable/Timeout/ResourceExhausted/IOError — the node-down class,
/// per the net error-mapping contract; NotFound is a miss, not a
/// failure). At 5 in a row, reads and writes flip to the standby, and
/// the batch that tripped the breaker is re-fetched there — the caller
/// gets stale-but-real features, not a degraded miss. While failed over,
/// degraded_reads() is true: the scorer sets the degraded-verdict bit
/// (§4.4 fail-open: a possibly-stale counter beats a refused score),
/// because standby staleness is bounded by the shipper's unacked lag,
/// not zero.
///
/// Fail back: every 16th read while failed over re-issues the batch
/// against the primary from a private scratch pin (one thread at a time;
/// others skip past a held try-lock). A clean answer from the primary
/// flips back. Writes that landed on the standby during the outage are NOT
/// replayed to the recovered primary by this tier — convergence comes
/// from the layer above (the ingestor republishes live counters with
/// outranking versions within one publish interval, and the restarted
/// primary catches up from the promoted node's snapshot before it is
/// probed back into service).
class FailoverStore : public kvstore::KvTable {
 public:
  FailoverStore(kvstore::KvTable* primary, kvstore::KvTable* standby);

  void MultiGetView(const kvstore::ColumnProbeView* probes, std::size_t n,
                    kvstore::ReadPin* pin, StatusOr<std::string_view>* out,
                    uint64_t snapshot = UINT64_MAX) const override;

  Status PutBatch(const std::vector<kvstore::Cell>& cells) override;

  /// True while serving from the standby: reads may trail the primary by
  /// the shipping lag, so verdicts must carry the degraded bit.
  bool degraded_reads() const override { return breaker_.open(); }

  bool on_standby() const { return breaker_.open(); }

  /// Operator overrides (failover drills, planned maintenance).
  void ForceFailover();
  void ForceFailback();

  FailoverStoreStats stats() const;

  /// Fills the failover fields of a GatewayStats (the "replication"
  /// metrics provider merges this with the shipper's shipping fields).
  void FillStats(net::GatewayStats* stats) const;

 private:
  /// True when any probe result in `out[0..n)` is an infra failure
  /// (retryable or IOError) — the same classification ModelServer uses
  /// to fall back to default features.
  static bool AnyInfraFailure(const StatusOr<std::string_view>* out, std::size_t n);

  /// A clean primary answer: closes the breaker, counting a failback
  /// when that moved traffic off the standby.
  void PrimaryAnswered() const;

  /// Half-open probe: on every 16th failed-over read, one thread re-issues
  /// the batch against the primary into private scratch. Returns true
  /// when the probe succeeded and the store failed back.
  bool MaybeProbePrimary(const kvstore::ColumnProbeView* probes, std::size_t n,
                         uint64_t snapshot) const;

  kvstore::KvTable* primary_;
  kvstore::KvTable* standby_;

  /// Open while serving from the standby; its trips are the failovers.
  mutable CircuitBreaker breaker_;
  mutable std::atomic<uint64_t> failbacks_{0};
  mutable std::atomic<uint64_t> probes_{0};

  /// Probe scratch: its own pin so a probe never disturbs the caller's
  /// views. try-lock guarded — probing is best-effort, never a stall.
  mutable std::mutex probe_mu_;
  mutable kvstore::ReadPin probe_pin_;
  mutable std::vector<StatusOr<std::string_view>> probe_out_;
};

}  // namespace titant::replication

#endif  // TITANT_REPLICATION_FAILOVER_STORE_H_
