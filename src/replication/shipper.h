#ifndef TITANT_REPLICATION_SHIPPER_H_
#define TITANT_REPLICATION_SHIPPER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/statusor.h"
#include "kvstore/store.h"
#include "net/client.h"

namespace titant::replication {

/// WAL-shipping configuration: the standby's KvStoreServer endpoint.
struct ShipperOptions {
  std::string standby_host = "127.0.0.1";
  uint16_t standby_port = 0;
};

struct ShipperStats {
  uint64_t shipped_seq = 0;    // Highest commit seq handed to the shipper.
  uint64_t acked_seq = 0;      // Highest seq the standby acknowledged.
  uint64_t lag = 0;            // shipped - acked: staleness bound in commits.
  uint64_t ship_errors = 0;    // Failed ship rounds (standby down/slow).
  uint64_t overflows = 0;      // Queue overflows that forced catch-up.
  uint64_t catchup_rounds = 0; // Snapshot catch-ups completed.
  uint64_t catchup_cells = 0;  // Cells pushed through catch-up.
  uint64_t catchup_bytes = 0;  // Encoded catch-up payload bytes.
};

/// The primary's half of WAL shipping: taps the store's commit stream via
/// AliHBase::SetCommitSink, encodes each commit into a wire record on the
/// committing thread (append to a pooled buffer — no blocking work under
/// the shard lock), and ships batched kReplAppend frames to the standby
/// from one background thread over its own net::Client.
///
/// Acks carry the standby's watermark; `lag = shipped - acked` is the
/// staleness bound a failover inherits. Three situations demote the
/// stream to snapshot catch-up (AliHBase::CatchupSnapshot chunked through
/// kReplCatchup): the standby reports a sequence gap (FailedPrecondition
/// — it restarted, or joined after commits flowed), the local queue
/// overflows (the standby fell too far behind to replay record by
/// record), and the first attach when commits predate the sink. Catch-up
/// is idempotent, so any failure mid-snapshot just restarts it.
///
/// The shipper is role-agnostic: a restarted old primary rejoins as the
/// standby of the promoted node by running a KvStoreServer while the
/// promoted node's shipper catches it up — failback is "the arrow flips".
class Shipper {
 public:
  /// Queue bound in records. Overflow clears the queue and schedules a
  /// snapshot catch-up — replication falls behind loudly, it never
  /// silently drops a committed write.
  static constexpr std::size_t kQueueMaxRecords = 64 * 1024;

  /// Builds the shipper, attaches the commit sink, starts the ship
  /// thread. If the store already has commits (commit_seq() > 0) the
  /// first act is a snapshot catch-up, so a standby attached late still
  /// converges.
  static std::unique_ptr<Shipper> Attach(kvstore::AliHBase* primary, ShipperOptions options);

  ~Shipper();

  Shipper(const Shipper&) = delete;
  Shipper& operator=(const Shipper&) = delete;

  /// Blocks until the standby has acknowledged every commit enqueued so
  /// far (and no catch-up is pending), or `timeout_ms` elapses. Returns
  /// true when fully drained — primarily for tests and clean handover.
  bool Drain(int timeout_ms);

  /// Detaches the sink and stops the ship thread. Commits made after
  /// Shutdown are not shipped (the standby will gap-detect and catch up
  /// if a shipper is ever re-attached). Idempotent.
  void Shutdown();

  ShipperStats stats() const;

  /// Fills the replication fields of a GatewayStats (the gateway's
  /// MetricsRegistry "replication" provider delegates here).
  void FillStats(net::GatewayStats* stats) const;

 private:
  struct Pending {
    uint64_t seq = 0;
    std::string record;  // EncodeReplRecordTo output.
  };

  Shipper(kvstore::AliHBase* primary, ShipperOptions options);

  /// Commit-sink body: encode + enqueue (runs under the shard lock).
  void Enqueue(uint64_t seq, const kvstore::Cell* const* cells, std::size_t n);
  void Loop();
  /// Ships one batched kReplAppend. Returns false when the round failed
  /// and the loop should pause before retrying.
  bool ShipBatch(net::Client& client);
  /// Pushes a full snapshot through chunked kReplCatchup. Returns false
  /// on failure (pause and retry the whole snapshot).
  bool RunCatchup(net::Client& client);

  kvstore::AliHBase* primary_;
  ShipperOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // Signals the ship thread.
  std::condition_variable drain_cv_;  // Signals Drain waiters.
  std::deque<Pending> queue_;
  bool needs_catchup_ = false;
  bool stop_ = false;
  bool shutdown_ = false;

  std::atomic<uint64_t> shipped_seq_{0};
  std::atomic<uint64_t> acked_seq_{0};
  std::atomic<uint64_t> ship_errors_{0};
  std::atomic<uint64_t> overflows_{0};
  std::atomic<uint64_t> catchup_rounds_{0};
  std::atomic<uint64_t> catchup_cells_{0};
  std::atomic<uint64_t> catchup_bytes_{0};

  std::thread thread_;
};

}  // namespace titant::replication

#endif  // TITANT_REPLICATION_SHIPPER_H_
