#ifndef TITANT_REPLICATION_KV_SERVER_H_
#define TITANT_REPLICATION_KV_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/statusor.h"
#include "kvstore/store.h"
#include "net/server.h"
#include "net/wire.h"

namespace titant::replication {

/// Counters for the node's replication plane (all monotonic since Start).
struct KvServerStats {
  uint64_t puts_applied = 0;          // Cells applied via kPutBatch.
  uint64_t repl_records_applied = 0;  // Commit records applied via kReplAppend.
  uint64_t repl_cells_applied = 0;    // Cells inside those records.
  uint64_t catchup_cells = 0;         // Cells applied via kReplCatchup.
  uint64_t catchup_bytes = 0;         // kReplCatchup payload bytes accepted.
  uint64_t gaps_detected = 0;         // kReplAppend frames refused for a gap.
  uint64_t watermark = 0;             // Highest contiguous replicated seq.
};

/// A kvstore node's network front: a net::Server serving the store-tier
/// subset of the wire protocol against one AliHBase. Runs on both roles —
/// a primary serves client puts (and health/stats probes), a warm standby
/// additionally accepts the replication stream:
///
///   kPutBatch          apply cells (deadline-checked, like the gateway)
///   kReplAppend        apply a contiguous run of primary commit records,
///                      reply with the new watermark
///   kReplCatchup       apply one snapshot chunk; adopt the snapshot's
///                      watermark when the final (done) chunk lands
///   kHealth            liveness + watermark-as-model_version
///   kStats             GatewayStats with the repl_* fields filled
///
/// Watermark protocol: the watermark is the highest commit seq known to be
/// contiguously applied. A kReplAppend whose records all fall at or below
/// it is acknowledged without re-applying (idempotent replay after a
/// shipper retry); one that starts past watermark+1 is refused with
/// FailedPrecondition so the shipper falls back to snapshot catch-up
/// instead of blindly re-sending. Replication applies are serialized by
/// one mutex — the stream is a log, ordering is the point.
///
/// Overload on the replication plane (net::ServerOptions::max_in_flight)
/// sheds with ResourceExhausted — retryable — while a sequence gap
/// answers FailedPrecondition — not retryable — so a shipper can tell
/// "send it again" from "resending won't help, snapshot me instead".
class KvStoreServer {
 public:
  KvStoreServer(kvstore::AliHBase* store, net::ServerOptions options = net::ServerOptions());
  ~KvStoreServer();

  KvStoreServer(const KvStoreServer&) = delete;
  KvStoreServer& operator=(const KvStoreServer&) = delete;

  Status Start();
  Status Shutdown();

  uint16_t port() const;

  /// Highest contiguous replicated commit seq (0 before any kReplAppend /
  /// completed catch-up).
  uint64_t watermark() const { return watermark_.load(std::memory_order_acquire); }

  KvServerStats stats() const;

  /// Fills the replication fields of a GatewayStats (the kStats body and
  /// the MetricsRegistry "replication" provider on a standalone node).
  void FillStats(net::GatewayStats* stats) const;

 private:
  Status Handle(const net::Frame& request, std::string* body);
  Status HandlePut(const net::Frame& request);
  Status HandleReplAppend(const net::Frame& request, std::string* body);
  Status HandleReplCatchup(const net::Frame& request, std::string* body);

  kvstore::AliHBase* store_;
  std::unique_ptr<net::Server> server_;

  /// Serializes replication applies (append and catch-up) so records land
  /// in log order and the watermark check-then-apply is atomic.
  std::mutex apply_mu_;
  std::atomic<uint64_t> watermark_{0};

  std::atomic<uint64_t> puts_applied_{0};
  std::atomic<uint64_t> repl_records_applied_{0};
  std::atomic<uint64_t> repl_cells_applied_{0};
  std::atomic<uint64_t> catchup_cells_{0};
  std::atomic<uint64_t> catchup_bytes_{0};
  std::atomic<uint64_t> gaps_detected_{0};
};

}  // namespace titant::replication

#endif  // TITANT_REPLICATION_KV_SERVER_H_
