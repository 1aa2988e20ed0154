#ifndef TITANT_STREAMING_INGESTOR_H_
#define TITANT_STREAMING_INGESTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/statusor.h"
#include "kvstore/store.h"
#include "serving/request.h"
#include "streaming/aggregator.h"
#include "streaming/event_log.h"

namespace titant::streaming {

struct IngestorOptions {
  /// Scored events buffered between the gateway's Submit and the worker.
  /// On overflow the OLDEST queued event is shed (counted): the freshest
  /// velocity signal wins, and Submit never blocks the scoring path.
  std::size_t queue_capacity = 65536;
  /// Events the worker folds per wakeup before publishing counters.
  std::size_t drain_batch = 256;
  /// Minimum spacing between counter publishes. Touched users accumulate
  /// (deduplicated) across drained batches and flush to the store once
  /// per interval, so a hot user costs one memtable insert per interval
  /// instead of one per event. The aggregator stays authoritative in
  /// between; Drain() and Shutdown() force an immediate flush. 0
  /// publishes after every batch.
  int publish_interval_ms = 25;
  /// Path prefix for the durable event log (segments of
  /// Ingestor::kLogRotateRecords records); empty keeps the aggregator
  /// memory-only (no crash recovery).
  std::string event_log_path;
  /// Recent-txn dedup ring: Submit drops an event whose txn_id matches
  /// one of the last `dedup_capacity` accepted ids, so a replayed wire
  /// retry (the client re-sent a kScore whose ack was lost) folds into
  /// the velocity windows once, not twice. Survives restarts: the event-
  /// log replay at Open reseeds the ring, so a retry that straddles a
  /// crash is still caught. txn_id 0 (unset) is never deduplicated.
  /// 0 disables.
  std::size_t dedup_capacity = 65536;
};

struct IngestorStats {
  uint64_t enqueued = 0;   // Submits accepted into the queue.
  uint64_t shed = 0;       // Oldest-dropped on queue overflow.
  uint64_t applied = 0;    // Folded into at least one window.
  uint64_t dropped = 0;    // Late for every window, log-append failures,
                           // or injected `streaming.ingest` faults.
  uint64_t recovered = 0;  // Replayed from the event log at Open.
  uint64_t deduped = 0;    // Submits dropped by the recent-txn ring.
  uint64_t put_cells = 0;  // Cells written through PutCells (wire puts).
  uint64_t counter_cells_published = 0;
};

/// The streaming ingestion engine: the piece that turns the read-only
/// serving stack into a closed loop. Two inputs converge on the feature
/// store:
///
///  - Submit(): scored transactions hooked off the gateway. They cross a
///    bounded shed-oldest queue to a single worker thread that logs each
///    event (commit point), folds it into the Aggregator's sliding
///    windows, and publishes the touched users' counters back to the
///    store as "rt"/"win" cells — which the Model Server's next fetch
///    picks up. The queue is the backpressure boundary: ingestion can
///    lag or shed, but it can never stall or allocate on the zero-alloc
///    scoring hot path.
///
///  - PutCells(): the synchronous wire write path (kPutBatch),
///    passed straight to the sharded store's PutBatch under the caller's
///    deadline/admission semantics.
///
/// Crash recovery: Open replays the event log into a fresh aggregator
/// before accepting traffic, restoring exactly the windows the crashed
/// process had acknowledged (exactly-once per window; see DESIGN.md §10).
class Ingestor {
 public:
  /// `store` may be null (aggregation only, no publishing/puts) and must
  /// otherwise outlive the ingestor. Any KvTable serves: a plain
  /// AliHBase, or a replication::FailoverStore so counter publishes
  /// re-target the standby when the primary dies. Replays the event log,
  /// republishes recovered counters, then starts the worker.
  static StatusOr<std::unique_ptr<Ingestor>> Open(kvstore::KvTable* store,
                                                  IngestorOptions options);
  ~Ingestor();

  Ingestor(const Ingestor&) = delete;
  Ingestor& operator=(const Ingestor&) = delete;

  /// How long the worker lingers after waking with fewer than
  /// `drain_batch` events queued, accumulating a real batch before it
  /// drains. Without it a closed-loop feed hands the worker one event
  /// per wakeup, so every scored transaction pays a log flush and a
  /// publish bookkeeping pass; the linger amortizes both across the
  /// batch. Drain() and Shutdown() skip the wait, so tests stay fast
  /// and exact.
  static constexpr std::chrono::milliseconds kLinger{5};
  /// Records per event-log segment before rotation (see EventLogOptions).
  static constexpr uint64_t kLogRotateRecords = uint64_t{1} << 20;

  /// Enqueues one scored transaction. Never blocks and never fails:
  /// overflow sheds the oldest queued event instead.
  void Submit(const serving::TransferRequest& event);

  /// Writes feature cells straight to the store (the kPutBatch
  /// handler path). Synchronous: the caller's deadline and the server's
  /// admission control already bound it. Needs no dedup ring: a retried
  /// put re-writes the same (row, family, qualifier, version) cells, and
  /// the store's version order makes that replay idempotent — unlike a
  /// replayed Submit, which would fold the event into the windows twice.
  Status PutCells(const std::vector<kvstore::Cell>& cells);

  /// Blocks until every event submitted so far has been applied and its
  /// counters published (tests and graceful shutdown).
  void Drain();

  /// Drains the queue, stops the worker, closes the log. Idempotent.
  Status Shutdown();

  Aggregator& aggregator() { return aggregator_; }
  IngestorStats stats() const;

 private:
  Ingestor(kvstore::KvTable* store, IngestorOptions options);

  /// True when `txn_id` is in the recent-txn ring; records it otherwise.
  /// Callers hold mu_ (or run before the worker starts).
  bool SeenTxnLocked(txn::TxnId txn_id);

  void WorkerLoop();
  /// Logs and applies a drained batch, accumulating touched users into
  /// the pending-publish set.
  void ApplyBatch(const std::vector<serving::TransferRequest>& batch);
  /// Publishes the pending users' counters if the interval elapsed, the
  /// pending set grew past its cap, or `force` (drain/shutdown).
  void MaybePublish(bool force);
  void PublishCounters(std::vector<txn::UserId>& users, int64_t now_s);

  kvstore::KvTable* store_;
  IngestorOptions options_;
  Aggregator aggregator_;
  std::unique_ptr<EventLog> log_;

  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable drained_cv_;
  std::deque<serving::TransferRequest> queue_;
  bool busy_ = false;
  bool stop_ = false;
  /// Drain() calls waiting for the queue to empty; the worker skips the
  /// linger while any are outstanding.
  int drain_waiters_ = 0;
  /// Recent-txn dedup ring (guarded by mu_): the set answers "seen?",
  /// the ring evicts oldest-first at capacity.
  std::unordered_set<txn::TxnId> dedup_set_;
  std::vector<txn::TxnId> dedup_ring_;
  std::size_t dedup_pos_ = 0;
  /// Mirror of "pending_users_ is non-empty", maintained under mu_ so
  /// Drain() and the worker's wait predicates can read it without
  /// touching the worker-owned scratch.
  bool pending_publish_ = false;
  std::thread worker_;

  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> recovered_{0};
  std::atomic<uint64_t> deduped_{0};
  std::atomic<uint64_t> put_cells_{0};
  std::atomic<uint64_t> counter_cells_published_{0};
  /// Version stamp of published counter cells: a per-ingestor monotonic
  /// sequence seeded from wall-clock microseconds at construction, so
  /// newer publishes always win the store's version order — including
  /// over stale cells a crashed predecessor left in a durable store.
  std::atomic<uint64_t> publish_seq_{0};

  /// Worker-owned scratch (single consumer thread).
  std::vector<serving::TransferRequest> batch_scratch_;
  std::vector<const serving::TransferRequest*> logged_scratch_;
  std::vector<kvstore::Cell> cell_scratch_;
  /// Users touched since the last publish (deduplicated at publish time)
  /// and the latest event timestamp among them.
  std::vector<txn::UserId> pending_users_;
  int64_t pending_latest_s_ = 0;
  std::chrono::steady_clock::time_point last_publish_{};
};

}  // namespace titant::streaming

#endif  // TITANT_STREAMING_INGESTOR_H_
