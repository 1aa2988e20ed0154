#include "replication/shipper.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "net/wire.h"

namespace titant::replication {

namespace {

/// Commit records coalesced into one kReplAppend frame.
constexpr std::size_t kBatchMaxRecords = 256;
/// Per-call budget for ship and catch-up RPCs.
constexpr int kCallTimeoutMs = 2000;
/// Pause between rounds while the standby is unreachable.
constexpr int kRetryPauseMs = 20;

}  // namespace

Shipper::Shipper(kvstore::AliHBase* primary, ShipperOptions options)
    : primary_(primary), options_(std::move(options)) {}

std::unique_ptr<Shipper> Shipper::Attach(kvstore::AliHBase* primary, ShipperOptions options) {
  std::unique_ptr<Shipper> shipper(new Shipper(primary, std::move(options)));
  // Commits made before the sink existed will never flow through it: seed
  // a snapshot catch-up so a standby attached late still converges, and
  // count those commits as shipped-but-unacked lag until it completes.
  const uint64_t preexisting = primary->commit_seq();
  if (preexisting > 0) {
    shipper->needs_catchup_ = true;
    shipper->shipped_seq_.store(preexisting, std::memory_order_relaxed);
  }
  Shipper* raw = shipper.get();
  primary->SetCommitSink(
      [raw](uint64_t seq, const kvstore::Cell* const* cells, std::size_t n) {
        raw->Enqueue(seq, cells, n);
      });
  shipper->thread_ = std::thread([raw] { raw->Loop(); });
  return shipper;
}

Shipper::~Shipper() { Shutdown(); }

void Shipper::Enqueue(uint64_t seq, const kvstore::Cell* const* cells, std::size_t n) {
  // Runs under the committing shard's lock: encode and enqueue, nothing
  // else. Sink calls are serialized and seq-ordered by the store.
  Pending pending;
  pending.seq = seq;
  net::EncodeReplRecordTo(&pending.record, cells, n);
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return;
  shipped_seq_.store(seq, std::memory_order_relaxed);
  if (queue_.size() >= kQueueMaxRecords) {
    // The standby fell further behind than the queue bound. Replaying
    // record by record is hopeless; drop the backlog LOUDLY and schedule
    // a snapshot instead — committed writes are never silently unshipped.
    queue_.clear();
    needs_catchup_ = true;
    overflows_.fetch_add(1, std::memory_order_relaxed);
  }
  queue_.push_back(std::move(pending));
  work_cv_.notify_one();
}

void Shipper::Loop() {
  net::Client client(options_.standby_host, options_.standby_port);
  while (true) {
    bool do_catchup = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || needs_catchup_ || !queue_.empty(); });
      if (stop_) break;
      do_catchup = needs_catchup_;
    }
    const bool round_ok = do_catchup ? RunCatchup(client) : ShipBatch(client);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty() && !needs_catchup_ &&
          acked_seq_.load(std::memory_order_relaxed) >=
              shipped_seq_.load(std::memory_order_relaxed)) {
        drain_cv_.notify_all();
      }
      if (!round_ok) {
        ship_errors_.fetch_add(1, std::memory_order_relaxed);
        // Standby down or slow: pause (interruptibly) before retrying so
        // a dead peer costs a bounded reconnect rate, not a spin.
        work_cv_.wait_for(lock, std::chrono::milliseconds(kRetryPauseMs),
                          [this] { return stop_; });
      }
    }
  }
}

bool Shipper::ShipBatch(net::Client& client) {
  uint64_t first_seq = 0;
  uint32_t count = 0;
  std::string records_blob;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Records at or below the ack watermark are already on the standby
    // (a completed catch-up may have overtaken the queue).
    const uint64_t acked = acked_seq_.load(std::memory_order_relaxed);
    while (!queue_.empty() && queue_.front().seq <= acked) queue_.pop_front();
    if (queue_.empty() || needs_catchup_) return true;
    first_seq = queue_.front().seq;
    for (const Pending& pending : queue_) {
      if (count >= kBatchMaxRecords || count >= net::kMaxBatchItems) break;
      records_blob.append(pending.record);
      ++count;
    }
  }
  std::string payload;
  net::EncodeReplAppendTo(&payload, first_seq, count, records_blob);
  // Safe to retry: the standby skips records at or below its watermark,
  // so a re-send after a lost ack is absorbed, not double-applied.
  StatusOr<std::string> result =
      client.CallRetrying(net::kReplAppend, payload, kCallTimeoutMs);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kFailedPrecondition) {
      // Sequence gap: the standby restarted (or joined) and is missing
      // commits we no longer queue. Resending is futile by design —
      // demote to snapshot catch-up.
      std::lock_guard<std::mutex> lock(mu_);
      needs_catchup_ = true;
      return true;
    }
    return false;
  }
  uint64_t watermark = 0;
  if (!net::DecodeReplAck(*result, &watermark).ok()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  while (!queue_.empty() && queue_.front().seq <= watermark) queue_.pop_front();
  if (watermark > acked_seq_.load(std::memory_order_relaxed)) {
    acked_seq_.store(watermark, std::memory_order_relaxed);
  }
  return true;
}

bool Shipper::RunCatchup(net::Client& client) {
  std::vector<kvstore::Cell> cells;
  StatusOr<uint64_t> snapshot = primary_->CatchupSnapshot(&cells);
  if (!snapshot.ok()) return false;
  const uint64_t watermark = *snapshot;

  std::string payload;
  std::size_t offset = 0;
  bool done = false;
  do {
    const std::size_t n = std::min<std::size_t>(net::kMaxBatchItems, cells.size() - offset);
    done = offset + n >= cells.size();
    payload.clear();
    net::EncodeReplCatchupTo(&payload, watermark, done, cells.data() + offset, n);
    StatusOr<std::string> result =
        client.CallRetrying(net::kReplCatchup, payload, kCallTimeoutMs);
    // Any failure restarts the whole snapshot next round: the standby
    // adopts the watermark only on the final chunk, and cell applies are
    // idempotent, so a half-delivered catch-up costs retries, not
    // correctness.
    if (!result.ok()) return false;
    catchup_cells_.fetch_add(n, std::memory_order_relaxed);
    catchup_bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
    offset += n;
  } while (!done);
  catchup_rounds_.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mu_);
  needs_catchup_ = false;
  // The snapshot covers every commit up to its watermark; queued records
  // at or below it are redundant now.
  while (!queue_.empty() && queue_.front().seq <= watermark) queue_.pop_front();
  if (watermark > acked_seq_.load(std::memory_order_relaxed)) {
    acked_seq_.store(watermark, std::memory_order_relaxed);
  }
  if (watermark > shipped_seq_.load(std::memory_order_relaxed)) {
    shipped_seq_.store(watermark, std::memory_order_relaxed);
  }
  return true;
}

bool Shipper::Drain(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return drain_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [this] {
    return queue_.empty() && !needs_catchup_ &&
           acked_seq_.load(std::memory_order_relaxed) >=
               shipped_seq_.load(std::memory_order_relaxed);
  });
}

void Shipper::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  // Detach before stopping the thread so no commit enqueues after the
  // queue stops draining. Unshipped commits are not lost: the standby
  // gap-detects and snapshots when a shipper is re-attached. Call Drain
  // first for a clean handover.
  primary_->SetCommitSink(nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    work_cv_.notify_all();
    drain_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

ShipperStats Shipper::stats() const {
  ShipperStats stats;
  stats.shipped_seq = shipped_seq_.load(std::memory_order_relaxed);
  stats.acked_seq = acked_seq_.load(std::memory_order_relaxed);
  stats.lag = stats.shipped_seq > stats.acked_seq ? stats.shipped_seq - stats.acked_seq : 0;
  stats.ship_errors = ship_errors_.load(std::memory_order_relaxed);
  stats.overflows = overflows_.load(std::memory_order_relaxed);
  stats.catchup_rounds = catchup_rounds_.load(std::memory_order_relaxed);
  stats.catchup_cells = catchup_cells_.load(std::memory_order_relaxed);
  stats.catchup_bytes = catchup_bytes_.load(std::memory_order_relaxed);
  return stats;
}

void Shipper::FillStats(net::GatewayStats* stats) const {
  const ShipperStats s = this->stats();
  stats->repl_shipped_seq = s.shipped_seq;
  stats->repl_acked_seq = s.acked_seq;
  stats->repl_lag = s.lag;
  stats->repl_catchup_cells = s.catchup_cells;
  stats->repl_catchup_bytes = s.catchup_bytes;
}

}  // namespace titant::replication
