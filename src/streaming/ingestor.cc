#include "streaming/ingestor.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"
#include "serving/feature_cells.h"

namespace titant::streaming {

Ingestor::Ingestor(kvstore::KvTable* store, IngestorOptions options)
    : store_(store), options_(std::move(options)) {
  // Seed the publish version from the wall clock: a sequence restarting
  // at 0 would stamp post-crash publishes with lower versions than the
  // stale pre-crash cells in a durable store, and the read path (newest
  // version wins) would keep scoring against the stale counters until
  // the sequence caught up. Epoch microseconds outrun any plausible
  // in-process publish rate, so post-restart publishes always win.
  publish_seq_ = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                           std::chrono::system_clock::now().time_since_epoch())
                                           .count());
}

StatusOr<std::unique_ptr<Ingestor>> Ingestor::Open(kvstore::KvTable* store,
                                                   IngestorOptions options) {
  std::unique_ptr<Ingestor> ingestor(new Ingestor(store, std::move(options)));
  if (!ingestor->options_.event_log_path.empty()) {
    EventLogOptions log_options;
    log_options.path_prefix = ingestor->options_.event_log_path;
    log_options.rotate_records = kLogRotateRecords;
    TITANT_ASSIGN_OR_RETURN(ingestor->log_, EventLog::Open(std::move(log_options)));
    // Recovery: replay acknowledged events into the fresh aggregator.
    // Events older than every window fall out as late drops, so replay
    // converges to exactly the windows the crashed process had — each
    // logged event applied once, none twice, none lost.
    std::vector<txn::UserId> users;
    int64_t latest = 0;
    TITANT_RETURN_IF_ERROR(
        ingestor->log_->Replay([&](const serving::TransferRequest& event) {
          ingestor->recovered_.fetch_add(1, std::memory_order_relaxed);
          // Reseed the dedup ring: a wire retry of a pre-crash txn must
          // still be recognized after the restart (single-threaded here,
          // the worker is not running yet).
          if (ingestor->options_.dedup_capacity > 0 && event.txn_id != 0) {
            (void)ingestor->SeenTxnLocked(event.txn_id);
          }
          if (ingestor->aggregator_.Apply(event)) {
            users.push_back(event.from_user);
            latest = std::max(latest, EventSeconds(event));
          }
        }));
    // Republish the recovered counters so the store agrees with the
    // aggregator even when the crash ate an in-flight publish.
    ingestor->PublishCounters(users, latest);
  }
  ingestor->worker_ = std::thread([raw = ingestor.get()] { raw->WorkerLoop(); });
  return ingestor;
}

Ingestor::~Ingestor() {
  const Status status = Shutdown();
  (void)status;
}

bool Ingestor::SeenTxnLocked(txn::TxnId txn_id) {
  if (!dedup_set_.insert(txn_id).second) return true;
  if (dedup_ring_.size() < options_.dedup_capacity) {
    dedup_ring_.push_back(txn_id);
  } else {
    // At capacity: the slot's previous occupant is the oldest id.
    dedup_set_.erase(dedup_ring_[dedup_pos_]);
    dedup_ring_[dedup_pos_] = txn_id;
    dedup_pos_ = (dedup_pos_ + 1) % dedup_ring_.size();
  }
  return false;
}

void Ingestor::Submit(const serving::TransferRequest& event) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    if (options_.dedup_capacity > 0 && event.txn_id != 0 && SeenTxnLocked(event.txn_id)) {
      // A replayed wire retry: the event already folded into the windows
      // (or sits in the queue); folding it again would double-count.
      deduped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (queue_.size() >= options_.queue_capacity) {
      // Shed-oldest: under sustained overload the freshest events carry
      // the velocity signal worth keeping, and Submit must never block
      // the scoring path behind a slow store.
      queue_.pop_front();
      shed_.fetch_add(1, std::memory_order_relaxed);
    }
    queue_.push_back(event);
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    // Wake the worker only at the edges: the empty→non-empty transition
    // (it may be in an untimed wait) and a full batch (cut the linger
    // short). Every other submit rides the linger timer — a futex wake
    // per event would context-switch scoring threads off the core.
    wake = queue_.size() == 1 || queue_.size() == options_.drain_batch;
  }
  if (wake) wake_cv_.notify_one();
}

Status Ingestor::PutCells(const std::vector<kvstore::Cell>& cells) {
  // Chaos hook: the wire write path's store outage.
  TITANT_FAILPOINT("streaming.put");
  if (store_ == nullptr) {
    return Status::FailedPrecondition("ingestor has no store for puts");
  }
  TITANT_RETURN_IF_ERROR(store_->PutBatch(cells));
  put_cells_.fetch_add(cells.size(), std::memory_order_relaxed);
  return Status::OK();
}

void Ingestor::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  ++drain_waiters_;  // Tells a lingering worker to drain and publish now.
  wake_cv_.notify_all();
  drained_cv_.wait(lock, [&] { return queue_.empty() && !busy_ && !pending_publish_; });
  --drain_waiters_;
}

Status Ingestor::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  log_.reset();
  return Status::OK();
}

void Ingestor::WorkerLoop() {
  for (;;) {
    bool force_publish = false;
    batch_scratch_.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait(lock, [&] {
        return stop_ || !queue_.empty() || (pending_publish_ && drain_waiters_ > 0);
      });
      // Linger briefly when the batch is still thin: a feed the worker
      // keeps up with would otherwise deliver one event per wakeup, and
      // each drained "batch" of one pays a log flush and a publish
      // bookkeeping pass. Drain()/Shutdown() bypass the wait.
      if (!stop_ && drain_waiters_ == 0 && queue_.size() < options_.drain_batch) {
        wake_cv_.wait_for(lock, kLinger, [&] {
          return stop_ || drain_waiters_ > 0 || queue_.size() >= options_.drain_batch;
        });
      }
      force_publish = stop_ || drain_waiters_ > 0;
      if (queue_.empty()) {
        // Stop only once the backlog is drained and pending publishes
        // flushed; a publish-only cycle serves a Drain() or Shutdown()
        // that arrived between batches.
        if (!(pending_publish_ && force_publish)) {
          if (stop_) return;
          continue;
        }
      } else {
        const std::size_t n = std::min(options_.drain_batch, queue_.size());
        batch_scratch_.assign(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));
        queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));
      }
      busy_ = true;
    }
    if (!batch_scratch_.empty()) ApplyBatch(batch_scratch_);
    MaybePublish(force_publish);
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
      pending_publish_ = !pending_users_.empty();
      if (queue_.empty() && !pending_publish_) drained_cv_.notify_all();
    }
  }
}

void Ingestor::ApplyBatch(const std::vector<serving::TransferRequest>& batch) {
  logged_scratch_.clear();
  // Commit point: an event is folded into the windows only after its log
  // bytes reached the OS, so crash replay reproduces exactly the applied
  // set. Appends buffer; one flush commits the whole batch — if it
  // fails, nothing buffered is durable, so nothing may be applied.
  if (log_ != nullptr) {
    for (const serving::TransferRequest& event : batch) {
      if (log_->Append(event).ok()) {
        logged_scratch_.push_back(&event);
      } else {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!log_->Flush().ok()) {
      dropped_.fetch_add(logged_scratch_.size(), std::memory_order_relaxed);
      return;
    }
  } else {
    for (const serving::TransferRequest& event : batch) logged_scratch_.push_back(&event);
  }
  for (const serving::TransferRequest* event : logged_scratch_) {
    // Chaos hook: the aggregation path itself faults (counted, shed —
    // ingestion degrades, scoring never notices).
    if (failpoint_internal::AnyArmed() && !Failpoints::Eval("streaming.ingest").ok()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (aggregator_.Apply(*event)) {
      applied_.fetch_add(1, std::memory_order_relaxed);
      pending_users_.push_back(event->from_user);
      pending_latest_s_ = std::max(pending_latest_s_, EventSeconds(*event));
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Ingestor::MaybePublish(bool force) {
  if (pending_users_.empty()) return;
  // The interval decouples publish cadence from event rate: a hot user
  // costs one store write per interval, not one per event, and the
  // aggregator answers for the gap in between.
  constexpr std::size_t kPendingCap = 4096;
  const auto now = std::chrono::steady_clock::now();
  if (!force && pending_users_.size() < kPendingCap &&
      now - last_publish_ < std::chrono::milliseconds(options_.publish_interval_ms)) {
    return;
  }
  PublishCounters(pending_users_, pending_latest_s_);
  pending_users_.clear();
  last_publish_ = now;
}

void Ingestor::PublishCounters(std::vector<txn::UserId>& users, int64_t now_s) {
  if (store_ == nullptr || users.empty()) return;
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  // Cells are rewritten in place, so a slot reused from an earlier
  // publish keeps its strings' capacity.
  std::size_t count = 0;
  char row[serving::kUserRowKeyLen];
  for (const txn::UserId user : users) {
    LiveCounters counters;
    if (!aggregator_.Query(user, now_s, &counters)) continue;
    float encoded[kCounterFloats];
    Aggregator::EncodeCounters(counters, encoded);
    if (count == cell_scratch_.size()) cell_scratch_.emplace_back();
    kvstore::Cell& cell = cell_scratch_[count++];
    cell.key.row.assign(serving::UserRowKeyTo(row, user));
    cell.key.family = kFamilyRealtime;
    cell.key.qualifier = kQualWindow;
    cell.key.version = publish_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    serving::EncodeFloatsTo(&cell.value, encoded, kCounterFloats);
    cell.tombstone = false;
  }
  cell_scratch_.resize(count);
  if (cell_scratch_.empty()) return;
  // A failed publish is not a lost event: the windows stay authoritative
  // in the aggregator and the users' next event republishes them.
  if (store_->PutBatch(cell_scratch_).ok()) {
    counter_cells_published_.fetch_add(cell_scratch_.size(), std::memory_order_relaxed);
  }
}

IngestorStats Ingestor::stats() const {
  IngestorStats stats;
  stats.enqueued = enqueued_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.applied = applied_.load(std::memory_order_relaxed);
  stats.dropped = dropped_.load(std::memory_order_relaxed);
  stats.recovered = recovered_.load(std::memory_order_relaxed);
  stats.deduped = deduped_.load(std::memory_order_relaxed);
  stats.put_cells = put_cells_.load(std::memory_order_relaxed);
  stats.counter_cells_published = counter_cells_published_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace titant::streaming
