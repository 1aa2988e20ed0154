#ifndef TITANT_SERVING_COALESCER_H_
#define TITANT_SERVING_COALESCER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "serving/router.h"

namespace titant::serving {

/// Group-commit micro-batcher in front of ModelServerRouter::ScoreBatch —
/// the WAL group-commit idea applied to scoring. Concurrent single scores
/// coalesce into one batched dispatch (one MultiGetView round trip, one
/// vectorized model invocation) without any timer:
///
///   - A thread that arrives while a leader slot is free becomes a
///     leader. It drains whatever is queued (up to `max_batch` rows) into
///     one ScoreBatch call, and keeps draining batches until its own
///     request has been answered or the queue is empty.
///   - Threads that arrive while every leader slot is busy queue up; an
///     in-flight leader picks them up on its next drain, or one of them
///     claims a slot (or inherits a retiring leader's) and dispatches.
///
/// Up to `max_concurrent` leaders dispatch at once, each on the calling
/// worker's own thread with its own thread-local drain scratch — with a
/// sharded store underneath, independent batches really do score in
/// parallel instead of serializing behind one leader. `max_concurrent`
/// of 1 reproduces the original single-leader group commit exactly.
///
/// Because there is no wait-for-more-work timer, an idle coalescer scores
/// a lone request immediately as a batch of 1 — coalescing never adds
/// idle latency, so the single-request p99 is unchanged. Batch size adapts
/// to load by construction: the deeper the arrival queue grows during one
/// dispatch, the larger the next batch.
///
/// Thread-safe; Score is designed to be called from many threads at once
/// (that is the whole point).
class ScoreCoalescer {
 public:
  /// `router` must outlive the coalescer. `max_batch` bounds the rows in
  /// one drained dispatch; values < 1 are clamped to 1 (every request
  /// scores alone, i.e. coalescing is disabled). `max_concurrent` caps
  /// how many coalesced dispatches may be in flight at once; values < 1
  /// are clamped to 1 (the original single-leader behavior).
  ScoreCoalescer(ModelServerRouter* router, int max_batch, int max_concurrent = 1);

  ScoreCoalescer(const ScoreCoalescer&) = delete;
  ScoreCoalescer& operator=(const ScoreCoalescer&) = delete;

  /// Scores one request, possibly sharing a dispatch with concurrent
  /// callers; blocks until this request's verdict (or error) is ready.
  /// A coalesced batch travels under the earliest positive deadline of
  /// its members: a tight budget next to a loose one tightens the loose
  /// one, which errs toward degrading early rather than blowing the
  /// tight caller's budget.
  StatusOr<Verdict> Score(const TransferRequest& request, int64_t deadline_us = 0);

  /// Dispatches issued and rows carried by them; rows()/batches() is the
  /// achieved coalescing factor (1.0 = no coalescing happening).
  uint64_t batches() const { return batches_.load(); }
  uint64_t rows() const { return rows_.load(); }

 private:
  /// One caller parked in the queue. Lives on the caller's stack; the
  /// caller does not return until `done`, so queued pointers stay valid.
  struct Pending {
    Pending(const TransferRequest& r, int64_t d)
        : request(&r), deadline_us(d), result(Status::Internal("unscored")) {}
    const TransferRequest* request;
    int64_t deadline_us;
    StatusOr<Verdict> result;
    bool done = false;
  };

  /// Pops up to max_batch_ queued callers, scores them in one ScoreBatch
  /// (with mu_ released around the dispatch; drain state lives in a
  /// thread-local scratch so concurrent leaders never share buffers),
  /// publishes per-caller results, and wakes everyone. Requires a
  /// non-empty queue.
  void DrainBatchLocked(std::unique_lock<std::mutex>& lock);

  ModelServerRouter* router_;
  int max_batch_;
  int max_concurrent_;
  std::mutex mu_;
  std::condition_variable cv_;
  int active_leaders_ = 0;
  std::deque<Pending*> queue_;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> rows_{0};
};

}  // namespace titant::serving

#endif  // TITANT_SERVING_COALESCER_H_
