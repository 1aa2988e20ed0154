#ifndef TITANT_COMMON_THREAD_POOL_H_
#define TITANT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace titant {

/// Fixed-size worker pool executing posted closures FIFO.
///
/// Used by the offline pipeline's parallel stages (walks, features, the
/// GBDT fit, the daily upload), Hogwild word2vec, and the SQL executor's
/// partitioned scans. The parameter server starts its own threads.
/// Destruction drains the queue (all posted work runs before the pool
/// joins its threads).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (minimum 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution. Must not be called after the
  /// destructor has begun.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished executing.
  void Wait();

  /// Number of worker threads.
  std::size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(i)` for every i in [0, n) in up to num_threads() contiguous
  /// blocks and waits for all of them. The calling thread runs the first
  /// block itself instead of sleeping, so a call wakes one worker fewer
  /// and never runs more than num_threads() blocks at once.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace titant

#endif  // TITANT_COMMON_THREAD_POOL_H_
