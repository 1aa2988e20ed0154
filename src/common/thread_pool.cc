#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace titant {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Static block partitioning; tasks are expected to be similar in cost.
  const std::size_t workers = std::min(n, threads_.size());
  const std::size_t chunk = (n + workers - 1) / workers;
  for (std::size_t w = 1; w < workers; ++w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    Submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }
  for (std::size_t i = 0; i < chunk; ++i) fn(i);
  Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace titant
