#ifndef TITANT_NET_EVENT_LOOP_H_
#define TITANT_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace titant::net {

/// Single-threaded epoll readiness loop: one per server reactor, plus the
/// listener's.
///
/// One thread calls Run(); it dispatches fd readiness to registered
/// callbacks and executes closures posted from other threads (Post wakes
/// the loop through an eventfd). Add/Modify/Remove must be called from the
/// loop thread once Run() has started — cross-thread mutation goes through
/// Post. Callbacks may remove their own fd or another one: a removed
/// callback is retired, not destroyed, until the current batch of events
/// has been dispatched, and later events for a removed fd are skipped.
class EventLoop {
 public:
  using FdCallback = std::function<void(uint32_t epoll_events)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll and wakeup fds. Must be called (once) before Run.
  Status Init();

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...); `callback` runs on
  /// the loop thread with the ready event mask.
  Status Add(int fd, uint32_t events, FdCallback callback);

  /// Changes the interest mask of a registered fd.
  Status Modify(int fd, uint32_t events);

  /// Deregisters `fd` (the caller still owns and closes it).
  Status Remove(int fd);

  /// Runs until Stop(). Blocks the calling thread, which becomes the loop
  /// thread.
  void Run();

  /// Asks Run() to return after the current iteration. Thread-safe.
  void Stop();

  /// Queues `task` for execution on the loop thread. Thread-safe; may be
  /// called before Run. Tasks posted after Run() has returned never
  /// execute (Run drains the queue once on its way out). Meant for
  /// control traffic (handing over a connection, shutdown), not for
  /// per-request work: each call allocates and writes the eventfd.
  void Post(std::function<void()> task);

  bool running() const { return running_.load(); }

 private:
  void Wake();
  void RunPending();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> running_{false};
  // Loop thread only. Callbacks live behind a pointer so a running one
  // stays put while Remove retires it.
  std::unordered_map<int, std::unique_ptr<FdCallback>> callbacks_;
  std::vector<std::unique_ptr<FdCallback>> retired_;
  std::mutex pending_mu_;
  std::vector<std::function<void()>> pending_;
};

}  // namespace titant::net

#endif  // TITANT_NET_EVENT_LOOP_H_
