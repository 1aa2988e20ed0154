#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace titant::net {

namespace {
Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}
}  // namespace

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Status EventLoop::Init() {
  if (epoll_fd_ >= 0) return Status::FailedPrecondition("event loop already initialized");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Errno("eventfd");
  }
  // Posted tasks run when the eventfd fires, so an iteration that only
  // carries socket events never touches the pending queue's mutex.
  return Add(wake_fd_, EPOLLIN, [this](uint32_t) {
    uint64_t drained = 0;
    while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
    }
    RunPending();
  });
}

Status EventLoop::Add(int fd, uint32_t events, FdCallback callback) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return Errno("epoll_ctl(ADD)");
  callbacks_[fd] = std::make_unique<FdCallback>(std::move(callback));
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) return Errno("epoll_ctl(MOD)");
  return Status::OK();
}

Status EventLoop::Remove(int fd) {
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) return Errno("epoll_ctl(DEL)");
  auto it = callbacks_.find(fd);
  if (it != callbacks_.end()) {
    retired_.push_back(std::move(it->second));  // It may be the one running.
    callbacks_.erase(it);
  }
  return Status::OK();
}

void EventLoop::Run() {
  running_.store(true);
  epoll_event events[64];
  while (running_.load()) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, /*timeout=*/-1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // Unrecoverable epoll failure; Run exits rather than spinning.
    }
    for (int i = 0; i < n; ++i) {
      // Look up per event: an earlier callback may have removed this fd.
      auto it = callbacks_.find(events[i].data.fd);
      if (it == callbacks_.end()) continue;
      (*it->second)(events[i].events);
    }
    retired_.clear();
  }
  RunPending();  // Final drain so no posted task is lost.
  running_.store(false);
}

void EventLoop::Stop() {
  running_.store(false);
  Wake();
}

void EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.push_back(std::move(task));
  }
  Wake();
}

void EventLoop::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t written = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::RunPending() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    tasks.swap(pending_);
  }
  for (auto& task : tasks) task();
}

}  // namespace titant::net
