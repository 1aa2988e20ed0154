#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/failpoint.h"

namespace titant::net {

namespace {

Status Errno(const std::string& what) {
  // Peer-reset and node-down errnos are transport failures, not local
  // I/O faults: map them to Unavailable so CallRetrying reconnects and
  // retries, and so the breaker/failover tier classifies them as a dead
  // peer rather than a wedged local stack. ETIMEDOUT here is the kernel
  // giving up on retransmits — the node-kill signature — distinct from
  // our own deadline expiring, which surfaces as kTimeout from PollFd.
  if (errno == ECONNRESET || errno == EPIPE || errno == ECONNABORTED ||
      errno == ENETRESET || errno == ETIMEDOUT || errno == EHOSTUNREACH ||
      errno == ENETUNREACH || errno == ENETDOWN || errno == ECONNREFUSED) {
    return Status::Unavailable(what + ": " + std::strerror(errno));
  }
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Connection-establishment deadline.
constexpr int kConnectTimeoutMs = 2000;
/// Seed of the retry jitter (deterministic, like every RNG here).
constexpr uint64_t kJitterSeed = 0x6a17'7e85'eed0'0001ULL;

int64_t DeadlineFrom(int timeout_ms) {
  return MonotonicMicros() + static_cast<int64_t>(timeout_ms) * 1000;
}

/// Remaining whole milliseconds until `deadline_us` (>= 0), or -1 when the
/// deadline already passed.
int RemainingMs(int64_t deadline_us) {
  const int64_t left_us = deadline_us - MonotonicMicros();
  if (left_us <= 0) return -1;
  return static_cast<int>((left_us + 999) / 1000);
}

}  // namespace

Client::Client(std::string host, uint16_t port, ClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      jitter_rng_(kJitterSeed) {}

Client::~Client() { Close(); }

Status Client::Connect() {
  if (fd_ >= 0) return Status::OK();
  TITANT_FAILPOINT("net.client.connect");
  decoder_.Reset();
  decoded_frames_ = next_frame_ = 0;

  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address '" + host_ + "'");
  }
  const std::string endpoint = host_ + ":" + std::to_string(port_);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      const Status status =
          Status::Unavailable("connect " + endpoint + ": " + std::strerror(errno));
      Close();
      return status;
    }
    const Status ready =
        PollFd(POLLOUT, DeadlineFrom(kConnectTimeoutMs), "connect");
    if (!ready.ok()) {
      Close();
      return ready.code() == StatusCode::kTimeout
                 ? Status::Timeout("connect " + endpoint + " timed out")
                 : ready;
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 || soerr != 0) {
      Close();
      return Status::Unavailable("connect " + endpoint + ": " +
                                 std::strerror(soerr != 0 ? soerr : errno));
    }
  }
  const int enable = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_.Reset();
  decoded_frames_ = next_frame_ = 0;
}

StatusOr<std::string> Client::Call(uint16_t method, std::string_view payload, int timeout_ms) {
  TITANT_ASSIGN_OR_RETURN(std::string_view body, CallView(method, payload, timeout_ms));
  return std::string(body);
}

StatusOr<std::string> Client::CallRetrying(uint16_t method, std::string_view payload,
                                           int timeout_ms) {
  TITANT_ASSIGN_OR_RETURN(std::string_view body, CallRetryingView(method, payload, timeout_ms));
  return std::string(body);
}

StatusOr<std::string_view> Client::CallRetryingView(uint16_t method, std::string_view payload,
                                                    int timeout_ms) {
  const RetryPolicy& policy = options_.retry;
  const int budget_ms = timeout_ms > 0 ? timeout_ms : options_.call_timeout_ms;
  const int64_t deadline_us = DeadlineFrom(budget_ms);
  int backoff_ms = std::max(1, policy.initial_backoff_ms);
  StatusOr<std::string_view> result = std::string_view();  // Set by the first attempt.
  for (int attempt = 0; attempt < std::max(1, policy.max_attempts); ++attempt) {
    const int remaining_ms = RemainingMs(deadline_us);
    if (remaining_ms < 0) {
      if (attempt == 0) return Status::Timeout("retry budget exhausted before first attempt");
      break;  // Budget gone: surface the last failure.
    }
    if (attempt > 0) ++retries_;
    result = CallView(method, payload, std::max(1, remaining_ms));
    if (result.ok() || !result.status().IsRetryable()) return result;
    // Backoff with jitter in [backoff/2, backoff], clamped to the budget.
    const int pause_ms = std::min(
        backoff_ms / 2 + static_cast<int>(jitter_rng_.Uniform(
                             static_cast<uint64_t>(backoff_ms / 2 + 1))),
        RemainingMs(deadline_us));
    if (pause_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
    backoff_ms = std::min(backoff_ms * 2, std::max(1, policy.max_backoff_ms));
  }
  return result;
}

StatusOr<std::string_view> Client::CallView(uint16_t method, std::string_view payload,
                                            int timeout_ms) {
  TITANT_RETURN_IF_ERROR(Connect());
  const int budget_ms = timeout_ms > 0 ? timeout_ms : options_.call_timeout_ms;
  const int64_t deadline_us = DeadlineFrom(budget_ms);
  const uint64_t request_id = next_request_id_++;
  // The remaining budget rides in the header so the server can refuse
  // work whose caller will have given up by the time it would run. The
  // frame is encoded into a member buffer reused across calls.
  send_scratch_.clear();
  EncodeRequestFrameTo(&send_scratch_, method, request_id, payload,
                       budget_ms > 0 ? static_cast<uint32_t>(budget_ms) : 0);

  Status written = WriteAll(send_scratch_, deadline_us);
  if (!written.ok()) {
    Close();
    return written;
  }
  StatusOr<const Frame*> response = ReadResponse(request_id, deadline_us);
  if (!response.ok()) {
    Close();  // Stream state is unknown; start fresh.
    return response.status();
  }
  std::string_view body;
  TITANT_RETURN_IF_ERROR(DecodeResponsePayload(**response, &body));
  return body;
}

Status Client::WriteAll(std::string_view data, int64_t deadline_us) {
  // Chaos hook: a torn outbound link. CallView closes the connection on
  // the injected failure, exactly as it would on a real EPIPE.
  TITANT_FAILPOINT("net.client.write");
  std::size_t offset = 0;
  while (offset < data.size()) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE.
    const ssize_t n = ::send(fd_, data.data() + offset, data.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return Status::Unavailable("connection closed by server");
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return Errno("write");
    TITANT_RETURN_IF_ERROR(PollFd(POLLOUT, deadline_us, "write"));
  }
  return Status::OK();
}

StatusOr<const Frame*> Client::ReadResponse(uint64_t request_id, int64_t deadline_us) {
  // Chaos hook: the reply never arrives / the link drops mid-read.
  TITANT_FAILPOINT("net.client.read");
  char buffer[64 * 1024];
  while (true) {
    // A matching frame may already be decoded from a previous read.
    while (next_frame_ < decoded_frames_) {
      const Frame& frame = frames_[next_frame_++];
      if (frame.type == FrameType::kResponse && frame.request_id == request_id) {
        return &frame;
      }
      // Stale reply (e.g. server answered after we abandoned the id): skip.
    }
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n > 0) {
      next_frame_ = 0;
      TITANT_RETURN_IF_ERROR(decoder_.FeedInto(buffer, static_cast<std::size_t>(n),
                                               MonotonicMicros(), &frames_, &decoded_frames_));
      continue;
    }
    if (n == 0) return Status::Unavailable("connection closed by server");
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return Errno("read");
    TITANT_RETURN_IF_ERROR(PollFd(POLLIN, deadline_us, "read"));
  }
}

Status Client::PollFd(short events, int64_t deadline_us, const char* what) {
  while (true) {
    const int remaining_ms = RemainingMs(deadline_us);
    if (remaining_ms < 0) {
      return Status::Timeout(std::string(what) + " deadline exceeded");
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = events;
    const int n = ::poll(&pfd, 1, remaining_ms);
    if (n > 0) {
      if (pfd.revents & (POLLERR | POLLNVAL)) {
        return Status::Unavailable(std::string(what) + ": socket error");
      }
      return Status::OK();  // Ready (POLLHUP still lets read() observe EOF).
    }
    if (n == 0) return Status::Timeout(std::string(what) + " deadline exceeded");
    if (errno != EINTR) return Errno("poll");
  }
}

}  // namespace titant::net
