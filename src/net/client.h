#ifndef TITANT_NET_CLIENT_H_
#define TITANT_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "net/wire.h"

namespace titant::net {

/// Retry schedule for CallRetrying: exponential backoff with
/// deterministic jitter, all attempts sharing one overall deadline
/// budget. Only statuses in the Status::IsRetryable() list are retried,
/// and only for calls the caller knows to be idempotent.
struct RetryPolicy {
  /// Total attempts (1 = no retry).
  int max_attempts = 3;
  /// First backoff pause; doubled per attempt.
  int initial_backoff_ms = 2;
  /// Backoff cap.
  int max_backoff_ms = 64;
};

/// Client configuration.
struct ClientOptions {
  /// Default per-call deadline (override per Call).
  int call_timeout_ms = 2000;
  /// Retry schedule used by CallRetrying (Call stays single-attempt).
  RetryPolicy retry;
};

/// Blocking request/response client for the gateway wire protocol.
///
/// One TCP connection, reused across calls; Call() reconnects lazily after
/// a failure. Deadlines are enforced with poll(2) on both the write and
/// read side; an expired deadline closes the connection (a late reply
/// would desynchronize the stream) and surfaces as Status::Timeout.
/// Transport failures surface as Unavailable (connect/EOF), IOError
/// (syscall), Timeout (deadline), or InvalidArgument (protocol) — no
/// exceptions cross this API.
///
/// Not thread-safe: use one Client per thread (they are cheap).
class Client {
 public:
  Client(std::string host, uint16_t port, ClientOptions options = ClientOptions());
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Establishes the connection eagerly. Idempotent; Call() connects
  /// lazily, so this is only needed to front-load the handshake.
  Status Connect();

  /// Closes the connection (next Call reconnects).
  void Close();

  bool connected() const { return fd_ >= 0; }

  /// Sends one request and blocks for its response frame, returning the
  /// response body after unwrapping the handler's transported Status.
  /// `timeout_ms` <= 0 uses options.call_timeout_ms. The remaining budget
  /// travels in the frame header so the server can refuse expired work.
  StatusOr<std::string> Call(uint16_t method, std::string_view payload, int timeout_ms = 0);

  /// Call with bounded retries under ONE overall deadline budget:
  /// retryable failures (Unavailable/Timeout/ResourceExhausted) are
  /// re-sent after an exponential-backoff pause with deterministic
  /// jitter, reconnecting as needed; everything else returns
  /// immediately. Only use for idempotent methods — a retried Score or
  /// Health re-executes server-side.
  StatusOr<std::string> CallRetrying(uint16_t method, std::string_view payload,
                                     int timeout_ms = 0);

  /// CallRetrying without the copy: the body views the client's reused
  /// response frame and stays valid until the next call on this client.
  /// A warm client allocates nothing per call.
  StatusOr<std::string_view> CallRetryingView(uint16_t method, std::string_view payload,
                                              int timeout_ms = 0);

  /// Re-sent attempts across all CallRetrying calls (first attempts not
  /// counted).
  uint64_t retries() const { return retries_; }

 private:
  /// One attempt; the body views the matching response frame.
  StatusOr<std::string_view> CallView(uint16_t method, std::string_view payload, int timeout_ms);
  Status WriteAll(std::string_view data, int64_t deadline_us);
  /// Reads until the response to `request_id` is decoded and returns its
  /// slot in frames_, valid until the next read.
  StatusOr<const Frame*> ReadResponse(uint64_t request_id, int64_t deadline_us);
  /// Blocks until `events` is ready or the deadline passes.
  Status PollFd(short events, int64_t deadline_us, const char* what);

  std::string host_;
  uint16_t port_;
  ClientOptions options_;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  uint64_t retries_ = 0;
  Rng jitter_rng_;
  FrameDecoder decoder_;
  std::string send_scratch_;  // Reused request-frame encode buffer.
  // Decode slots, reused across reads (each keeps its payload capacity):
  // frames_[next_frame_, decoded_frames_) are decoded but not yet claimed.
  std::vector<Frame> frames_;
  std::size_t decoded_frames_ = 0;
  std::size_t next_frame_ = 0;
};

}  // namespace titant::net

#endif  // TITANT_NET_CLIENT_H_
