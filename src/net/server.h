#ifndef TITANT_NET_SERVER_H_
#define TITANT_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/statusor.h"
#include "net/event_loop.h"
#include "net/wire.h"

namespace titant::net {

/// Default reactor count: one per hardware thread, never zero
/// (hardware_concurrency() may return 0 on exotic platforms).
inline std::size_t DefaultWorkerThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// TCP server configuration.
struct ServerOptions {
  /// Interface to bind (dotted quad; "0.0.0.0" for all).
  std::string host = "127.0.0.1";
  /// Port to bind; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Reactors: event loops, each on its own thread, that own the
  /// connections handed to them round-robin at accept and run every
  /// request of those connections to completion. 0 counts as 1.
  std::size_t worker_threads = DefaultWorkerThreads();
  /// Admission control: request frames admitted and not yet answered,
  /// counted across every reactor. A reactor admits or sheds each frame
  /// of a read burst before any of them runs; a frame beyond this many,
  /// and the rest of its burst, is refused at once with ResourceExhausted
  /// instead of waiting its turn. 0 disables.
  std::size_t max_in_flight = 0;
};

/// Epoll reactors, each running the requests of its own connections to
/// completion (§4.4: the MS must absorb heavy concurrent traffic). A
/// listener thread accepts and hands each connection to the next reactor;
/// from then on the connection's reads, handler calls and writes all
/// happen on that reactor's thread, so no request changes thread and no
/// connection state is shared.
///
/// A reactor reads what the socket holds, decodes the frames, admits or
/// sheds each (max_in_flight), runs the handler inline for every admitted
/// frame whose deadline has not passed, encodes each reply straight into
/// the connection's outbox, and sends the burst's replies with one send.
/// The handler fills the response *body* into a reactor-owned, reused
/// buffer, and decoded frames reuse their payload capacity, so the warm
/// reply path performs no allocation. Replies on one connection go out
/// in request order; a slow handler delays only its own reactor.
///
/// Shutdown() is graceful: stop accepting, run what every connection has
/// already received, flush the replies, then close. No exception crosses
/// this API; all failures are titant::Status.
class Server {
 public:
  /// Fills `*body` (cleared by the server before the call; reused across
  /// requests on the same reactor) and returns the handler Status. On a
  /// non-OK return the body is not transmitted. Called concurrently from
  /// every reactor.
  using Handler = std::function<Status(const Frame& request, std::string* body)>;

  Server(ServerOptions options, Handler handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the listener and reactor threads.
  /// InvalidArgument for a bad host, IOError for socket failures.
  Status Start();

  /// Graceful shutdown: stops accepting, answers what was received, writes
  /// out the replies, closes every connection, joins every thread.
  /// Idempotent; OK when the server was never started.
  Status Shutdown();

  /// The bound port (useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// Request frames admitted since Start() (including those answered
  /// Timeout because their deadline passed before the handler ran).
  uint64_t frames_dispatched() const { return frames_dispatched_.load(); }

  /// Connections torn down for malformed framing (bad magic/version/cap).
  uint64_t protocol_errors() const { return protocol_errors_.load(); }

  /// Requests refused with ResourceExhausted by admission control.
  uint64_t requests_shed() const { return requests_shed_.load(); }

  /// Admitted requests answered Timeout without running the handler: the
  /// propagated deadline, anchored at the kernel's receive time, had
  /// passed by the time the frame's turn came.
  uint64_t requests_expired() const { return requests_expired_.load(); }

 private:
  class Reactor;

  void AcceptReady();
  /// Takes an admission slot; false when max_in_flight are taken.
  bool Admit();
  void Release();

  ServerOptions options_;
  Handler handler_;
  EventLoop accept_loop_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_reactor_ = 0;  // Listener thread only.
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;

  std::atomic<std::size_t> in_flight_{0};  // Counted only with max_in_flight.
  std::atomic<uint64_t> frames_dispatched_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> requests_shed_{0};
  std::atomic<uint64_t> requests_expired_{0};
  std::thread accept_thread_;  // Last: the listener uses the members above.
};

}  // namespace titant::net

#endif  // TITANT_NET_SERVER_H_
