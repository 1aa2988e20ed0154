#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/logging.h"

namespace titant::net {

namespace {

/// listen(2) backlog.
constexpr int kListenBacklog = 128;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Monotonic time at which the kernel received the newest segment a read
/// consumed. SO_TIMESTAMPNS stamps it on the realtime clock; its age
/// against realtime-now moves it onto the monotonic clock, so a frame that
/// waited in the socket buffer behind a busy reactor is charged for the
/// wait. A read that carries no stamp falls back to the read time.
int64_t ReceivedAtMicros(msghdr* msg) {
  const int64_t now_us = MonotonicMicros();
  for (cmsghdr* c = CMSG_FIRSTHDR(msg); c != nullptr; c = CMSG_NXTHDR(msg, c)) {
    if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_TIMESTAMPNS) continue;
    timespec stamp{};
    std::memcpy(&stamp, CMSG_DATA(c), sizeof(stamp));
    timespec real{};
    ::clock_gettime(CLOCK_REALTIME, &real);
    const int64_t age_us = (static_cast<int64_t>(real.tv_sec) - stamp.tv_sec) * 1'000'000 +
                           (static_cast<int64_t>(real.tv_nsec) - stamp.tv_nsec) / 1000;
    return now_us - std::max<int64_t>(0, age_us);
  }
  return now_us;
}

}  // namespace

/// One event loop on its own thread, owning the connections the listener
/// hands it. Everything below runs on that thread, except Adopt and Drain,
/// which post to it.
class Server::Reactor {
 public:
  explicit Reactor(Server* server) : server_(server) {}
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  Status Init() { return loop_.Init(); }
  void Start() { thread_ = std::thread([this] { loop_.Run(); }); }
  /// Hands a freshly accepted socket to this reactor.
  void Adopt(int fd) { loop_.Post([this, fd] { AddConnection(fd); }); }
  /// Starts the graceful drain; the thread exits once every connection is
  /// answered and closed.
  void Drain() { loop_.Post([this] { BeginDrain(); }); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct Connection {
    explicit Connection(int fd_in) : fd(fd_in) {}
    bool flushed() const { return outbox_offset == outbox.size(); }

    int fd;
    FrameDecoder decoder;
    std::string outbox;             // Encoded replies awaiting send.
    std::size_t outbox_offset = 0;  // Prefix of outbox already sent.
    bool reading = true;            // EPOLLIN subscribed.
    bool want_write = false;        // EPOLLOUT subscribed.
    bool peer_closed = false;       // Read side saw EOF.
    bool closed = false;            // fd closed and deregistered.
  };
  // The fd callback holds a reference too, so a connection closed by its
  // own callback outlives the call.
  using ConnPtr = std::shared_ptr<Connection>;

  void AddConnection(int fd);
  void ConnectionReady(const ConnPtr& conn, uint32_t events);
  void ReadReady(const ConnPtr& conn);
  void RunBurst(const ConnPtr& conn, std::size_t count);
  /// Sends what the outbox holds until the socket is full; false when the
  /// peer is gone.
  bool Flush(Connection& conn);
  void WriteReady(const ConnPtr& conn);
  void UpdateInterest(const ConnPtr& conn);
  void CloseConnection(const ConnPtr& conn);
  void BeginDrain();
  void MaybeFinishDrain();

  Server* server_;
  EventLoop loop_;
  std::unordered_map<int, ConnPtr> connections_;
  std::vector<Frame> frames_;  // Decoded burst; slots and payloads reused.
  std::string body_;           // Handler body scratch, reused per request.
  bool draining_ = false;
  std::thread thread_;  // Last: it runs the loop over everything above.
};

void Server::Reactor::AddConnection(int fd) {
  auto conn = std::make_shared<Connection>(fd);
  const Status added =
      loop_.Add(fd, EPOLLIN, [this, conn](uint32_t events) { ConnectionReady(conn, events); });
  if (!added.ok()) {
    TITANT_WARN << "register connection: " << added.ToString();
    ::close(fd);
    return;
  }
  connections_[fd] = std::move(conn);
}

void Server::Reactor::ConnectionReady(const ConnPtr& conn, uint32_t events) {
  if (conn->closed) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseConnection(conn);
  } else {
    if (events & EPOLLIN) ReadReady(conn);
    if (!conn->closed && (events & EPOLLOUT)) WriteReady(conn);
  }
  MaybeFinishDrain();
}

void Server::Reactor::ReadReady(const ConnPtr& conn) {
  // Chaos hook: a torn inbound link mid-stream — the connection dies the
  // same way it would on a reset, and the client retries elsewhere.
  if (failpoint_internal::AnyArmed() && !Failpoints::Eval("net.server.read").ok()) {
    CloseConnection(conn);
    return;
  }
  char buffer[64 * 1024];
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
  while (!conn->closed) {
    iovec iov{buffer, sizeof(buffer)};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    const ssize_t n = ::recvmsg(conn->fd, &msg, 0);
    if (n > 0) {
      std::size_t count = 0;
      const Status decoded = conn->decoder.FeedInto(buffer, static_cast<std::size_t>(n),
                                                    ReceivedAtMicros(&msg), &frames_, &count);
      if (!decoded.ok()) {
        server_->protocol_errors_.fetch_add(1);
        TITANT_WARN << "closing connection on protocol error: " << decoded.ToString();
        CloseConnection(conn);
        return;
      }
      RunBurst(conn, count);
      // A short read emptied the socket: level-triggered epoll reports the
      // fd again when more arrives, so asking now would only get EAGAIN.
      if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n == 0) {  // Peer EOF: answer what arrived, then close.
      conn->peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
  if (!conn->closed) WriteReady(conn);  // The burst's replies, in one send.
}

void Server::Reactor::RunBurst(const ConnPtr& conn, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (frames_[i].type != FrameType::kRequest) {
      server_->protocol_errors_.fetch_add(1);
      CloseConnection(conn);
      return;
    }
  }
  // Admission covers the whole burst before any of it runs, so the frames
  // still waiting behind this reactor's current one count as in flight.
  // Once one frame is refused the rest of the burst is too, and the shed
  // replies go out at once: the client can retry elsewhere.
  std::size_t admitted = 0;
  while (admitted < count && server_->Admit()) ++admitted;
  server_->frames_dispatched_.fetch_add(admitted);
  for (std::size_t i = admitted; i < count; ++i) {
    server_->requests_shed_.fetch_add(1);
    EncodeResponseFrameTo(&conn->outbox, frames_[i].method, frames_[i].request_id,
                          Status::ResourceExhausted(
                              "server overloaded: " +
                              std::to_string(server_->options_.max_in_flight) +
                              " requests in flight"),
                          {});
  }
  if (admitted < count && !Flush(*conn)) CloseConnection(conn);

  for (std::size_t i = 0; i < admitted; ++i) {
    const Frame& frame = frames_[i];
    body_.clear();
    Status status = Status::OK();
    // The one deadline check, right before the handler: the budget runs
    // from the kernel's receive time, so waiting behind earlier work on
    // this reactor is charged, and an expired frame never runs.
    if (frame.has_deadline() && MonotonicMicros() > frame.deadline_us()) {
      server_->requests_expired_.fetch_add(1);
      status = Status::Timeout("deadline expired before the handler ran");
    } else {
      status = server_->handler_(frame, &body_);
    }
    if (!conn->closed) {
      EncodeResponseFrameTo(&conn->outbox, frame.method, frame.request_id, status, body_);
    }
    server_->Release();
  }
}

bool Server::Reactor::Flush(Connection& conn) {
  if (conn.flushed()) return true;
  // Chaos hook: the reply path tears before the bytes make it out.
  if (failpoint_internal::AnyArmed() && !Failpoints::Eval("net.server.write").ok()) return false;
  while (!conn.flushed()) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE.
    const ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.outbox_offset,
                             conn.outbox.size() - conn.outbox_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbox_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // EPOLLOUT resumes.
    if (errno == EINTR) continue;
    return false;  // EPIPE/ECONNRESET: peer is gone.
  }
  conn.outbox.clear();  // Capacity is retained for the next burst.
  conn.outbox_offset = 0;
  return true;
}

void Server::Reactor::WriteReady(const ConnPtr& conn) {
  if (!Flush(*conn) || (conn->flushed() && (conn->peer_closed || draining_))) {
    CloseConnection(conn);
    return;
  }
  UpdateInterest(conn);
}

void Server::Reactor::UpdateInterest(const ConnPtr& conn) {
  if (conn->closed) return;
  const bool want_write = !conn->flushed();
  const bool want_read = !conn->peer_closed && !draining_;
  if (want_write == conn->want_write && want_read == conn->reading) return;
  uint32_t events = 0;
  if (want_read) events |= EPOLLIN;
  if (want_write) events |= EPOLLOUT;
  conn->want_write = want_write;
  conn->reading = want_read;
  const Status status = loop_.Modify(conn->fd, events);
  if (!status.ok()) {
    TITANT_WARN << "epoll interest update failed: " << status.ToString();
    CloseConnection(conn);
  }
}

void Server::Reactor::CloseConnection(const ConnPtr& conn) {
  if (conn->closed) return;
  conn->closed = true;
  const Status removed = loop_.Remove(conn->fd);
  if (!removed.ok()) TITANT_WARN << "deregister connection: " << removed.ToString();
  ::close(conn->fd);
  connections_.erase(conn->fd);
  conn->fd = -1;
}

void Server::Reactor::BeginDrain() {
  draining_ = true;
  // Answer every complete request each connection's socket already
  // holds. Once its replies are flushed a draining connection closes; one
  // still flushing drops EPOLLIN and finishes on EPOLLOUT.
  std::vector<ConnPtr> conns;
  conns.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) conns.push_back(conn);
  for (const ConnPtr& conn : conns) {
    if (!conn->closed) ReadReady(conn);
  }
  MaybeFinishDrain();
}

void Server::Reactor::MaybeFinishDrain() {
  if (draining_ && connections_.empty()) loop_.Stop();
}

Server::Server(ServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

Server::~Server() {
  const Status status = Shutdown();
  if (!status.ok()) TITANT_WARN << "server shutdown: " << status.ToString();
}

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const auto fail = [this](Status status) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    reactors_.clear();
    return status;
  };
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  // Kernel receive stamps anchor every frame's deadline (ReceivedAtMicros).
  // Accepted sockets inherit the option, so bytes that arrive before the
  // accept are stamped too.
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_TIMESTAMPNS, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("bad bind address '" + options_.host + "'"));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail(Errno("bind " + options_.host + ":" + std::to_string(options_.port)));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) return fail(Errno("listen"));
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return fail(Errno("getsockname"));
  }
  port_ = ntohs(bound.sin_port);

  Status status = accept_loop_.Init();
  if (status.ok()) {
    status = accept_loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); });
  }
  const std::size_t reactors = std::max<std::size_t>(1, options_.worker_threads);
  for (std::size_t i = 0; status.ok() && i < reactors; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(this));
    status = reactors_.back()->Init();
  }
  if (!status.ok()) return fail(status);
  for (auto& reactor : reactors_) reactor->Start();
  accept_thread_ = std::thread([this] { accept_loop_.Run(); });
  started_ = true;
  return Status::OK();
}

Status Server::Shutdown() {
  if (!started_) return Status::OK();
  // Stop accepting first. Every connection accepted by then has its
  // hand-over queued on its reactor ahead of the drain posted below.
  accept_loop_.Post([this] {
    const Status removed = accept_loop_.Remove(listen_fd_);
    if (!removed.ok()) TITANT_WARN << "deregister listener: " << removed.ToString();
    ::close(listen_fd_);
    listen_fd_ = -1;
    accept_loop_.Stop();
  });
  accept_thread_.join();
  for (auto& reactor : reactors_) reactor->Drain();
  for (auto& reactor : reactors_) reactor->Join();
  reactors_.clear();
  started_ = false;
  return Status::OK();
}

void Server::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      TITANT_WARN << "accept: " << std::strerror(errno);
      return;
    }
    // Chaos hook: the accept path drops the connection on the floor (the
    // client sees an immediate close and reconnects on retry).
    if (!Failpoints::Eval("net.server.accept").ok()) {
      ::close(fd);
      continue;
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    reactors_[next_reactor_++ % reactors_.size()]->Adopt(fd);
  }
}

bool Server::Admit() {
  if (options_.max_in_flight == 0) return true;
  std::size_t current = in_flight_.load();
  do {
    if (current >= options_.max_in_flight) return false;
  } while (!in_flight_.compare_exchange_weak(current, current + 1));
  return true;
}

void Server::Release() {
  if (options_.max_in_flight > 0) in_flight_.fetch_sub(1);
}

}  // namespace titant::net
