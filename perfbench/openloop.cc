#include "openloop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <random>

namespace perfbench {

namespace {

using titant::Status;

constexpr std::size_t kRing = 1u << 16;  // Max outstanding requests per connection.

struct Pending {
  int64_t scheduled_ns = 0;
  int64_t sent_ns = 0;
  uint64_t index = 0;
  uint64_t trace_id = 0;  // Root span id of the request (tracing only).
  bool live = false;
};

/// One pipelined connection: request ids are sequential, replies are
/// matched back to their schedule through a ring indexed by id.
struct Conn {
  int fd = -1;
  std::size_t stream = 0;
  uint64_t next_id = 0;
  uint64_t outstanding = 0;
  std::vector<Pending> pending = std::vector<Pending>(kRing);
  titant::net::FrameDecoder decoder;
  std::vector<titant::net::Frame> frames;
  std::string out;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

struct StreamState {
  const OpenLoopStream* spec = nullptr;
  std::mt19937_64 rng;
  std::exponential_distribution<double> gap_ns{1.0};
  double next = 0.0;
  std::vector<std::size_t> conns;
  std::size_t round_robin = 0;
  uint64_t outstanding = 0;
};

Status Connect(uint16_t port, int* fd_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError(std::string("socket: ") + std::strerror(errno));
  *fd_out = fd;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Unavailable(std::string("connect: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::IOError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

class Generator {
 public:
  Generator(const std::vector<OpenLoopStream>& specs, int64_t start_ns, int64_t end_ns,
            SpanBuffer* trace)
      : start_ns_(start_ns), end_ns_(end_ns), trace_(trace) {
    for (const OpenLoopStream& spec : specs) {
      StreamState s;
      s.spec = &spec;
      s.rng.seed(spec.seed);
      s.gap_ns = std::exponential_distribution<double>(spec.rate_per_s / 1e9);
      s.next = static_cast<double>(start_ns) + s.gap_ns(s.rng);
      streams_.push_back(std::move(s));
      // Sized up front so recording a sample does not allocate mid-step.
      const std::size_t expected = static_cast<std::size_t>(
          spec.rate_per_s * 1.3 * static_cast<double>(end_ns - start_ns) / 1e9) + 64;
      ConnStats stats;
      stats.rtt_us.reserve(expected);
      stats.lateness_us.reserve(expected);
      stats_.push_back(std::move(stats));
    }
  }

  Status Connect(uint16_t port) {
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      for (int c = 0; c < streams_[s].spec->connections; ++c) {
        conns_.push_back(std::make_unique<Conn>());
        conns_.back()->stream = s;
        TITANT_RETURN_IF_ERROR(perfbench::Connect(port, &conns_.back()->fd));
        streams_[s].conns.push_back(conns_.size() - 1);
      }
    }
    return Status::OK();
  }

  void Run(int64_t drain_ns, uint32_t deadline_ms) {
    const double end = static_cast<double>(end_ns_);
    while (true) {
      const int64_t now = NowNs();
      bool sending = false;
      for (std::size_t s = 0; s < streams_.size(); ++s) {
        if (streams_[s].next < end) sending = true;
        if (streams_[s].next <= static_cast<double>(now) && streams_[s].next < end) {
          SendDue(s, now, deadline_ms);
        }
      }
      for (auto& conn : conns_) {
        if (!conn->out.empty() && !WriteAll(*conn)) Break(*conn);
      }
      for (auto& conn : conns_) {
        if (conn->fd >= 0 && !ReadReplies(*conn)) Break(*conn);
      }
      if (!sending) {
        uint64_t outstanding = 0;
        for (const auto& conn : conns_) outstanding += conn->outstanding;
        if (outstanding == 0 || NowNs() >= end_ns_ + drain_ns) break;
      }
      // No sleep: a halted vCPU wakes late (see the file comment).
    }
    for (auto& conn : conns_) Break(*conn);
  }

  std::vector<ConnStats> TakeStats() { return std::move(stats_); }

 private:
  void SendDue(std::size_t s, int64_t now, uint32_t deadline_ms) {
    StreamState& stream = streams_[s];
    ConnStats& stats = stats_[s];
    const double end = static_cast<double>(end_ns_);
    std::vector<std::pair<Conn*, uint64_t>>& burst = burst_;
    burst.clear();
    while (stream.next <= static_cast<double>(now) && stream.next < end) {
      Conn& conn = *conns_[stream.conns[stream.round_robin++ % stream.conns.size()]];
      ++stats.sent;
      if (conn.fd < 0 || conn.outstanding + 1 >= kRing) {
        // A broken connection, or more in flight than the ring tracks: the
        // request counts as failed, unsent.
        ++stats.failed;
        stream.next += stream.gap_ns(stream.rng);
        continue;
      }
      const uint64_t id = ++conn.next_id;
      Pending& p = conn.pending[id % kRing];
      p.scheduled_ns = static_cast<int64_t>(stream.next);
      p.index = stream.spec->hooks.next_index();
      p.live = true;
      p.trace_id = trace_ != nullptr ? trace_->NewId() : 0;
      const int64_t encode_start = trace_ != nullptr ? NowNs() : 0;
      payload_.clear();
      const uint16_t method = stream.spec->hooks.encode(p.index, &payload_);
      titant::net::EncodeRequestFrameTo(&conn.out, method, id, payload_, deadline_ms);
      if (trace_ != nullptr) {
        trace_->Add("client.encode", p.trace_id, p.trace_id, encode_start, NowNs());
      }
      ++conn.outstanding;
      ++stream.outstanding;
      burst.emplace_back(&conn, id);
      stream.next += stream.gap_ns(stream.rng);
    }
    // The burst leaves with this pass's writes; stamp it now.
    const int64_t send_ns = NowNs();
    for (const auto& [conn, id] : burst) {
      Pending& p = conn->pending[id % kRing];
      p.sent_ns = send_ns;
      stats.lateness_us.push_back(static_cast<float>(send_ns - p.scheduled_ns) / 1e3f);
    }
    stats.outstanding_max = std::max(stats.outstanding_max, stream.outstanding);
    const int64_t window_ns = end_ns_ - start_ns_;
    const int64_t quarter = window_ns > 0 ? (now - start_ns_) * 4 / window_ns : 0;
    if (quarter == 1) {
      stats.outstanding_sum_q2 += static_cast<double>(stream.outstanding) * burst.size();
      stats.sends_q2 += burst.size();
    } else if (quarter >= 3) {
      stats.outstanding_sum_q4 += static_cast<double>(stream.outstanding) * burst.size();
      stats.sends_q4 += burst.size();
    }
  }

  bool WriteAll(Conn& conn) {
    std::size_t off = 0;
    while (off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + off, conn.out.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // The socket is full: keep draining replies so the server's
        // outbox can empty and ours can follow.
        if (!ReadReplies(conn)) return false;
        continue;
      }
      return false;
    }
    conn.out.clear();
    return true;
  }

  bool ReadReplies(Conn& conn) {
    char buffer[64 * 1024];
    while (true) {
      const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
      if (n > 0) {
        const int64_t reply_ns = NowNs();
        conn.frames.clear();
        if (!conn.decoder.Feed(buffer, static_cast<std::size_t>(n), &conn.frames).ok()) return false;
        for (const titant::net::Frame& frame : conn.frames) HandleFrame(conn, frame, reply_ns);
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  void HandleFrame(Conn& conn, const titant::net::Frame& frame, int64_t reply_ns) {
    StreamState& stream = streams_[conn.stream];
    ConnStats& stats = stats_[conn.stream];
    Pending& p = conn.pending[frame.request_id % kRing];
    if (!p.live) {  // A reply nobody is waiting for: a protocol fault.
      ++stats.failed;
      return;
    }
    p.live = false;
    --conn.outstanding;
    --stream.outstanding;
    const int64_t decode_start = trace_ != nullptr ? NowNs() : 0;
    const bool ok = stream.spec->hooks.on_reply(p.index, frame, reply_ns);
    stats.rtt_us.push_back(static_cast<float>(reply_ns - p.scheduled_ns) / 1e3f);
    ++(ok ? stats.ok : stats.failed);
    if (trace_ != nullptr) {
      const int64_t decode_end = NowNs();
      trace_->Add("client.send_to_reply", p.trace_id, p.trace_id, p.sent_ns, reply_ns);
      trace_->Add("client.decode", p.trace_id, p.trace_id, decode_start, decode_end);
      trace_->Record("client.request", p.trace_id, 0, p.trace_id, p.scheduled_ns, decode_end);
    }
  }

  /// Closes a connection and fails whatever it still owed.
  void Break(Conn& conn) {
    if (conn.outstanding > 0) {
      ConnStats& stats = stats_[conn.stream];
      stats.unanswered += conn.outstanding;
      stats.failed += conn.outstanding;
      streams_[conn.stream].outstanding -= conn.outstanding;
      conn.outstanding = 0;
      for (Pending& p : conn.pending) p.live = false;
    }
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }

  int64_t start_ns_;
  int64_t end_ns_;
  SpanBuffer* trace_;
  std::vector<StreamState> streams_;
  std::vector<ConnStats> stats_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::pair<Conn*, uint64_t>> burst_;
  std::string payload_;
};

}  // namespace

titant::StatusOr<OpenLoopRun> RunOpenLoop(uint16_t port, const std::vector<OpenLoopStream>& streams,
                                          int64_t start_ns, int64_t end_ns, int64_t drain_ns,
                                          uint32_t deadline_ms, SpanBuffer* trace) {
  Generator generator(streams, start_ns, end_ns, trace);
  TITANT_RETURN_IF_ERROR(generator.Connect(port));
  const double cpu_start = ThreadCpuSeconds();
  generator.Run(drain_ns, deadline_ms);
  OpenLoopRun run;
  run.thread_cpu_s = ThreadCpuSeconds() - cpu_start;
  run.streams = generator.TakeStats();
  return run;
}

}  // namespace perfbench
