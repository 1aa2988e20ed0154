#ifndef TITANT_PERFBENCH_OPENLOOP_H_
#define TITANT_PERFBENCH_OPENLOOP_H_

// Open-loop load generation over pipelined gateway connections.
//
// Requests leave on a Poisson schedule whether or not earlier replies
// have arrived, so a stalled server faces a growing queue, as it would
// with independent users. Every round trip is timed from the request's
// *scheduled* send time, so the wait a stall imposes on later requests is
// counted; the generator's own lateness (actual minus scheduled send) is
// reported next to it so a late generator is not mistaken for a slow
// server.
//
// One thread drives every stream and connection, and it polls instead of
// sleeping while a step runs: on a virtual machine an idle vCPU can take
// milliseconds to wake, which would make the generator, not the server,
// set the tail.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "net/wire.h"
#include "trace.h"

namespace perfbench {

/// Round-trip results of one stream over one step. Samples are kept raw
/// (microseconds) so percentiles are exact.
struct ConnStats {
  std::vector<float> rtt_us;  // Every round trip, from scheduled send to reply.
  std::vector<float> lateness_us;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;      // Transport error, error status, or a failed check.
  uint64_t unanswered = 0;  // Still outstanding when the drain timeout hit.
  uint64_t outstanding_max = 0;
  /// Outstanding requests summed over the sends of the second and of the
  /// last quarter of the send window, and the sends counted (the
  /// backlog-growth test compares the two means).
  double outstanding_sum_q2 = 0.0;
  double outstanding_sum_q4 = 0.0;
  uint64_t sends_q2 = 0;
  uint64_t sends_q4 = 0;
};

struct OpenLoopHooks {
  /// Claims the next stream position.
  std::function<uint64_t()> next_index;
  /// Fills the request payload for stream position `index`; returns the
  /// wire method.
  std::function<uint16_t(uint64_t index, std::string* payload)> encode;
  /// Judges one reply; returns true when it counts as a success.
  std::function<bool(uint64_t index, const titant::net::Frame& frame, int64_t reply_ns)> on_reply;
};

/// One Poisson request stream, spread round-robin over its own connections.
struct OpenLoopStream {
  double rate_per_s = 0.0;
  int connections = 1;
  uint64_t seed = 1;
  OpenLoopHooks hooks;
};

struct OpenLoopRun {
  std::vector<ConnStats> streams;  // Parallel to the streams passed in.
  double thread_cpu_s = 0.0;       // CLOCK_THREAD_CPUTIME_ID of the generator.
};

/// Connects every stream to 127.0.0.1:`port`, sends for scheduled times in
/// [start_ns, end_ns), then waits up to `drain_ns` for outstanding
/// replies. `deadline_ms` travels in every frame header. Spans go to
/// `trace` when non-null.
titant::StatusOr<OpenLoopRun> RunOpenLoop(uint16_t port, const std::vector<OpenLoopStream>& streams,
                                          int64_t start_ns, int64_t end_ns, int64_t drain_ns,
                                          uint32_t deadline_ms, SpanBuffer* trace);

}  // namespace perfbench

#endif  // TITANT_PERFBENCH_OPENLOOP_H_
