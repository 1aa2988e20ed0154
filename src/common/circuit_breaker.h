#ifndef TITANT_COMMON_CIRCUIT_BREAKER_H_
#define TITANT_COMMON_CIRCUIT_BREAKER_H_

#include <atomic>
#include <cstdint>

namespace titant {

/// Count-based circuit breaker, shared by the router (one per Model Server
/// instance) and the store failover tier (one per primary). The policy is
/// fixed: kTripFailures consecutive failures trip it open; while open,
/// every kProbeInterval-th call is let through as a half-open probe; a
/// clean answer closes it. It counts calls, not wall-clock time, so a
/// failure schedule plays out the same way in every run.
///
/// The breaker does not classify outcomes: each owner decides which
/// statuses are failures. Thread-safe. A closed breaker with no streak is
/// only read, so callers on many threads do not write a shared cache line
/// per call to keep it closed.
class CircuitBreaker {
 public:
  static constexpr uint32_t kTripFailures = 5;
  static constexpr uint64_t kProbeInterval = 16;

  bool open() const { return open_.load(); }

  /// Closed -> open transitions since construction.
  uint64_t trips() const { return trips_.load(); }

  /// Counts a call that arrived while open. True on every kProbeInterval-th
  /// one since the breaker tripped: that call goes through as a probe.
  bool ProbeDue() { return (calls_while_open_.fetch_add(1) + 1) % kProbeInterval == 0; }

  /// A failure extends the streak. True when it tripped the breaker open.
  bool Fail() { return streak_.fetch_add(1) + 1 >= kTripFailures && Trip(); }

  /// Opens the breaker (the streak's end, or an operator's failover) and
  /// restarts the probe cadence. True when it was closed.
  bool Trip() {
    if (open() || open_.exchange(true)) return false;
    calls_while_open_.store(0);
    trips_.fetch_add(1);
    return true;
  }

  /// A clean answer, or an operator's reset: ends the streak and closes
  /// the breaker. True when it was open. Writes only what needs clearing.
  bool Close() {
    if (streak_.load() != 0) streak_.store(0);
    return open() && open_.exchange(false);
  }

 private:
  std::atomic<bool> open_{false};
  std::atomic<uint32_t> streak_{0};  // Consecutive failures.
  std::atomic<uint64_t> calls_while_open_{0};
  std::atomic<uint64_t> trips_{0};
};

}  // namespace titant

#endif  // TITANT_COMMON_CIRCUIT_BREAKER_H_
