#ifndef TITANT_COMMON_STOPWATCH_H_
#define TITANT_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace titant {

/// Monotonic wall-clock stopwatch for measuring real elapsed time
/// (benchmark harness, serving latency). Fig. 10's cluster times are
/// simulated instead: see `ps::SimulateDeepWalk` and `ps::SimulateGbdt`.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the measurement window.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction/Reset, in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds (fractional).
  double ElapsedMillis() const { return static_cast<double>(ElapsedMicros()) / 1000.0; }

  /// Elapsed time in seconds (fractional).
  double ElapsedSeconds() const { return static_cast<double>(ElapsedMicros()) / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace titant

#endif  // TITANT_COMMON_STOPWATCH_H_
