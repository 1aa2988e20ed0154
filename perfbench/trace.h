#ifndef TITANT_PERFBENCH_TRACE_H_
#define TITANT_PERFBENCH_TRACE_H_

// Span recorder for the benchmark's traced runs. Spans are recorded from
// the benchmark's own code around its calls into the program's layers;
// nothing inside the program is instrumented. Each thread appends to its
// own buffer (no lock on the recording path); the buffers are written out
// once, as JSON lines, when the run ends.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds the whole process has used.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU seconds the calling thread has used.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

struct Span {
  const char* name = "";  // Static string.
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root span.
  uint64_t request = 0;  // Shared by every span of one request (0 = none).
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's span buffer. Ids are unique across buffers: the buffer
/// index sits in the top 16 bits.
class SpanBuffer {
 public:
  SpanBuffer(uint64_t index, std::size_t reserve) : next_id_(index << 48) {
    spans_.reserve(reserve);
  }

  uint64_t NewId() { return ++next_id_; }

  void Record(const char* name, uint64_t id, uint64_t parent, uint64_t request,
              int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
  }

  /// Records a span with a fresh id and returns the id.
  uint64_t Add(const char* name, uint64_t parent, uint64_t request, int64_t start_ns,
               int64_t end_ns) {
    const uint64_t id = NewId();
    Record(name, id, parent, request, start_ns, end_ns);
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Hands out per-thread buffers; null buffers mean tracing is off, and
/// every recording helper accepts a null buffer.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A new buffer for the calling thread, or null when tracing is off.
  /// `reserve` spans are allocated up front.
  SpanBuffer* NewBuffer(std::size_t reserve = 0) {
    if (!enabled_) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<SpanBuffer>(buffers_.size() + 1, reserve));
    return buffers_.back().get();
  }

  std::size_t span_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->spans().size();
    return n;
  }

  /// Writes every span as one JSON object per line. Call after every
  /// recording thread has been joined.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      for (const Span& s : b->spans()) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                     "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     s.name, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Times a scope into `buffer` (no-op when null). Children take id() as
/// their parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t parent = 0, uint64_t request = 0)
      : buffer_(buffer), name_(name), parent_(parent), request_(request) {
    if (buffer_ != nullptr) {
      id_ = buffer_->NewId();
      start_ns_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Record(name_, id_, parent_, request_, start_ns_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace perfbench

#endif  // TITANT_PERFBENCH_TRACE_H_
