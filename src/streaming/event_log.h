#ifndef TITANT_STREAMING_EVENT_LOG_H_
#define TITANT_STREAMING_EVENT_LOG_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "common/statusor.h"
#include "serving/request.h"

namespace titant::streaming {

struct EventLogOptions {
  /// Path prefix of the segment files: "<prefix>.cur" is the append
  /// target, "<prefix>.prev" the retired segment kept for replay.
  std::string path_prefix;
  /// Records per segment before rotation (delete .prev, retire .cur to
  /// .prev, start a fresh .cur). 0 never rotates. Size this so a segment
  /// spans longer than the aggregator's largest window: replayed events
  /// older than every window fall out as late drops, so over-retention
  /// is merely replay time, while under-retention loses window state.
  uint64_t rotate_records = 0;
  /// Flush to the OS after every Append. False buffers appends until an
  /// explicit Flush(), which becomes the commit point instead — the
  /// ingest worker uses this to pay one flush per drained batch rather
  /// than one per event.
  bool flush_per_append = true;
};

/// Append-only durable log of scored transactions feeding the aggregator
/// — the exactly-once-per-window commit point. Each record has the
/// write-ahead log's framing (kvstore/wal.h): a uint32 length, a uint32
/// CRC32 of the payload, and the payload, which is the wire
/// TransferRequest encoding (the same bytes a kScore frame carries).
///
/// Appends reach the OS at the commit point — per record by default,
/// per explicit Flush() when `flush_per_append` is off — so a crashed
/// process loses nothing it acknowledged (power loss is out of scope —
/// there is no fsync, matching the kvstore WAL's contract). Replay walks
/// .prev then .cur and stops each at its first torn record or record
/// that fails its length or CRC check, so a crash mid-append or a
/// flipped bit never replays a different transfer.
///
/// Not thread-safe; owned and driven by the single ingest worker.
class EventLog {
 public:
  /// Opens (creating if absent) the current segment for appending,
  /// truncating it at its first torn or corrupt record first, so new
  /// records follow the intact ones (replay stops at the first bad
  /// record, so appending after one would strand everything acknowledged
  /// later).
  static StatusOr<std::unique_ptr<EventLog>> Open(EventLogOptions options);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Invokes `fn` for every intact logged event, oldest segment first.
  /// Call before the first Append: replay reads the same files the log
  /// appends to. A torn or corrupt record ends its segment's replay
  /// cleanly.
  Status Replay(const std::function<void(const serving::TransferRequest&)>& fn) const;

  /// Appends one record (and flushes it when `flush_per_append`, the
  /// default). The flush is the commit point: an event is applied to the
  /// aggregator only after its bytes reached the OS, so recovery-by-
  /// replay reproduces exactly the applied event set.
  Status Append(const serving::TransferRequest& event);

  /// Pushes buffered appends to the OS. The per-batch commit point when
  /// `flush_per_append` is off; a no-op (beyond the syscall) otherwise.
  Status Flush();

  /// Records appended to the current segment (resets on rotation).
  uint64_t current_records() const { return current_records_; }

  std::string current_path() const { return options_.path_prefix + ".cur"; }
  std::string previous_path() const { return options_.path_prefix + ".prev"; }

 private:
  explicit EventLog(EventLogOptions options) : options_(std::move(options)) {}

  Status Rotate();

  EventLogOptions options_;
  std::FILE* out_ = nullptr;
  uint64_t current_records_ = 0;
  std::string scratch_;
};

}  // namespace titant::streaming

#endif  // TITANT_STREAMING_EVENT_LOG_H_
