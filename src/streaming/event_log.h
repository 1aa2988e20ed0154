#ifndef TITANT_STREAMING_EVENT_LOG_H_
#define TITANT_STREAMING_EVENT_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/statusor.h"
#include "kvstore/wal.h"
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
};

/// Append-only durable log of scored transactions feeding the aggregator
/// — the exactly-once-per-window commit point. Each segment is a
/// kvstore::WriteAheadLog whose records are the wire TransferRequest
/// encoding (the same bytes a kScore frame carries).
///
/// Appends buffer until Flush(), the commit point: the ingest worker pays
/// one flush per drained batch, and a crashed process loses nothing it
/// flushed (power loss is out of scope — there is no fsync, matching the
/// WAL's contract). Replay walks .prev then .cur and stops each at its
/// first torn record or record that fails its length or CRC check, so a
/// crash mid-append or a flipped bit never replays a different transfer.
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

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Invokes `fn` for every intact logged event, oldest segment first.
  /// Call before the first Append: replay reads the same files the log
  /// appends to. A torn or corrupt record ends its segment's replay
  /// cleanly.
  Status Replay(const std::function<void(const serving::TransferRequest&)>& fn) const;

  /// Appends one record to the current segment's buffer, rotating after
  /// `rotate_records` (the retiring segment is flushed as it closes).
  Status Append(const serving::TransferRequest& event);

  /// Pushes buffered appends to the OS: the commit point. An event is
  /// applied to the aggregator only after its bytes reached the OS, so
  /// recovery-by-replay reproduces exactly the applied event set.
  Status Flush();

  /// Records appended to the current segment (resets on rotation).
  uint64_t current_records() const { return current_records_; }

  std::string current_path() const { return options_.path_prefix + ".cur"; }
  std::string previous_path() const { return options_.path_prefix + ".prev"; }

 private:
  explicit EventLog(EventLogOptions options) : options_(std::move(options)) {}

  Status Rotate();

  EventLogOptions options_;
  std::optional<kvstore::WriteAheadLog> current_;  // Empty after a failed Rotate().
  uint64_t current_records_ = 0;
  std::string scratch_;
};

}  // namespace titant::streaming

#endif  // TITANT_STREAMING_EVENT_LOG_H_
