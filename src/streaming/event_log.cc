#include "streaming/event_log.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "kvstore/wal.h"
#include "net/wire.h"

namespace titant::streaming {

namespace {

/// On-disk record: the WAL's framing (kvstore/wal.h) — uint32 length,
/// uint32 CRC32 of the payload, payload — around the fixed-width wire
/// TransferRequest encoding. Fixed size, so the intact prefix of a
/// segment is a whole number of records.
constexpr std::size_t kPayloadBytes = 36;
constexpr std::size_t kRecordBytes = 8 + kPayloadBytes;

/// Reads a whole segment file; an absent file reads as empty.
std::string ReadSegment(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::string();
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Walks the records of a segment, invoking `fn` (when non-null) for each
/// intact one, and returns the byte length of the intact prefix. Stops at
/// the first torn record or the first one whose length, CRC or encoding
/// is wrong: everything past it is unacknowledged or corrupt.
std::size_t WalkIntactRecords(
    std::string_view data, const std::function<void(const serving::TransferRequest&)>* fn) {
  std::size_t pos = 0;
  while (data.size() - pos >= kRecordBytes) {
    uint32_t size = 0, crc = 0;
    std::memcpy(&size, data.data() + pos, 4);
    std::memcpy(&crc, data.data() + pos + 4, 4);
    const std::string_view payload = data.substr(pos + 8, kPayloadBytes);
    if (size != kPayloadBytes || kvstore::Crc32(payload) != crc) break;
    serving::TransferRequest event;
    if (!net::DecodeTransferRequest(payload, &event).ok()) break;
    if (fn != nullptr) (*fn)(event);
    pos += kRecordBytes;
  }
  return pos;
}

}  // namespace

StatusOr<std::unique_ptr<EventLog>> EventLog::Open(EventLogOptions options) {
  if (options.path_prefix.empty()) {
    return Status::InvalidArgument("event log requires a path prefix");
  }
  std::unique_ptr<EventLog> log(new EventLog(std::move(options)));
  const std::string path = log->current_path();
  const std::string data = ReadSegment(path);
  const std::size_t intact = WalkIntactRecords(data, nullptr);
  if (data.size() > intact) {
    // A crash mid-append left a torn tail, or a record went bad. Truncate
    // there: replay stops at the first bad record, so appending after it
    // would make every subsequently acknowledged event unreplayable.
    std::error_code ec;
    std::filesystem::resize_file(path, static_cast<std::uintmax_t>(intact), ec);
    if (ec) {
      return Status::IOError("cannot truncate torn event log tail in " + path);
    }
  }
  log->current_records_ = intact / kRecordBytes;
  log->out_ = std::fopen(path.c_str(), "ab");
  if (log->out_ == nullptr) {
    return Status::IOError("cannot open event log segment " + path);
  }
  return log;
}

EventLog::~EventLog() {
  if (out_ != nullptr) std::fclose(out_);
}

Status EventLog::Replay(const std::function<void(const serving::TransferRequest&)>& fn) const {
  WalkIntactRecords(ReadSegment(previous_path()), &fn);
  WalkIntactRecords(ReadSegment(current_path()), &fn);
  return Status::OK();
}

Status EventLog::Append(const serving::TransferRequest& event) {
  if (out_ == nullptr) {
    // A failed Rotate() leaves the log closed; report it instead of
    // dereferencing a null FILE* (matches Flush()).
    return Status::IOError("event log segment is not open");
  }
  scratch_.assign(8, '\0');
  net::EncodeTransferRequestTo(&scratch_, event);
  const uint32_t size = static_cast<uint32_t>(kPayloadBytes);
  const uint32_t crc = kvstore::Crc32(std::string_view(scratch_).substr(8));
  std::memcpy(scratch_.data(), &size, 4);
  std::memcpy(scratch_.data() + 4, &crc, 4);
  if (std::fwrite(scratch_.data(), 1, scratch_.size(), out_) != scratch_.size() ||
      (options_.flush_per_append && std::fflush(out_) != 0)) {
    return Status::IOError("event log append failed");
  }
  ++current_records_;
  if (options_.rotate_records > 0 && current_records_ >= options_.rotate_records) {
    return Rotate();  // fclose flushes the retiring segment.
  }
  return Status::OK();
}

Status EventLog::Flush() {
  if (out_ == nullptr || std::fflush(out_) != 0) {
    return Status::IOError("event log flush failed");
  }
  return Status::OK();
}

Status EventLog::Rotate() {
  std::fclose(out_);
  out_ = nullptr;
  std::remove(previous_path().c_str());
  if (std::rename(current_path().c_str(), previous_path().c_str()) != 0) {
    return Status::IOError("event log rotation rename failed");
  }
  out_ = std::fopen(current_path().c_str(), "wb");
  if (out_ == nullptr) return Status::IOError("cannot open fresh event log segment");
  current_records_ = 0;
  return Status::OK();
}

}  // namespace titant::streaming
