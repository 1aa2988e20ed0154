#include "streaming/event_log.h"

#include <cstdio>
#include <vector>

#include "net/wire.h"

namespace titant::streaming {

StatusOr<std::unique_ptr<EventLog>> EventLog::Open(EventLogOptions options) {
  if (options.path_prefix.empty()) {
    return Status::InvalidArgument("event log requires a path prefix");
  }
  std::unique_ptr<EventLog> log(new EventLog(std::move(options)));
  std::vector<std::string> records;
  TITANT_ASSIGN_OR_RETURN(kvstore::WriteAheadLog current,
                          kvstore::WriteAheadLog::Open(log->current_path(), &records));
  log->current_.emplace(std::move(current));
  log->current_records_ = records.size();
  return log;
}

Status EventLog::Replay(const std::function<void(const serving::TransferRequest&)>& fn) const {
  for (const std::string& path : {previous_path(), current_path()}) {
    TITANT_ASSIGN_OR_RETURN(const std::vector<std::string> records,
                            kvstore::WriteAheadLog::ReadAll(path));
    for (const std::string& record : records) {
      // A record that is not a transfer ends the segment's replay too.
      serving::TransferRequest event;
      if (!net::DecodeTransferRequest(record, &event).ok()) break;
      fn(event);
    }
  }
  return Status::OK();
}

Status EventLog::Append(const serving::TransferRequest& event) {
  // A failed Rotate() leaves the log closed.
  if (!current_) return Status::IOError("event log segment is not open");
  scratch_.clear();
  net::EncodeTransferRequestTo(&scratch_, event);
  TITANT_RETURN_IF_ERROR(current_->Append(scratch_));
  ++current_records_;
  if (options_.rotate_records > 0 && current_records_ >= options_.rotate_records) {
    return Rotate();
  }
  return Status::OK();
}

Status EventLog::Flush() {
  if (!current_) return Status::IOError("event log segment is not open");
  return current_->Flush();
}

Status EventLog::Rotate() {
  current_.reset();  // Closing flushes the retiring segment.
  std::remove(previous_path().c_str());
  if (std::rename(current_path().c_str(), previous_path().c_str()) != 0) {
    return Status::IOError("event log rotation rename failed");
  }
  TITANT_ASSIGN_OR_RETURN(kvstore::WriteAheadLog fresh,
                          kvstore::WriteAheadLog::Open(current_path()));
  current_.emplace(std::move(fresh));
  current_records_ = 0;
  return Status::OK();
}

}  // namespace titant::streaming
