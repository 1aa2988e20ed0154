#ifndef TITANT_KVSTORE_WAL_H_
#define TITANT_KVSTORE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace titant::kvstore {

/// CRC32 (IEEE, reflected) over `data`: the checksum of every WAL record,
/// SSTable block and SSTable region. Slicing-by-8, eight bytes per step.
uint32_t Crc32(std::string_view data);

/// Append-only write-ahead log. Record framing: u32 length, u32 crc32,
/// payload. Recovery stops cleanly at the first truncated or corrupt
/// record (a crash mid-append loses only the tail).
class WriteAheadLog {
 public:
  /// Opens (creating if needed) the log at `path` for appending. The
  /// intact records already in it are returned through `recovered` (when
  /// non-null), and a torn or corrupt tail after them is truncated first,
  /// so records appended from now on replay after the intact ones.
  static StatusOr<WriteAheadLog> Open(const std::string& path,
                                      std::vector<std::string>* recovered = nullptr);

  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  ~WriteAheadLog();

  /// Appends one record to the log's buffer. It reaches the OS at the
  /// next Flush().
  Status Append(const std::string& payload);

  /// Pushes the appended records to the OS: the commit point. A crashed
  /// process loses nothing flushed (there is no fsync, so power loss can).
  Status Flush();

  /// Closes, deletes and reopens the log file empty (after a memtable
  /// flush has made its contents durable elsewhere).
  Status Reset();

  /// Reads every intact record of the log at `path` (missing file -> empty).
  static StatusOr<std::vector<std::string>> ReadAll(const std::string& path);

  const std::string& path() const { return path_; }

 private:
  explicit WriteAheadLog(std::string path) : path_(std::move(path)) {}

  std::string path_;
  std::FILE* file_ = nullptr;
};

}  // namespace titant::kvstore

#endif  // TITANT_KVSTORE_WAL_H_
