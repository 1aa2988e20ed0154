#include "kvstore/wal.h"

#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace titant::kvstore {

namespace {

// Every on-disk format in the store is little-endian, and the kernel
// below folds 4-byte loads as little-endian words.
static_assert(std::endian::native == std::endian::little);

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables for the IEEE polynomial (reflected 0xEDB88320).
// Table 0 is the classic bytewise table; table k advances a byte's
// contribution through k further zero bytes, so eight table lookups fold
// eight input bytes at once. Built at compile time: no first-use guard.
constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// Length prefix + CRC ahead of every WAL payload.
constexpr std::size_t kRecordHeader = 2 * sizeof(uint32_t);

// Reads the intact records of the log at `path` into `records` (when
// non-null) and returns the byte length of that intact prefix; sets
// `file_size` to the whole file's. Stops at the first record that is
// short, runs past the end of the file, or fails its CRC. A missing file
// reads as empty.
uint64_t ReadIntactPrefix(const std::string& path, std::vector<std::string>* records,
                          uint64_t* file_size) {
  *file_size = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;  // No log yet: nothing to replay.
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  *file_size = end > 0 ? static_cast<uint64_t>(end) : 0;
  uint64_t intact = 0;
  std::string payload;
  for (;;) {
    uint32_t len = 0, crc = 0;
    if (std::fread(&len, sizeof(len), 1, f) != 1) break;
    if (std::fread(&crc, sizeof(crc), 1, f) != 1) break;
    // A torn or corrupt length must not size the buffer below.
    if (len > *file_size - intact - kRecordHeader) break;
    payload.resize(len);
    if (len > 0 && std::fread(payload.data(), 1, len, f) != len) break;
    if (Crc32(payload) != crc) break;  // Torn/corrupt tail: stop replay.
    intact += kRecordHeader + len;
    if (records != nullptr) records->push_back(std::move(payload));
  }
  std::fclose(f);
  return intact;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

StatusOr<WriteAheadLog> WriteAheadLog::Open(const std::string& path,
                                             std::vector<std::string>* recovered) {
  uint64_t size = 0;
  const uint64_t intact = ReadIntactPrefix(path, recovered, &size);
  if (size > intact) {
    // A crash mid-append left a torn or corrupt tail. Truncate it: replay
    // stops at the first bad record, so appending after it would make
    // every record acknowledged from now on unreplayable.
    std::error_code ec;
    std::filesystem::resize_file(path, intact, ec);
    if (ec) return Status::IOError("cannot truncate torn WAL tail: " + path);
  }
  WriteAheadLog wal(path);
  wal.file_ = std::fopen(path.c_str(), "ab");
  if (wal.file_ == nullptr) return Status::IOError("cannot open WAL: " + path);
  return wal;
}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : path_(std::move(other.path_)), file_(other.file_) {
  other.file_ = nullptr;
}

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    path_ = std::move(other.path_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WriteAheadLog::Append(const std::string& payload) {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL is closed");
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload);
  if (std::fwrite(&len, sizeof(len), 1, file_) != 1 ||
      std::fwrite(&crc, sizeof(crc), 1, file_) != 1 ||
      (len > 0 && std::fwrite(payload.data(), 1, len, file_) != len)) {
    return Status::IOError("WAL append failed: " + path_);
  }
  return Status::OK();
}

Status WriteAheadLog::Flush() {
  if (file_ == nullptr || std::fflush(file_) != 0) {
    return Status::IOError("WAL flush failed: " + path_);
  }
  return Status::OK();
}

Status WriteAheadLog::Reset() {
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) return Status::IOError("cannot truncate WAL: " + path_);
  return Status::OK();
}

StatusOr<std::vector<std::string>> WriteAheadLog::ReadAll(const std::string& path) {
  std::vector<std::string> records;
  uint64_t size = 0;
  ReadIntactPrefix(path, &records, &size);
  return records;
}

}  // namespace titant::kvstore
