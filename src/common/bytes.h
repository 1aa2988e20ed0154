#ifndef TITANT_COMMON_BYTES_H_
#define TITANT_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace titant {

// The byte codec every binary format in the project is written with: wire
// frames and payloads, the store's cell record, the SSTable footer, table
// blobs, model files and embedding files. Fixed-width fields are stored
// little-endian in host order, so every format is little-endian by
// contract, and a build for another byte order fails here rather than
// writing files no other build can read.
static_assert(std::endian::native == std::endian::little,
              "binary formats are little-endian and written in host order");

/// True when `n` items of `w` bytes each fit in `bytes`. The division form
/// never multiplies a decoded count, so no count can wrap the product back
/// under the buffer size. Every allocation a decoded count sizes is
/// checked with this first.
inline bool CountFits(uint64_t n, std::size_t w, std::size_t bytes) {
  return w == 0 || n <= bytes / w;
}

/// True when `bytes` holds exactly `n` items of `w` bytes each, checked
/// the same way (zero-width items take no bytes).
inline bool CountIs(uint64_t n, std::size_t w, std::size_t bytes) {
  return w == 0 ? bytes == 0 : bytes % w == 0 && bytes / w == n;
}

/// Appends fields to a caller-owned buffer, which a hot path reuses across
/// messages so that a warm encode allocates nothing.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void I32(int32_t v) { Put(v); }
  void I64(int64_t v) { Put(v); }
  void F32(float v) { Put(v); }
  void F64(double v) { Put(v); }
  /// u32 length prefix, then the bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }
  /// Raw bytes, no length prefix.
  void Bytes(std::string_view s) { out_->append(s); }
  /// `n` items of a trivially copyable type as their raw bytes (node
  /// arrays, table lanes, embedding rows), no count prefix.
  template <typename T>
  void Array(const T* items, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_->append(reinterpret_cast<const char*>(items), n * sizeof(T));
  }

 private:
  template <typename T>
  void Put(T v) {
    out_->append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  std::string* out_;
};

/// Bounds-checked reads over a view. A read that would pass the end
/// returns false and consumes nothing; each format turns that into its own
/// Status. Strings and byte runs come back as views of the input.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }
  /// True when `n` items of `w` bytes fit in the unread bytes.
  bool Fits(uint64_t n, std::size_t w) const { return CountFits(n, w, remaining()); }

  bool U8(uint8_t* v) { return Get(v); }
  bool U16(uint16_t* v) { return Get(v); }
  bool U32(uint32_t* v) { return Get(v); }
  bool U64(uint64_t* v) { return Get(v); }
  bool I32(int32_t* v) { return Get(v); }
  bool I64(int64_t* v) { return Get(v); }
  bool F32(float* v) { return Get(v); }
  bool F64(double* v) { return Get(v); }
  /// A u8 flag; any non-zero byte reads as true.
  bool Bool(bool* v) {
    uint8_t b = 0;
    if (!Get(&b)) return false;
    *v = b != 0;
    return true;
  }
  /// A u32-length-prefixed string.
  bool Str(std::string_view* v) {
    uint32_t n = 0;
    if (remaining() < sizeof(n)) return false;
    std::memcpy(&n, p_, sizeof(n));
    if (remaining() - sizeof(n) < n) return false;
    *v = std::string_view(p_ + sizeof(n), n);
    p_ += sizeof(n) + n;
    return true;
  }
  /// The next `n` raw bytes.
  bool Bytes(uint64_t n, std::string_view* v) {
    if (n > remaining()) return false;
    *v = std::string_view(p_, static_cast<std::size_t>(n));
    p_ += n;
    return true;
  }
  /// Replaces `*items` with the next `n` items of a trivially copyable
  /// type. The count is checked before the vector is sized.
  template <typename T>
  bool Array(uint64_t n, std::vector<T>* items) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Fits(n, sizeof(T))) return false;
    items->resize(static_cast<std::size_t>(n));
    if (n > 0) std::memcpy(items->data(), p_, items->size() * sizeof(T));
    p_ += items->size() * sizeof(T);
    return true;
  }
  /// Consumes and returns every unread byte.
  std::string_view Rest() {
    const std::string_view rest(p_, remaining());
    p_ = end_;
    return rest;
  }

 private:
  template <typename T>
  bool Get(T* v) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(v, p_, sizeof(T));
    p_ += sizeof(T);
    return true;
  }

  const char* p_;
  const char* end_;
};

}  // namespace titant

#endif  // TITANT_COMMON_BYTES_H_
