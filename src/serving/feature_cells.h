#ifndef TITANT_SERVING_FEATURE_CELLS_H_
#define TITANT_SERVING_FEATURE_CELLS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"
#include "txn/types.h"

namespace titant::serving {

// Row keys and float-vector cell values of the online feature table, the
// two formats its writers (the daily upload and the streaming ingestor)
// and its reader (the Model Server) must agree on. Header-only, like
// serving/request.h, so src/streaming can include it without linking the
// serving library.

/// Row-key widths of the two key formats below (without NUL; the To-
/// variants write exactly this many bytes).
inline constexpr std::size_t kUserRowKeyLen = 11;  // "u%010u"
inline constexpr std::size_t kCityRowKeyLen = 6;   // "c%05u"

// Both key formatters are hand-rolled rather than snprintf'd: they run
// three-plus times per scored row on the batched read path, where format
// parsing is a measurable slice of the per-probe cost.

/// Allocation-free row keys for the serving hot path: format the key into
/// the caller's buffer (kUserRowKeyLen / kCityRowKeyLen bytes) and return
/// the view over it. The buffer must outlive every use of the view — the
/// score scratch sizes its key block once per batch before taking views.
/// Zero-padded so lexicographic order == numeric order, the HBase
/// convention for integer row keys.
inline std::string_view UserRowKeyTo(char* buf, txn::UserId user) {
  std::memset(buf, '0', kUserRowKeyLen);
  buf[0] = 'u';  // "u%010u"
  for (std::size_t pos = kUserRowKeyLen - 1; user != 0; --pos, user /= 10) {
    buf[pos] = static_cast<char>('0' + user % 10);
  }
  return std::string_view(buf, kUserRowKeyLen);
}

inline std::string_view CityRowKeyTo(char* buf, uint16_t city) {
  std::memset(buf, '0', kCityRowKeyLen);
  buf[0] = 'c';  // "c%05u"
  for (std::size_t pos = kCityRowKeyLen - 1; city != 0; --pos, city /= 10) {
    buf[pos] = static_cast<char>('0' + city % 10);
  }
  return std::string_view(buf, kCityRowKeyLen);
}

/// Row key of a user.
inline std::string UserRowKey(txn::UserId user) {
  char buf[kUserRowKeyLen];
  return std::string(UserRowKeyTo(buf, user));
}

/// Row key of a city in the "city" statistics rows.
inline std::string CityRowKey(uint16_t city) {
  char buf[kCityRowKeyLen];
  return std::string(CityRowKeyTo(buf, city));
}

/// Replaces `*out` with a float vector's cell value: the raw float32s,
/// no header. A warm `*out` keeps its capacity, so a reused cell
/// allocates nothing.
inline void EncodeFloatsTo(std::string* out, const float* values, std::size_t count) {
  out->clear();
  ByteWriter(out).Array(values, count);
}

inline std::string EncodeFloats(const float* values, std::size_t count) {
  std::string out;
  EncodeFloatsTo(&out, values, count);
  return out;
}

/// Decodes a cell value of exactly `expected` floats into `out`. Takes a
/// view so the zero-allocation read path decodes straight out of a
/// kvstore ReadPin arena.
inline Status DecodeFloats(std::string_view blob, std::size_t expected, float* out) {
  if (!CountIs(expected, sizeof(float), blob.size())) {
    return Status::Corruption("float blob size mismatch");
  }
  std::memcpy(out, blob.data(), blob.size());
  return Status::OK();
}

}  // namespace titant::serving

#endif  // TITANT_SERVING_FEATURE_CELLS_H_
