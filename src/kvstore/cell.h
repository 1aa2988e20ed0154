#ifndef TITANT_KVSTORE_CELL_H_
#define TITANT_KVSTORE_CELL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

#include "common/bytes.h"

namespace titant::kvstore {

/// HBase-style cell coordinate: row key -> column family -> qualifier ->
/// version (timestamp). Higher versions are newer; reads return the
/// newest cell with version <= the requested snapshot version.
struct CellKey {
  std::string row;
  std::string family;
  std::string qualifier;
  uint64_t version = 0;

  /// Storage order: (row, family, qualifier) ascending, version DESCENDING
  /// so the newest version of a column is encountered first in scans.
  friend bool operator<(const CellKey& a, const CellKey& b) {
    return std::tie(a.row, a.family, a.qualifier) < std::tie(b.row, b.family, b.qualifier) ||
           (std::tie(a.row, a.family, a.qualifier) == std::tie(b.row, b.family, b.qualifier) &&
            a.version > b.version);
  }
  friend bool operator==(const CellKey& a, const CellKey& b) {
    return a.row == b.row && a.family == b.family && a.qualifier == b.qualifier &&
           a.version == b.version;
  }
};

/// A stored cell: coordinate plus value. `tombstone` marks a deletion
/// (shadows older versions until compaction drops them).
struct Cell {
  CellKey key;
  std::string value;
  bool tombstone = false;
};

/// A decoded cell whose strings alias the encoded record (no copies).
/// Views are valid only while the backing buffer is: for an SSTable that
/// is the table's lifetime, for a WAL record the record string. The
/// zero-allocation read path (AliHBase::MultiGetView) decodes with this
/// form and copies just the winning value into the caller's pin arena.
struct CellViewRec {
  std::string_view row;
  std::string_view family;
  std::string_view qualifier;
  uint64_t version = 0;
  bool tombstone = false;
  std::string_view value;
};

// The cell record, the one encoding of a cell: WAL records, SSTable data
// blocks and index keys, and the wire's kPutBatch, kReplAppend and
// kReplCatchup payloads all carry it. Row, family and qualifier as
// u32-length-prefixed strings, the u64 version, a u8 tombstone flag, and
// the u32-length-prefixed value (common/bytes.h; little-endian).

/// Size of the smallest record: three empty strings, the version, the
/// flag and an empty value. Lets a decoder refuse a hostile record count
/// before it sizes anything by it.
inline constexpr std::size_t kCellMinBytes = 4 + 4 + 4 + 8 + 1 + 4;

/// Appends the record of (key, tombstone, value) to `*out`.
void EncodeCellTo(std::string* out, const CellKey& key, bool tombstone, std::string_view value);

/// Reads one record from `r` as views of its bytes; false on a truncated
/// record. Inline: SSTable::GetView runs it once per record it scans.
inline bool DecodeCellView(ByteReader* r, CellViewRec* out) {
  return r->Str(&out->row) && r->Str(&out->family) && r->Str(&out->qualifier) &&
         r->U64(&out->version) && r->Bool(&out->tombstone) && r->Str(&out->value);
}

/// DecodeCellView plus a copy into `out`, whose strings keep their
/// capacity across calls.
bool DecodeCell(ByteReader* r, Cell* out);

}  // namespace titant::kvstore

#endif  // TITANT_KVSTORE_CELL_H_
