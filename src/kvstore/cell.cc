#include "kvstore/cell.h"

namespace titant::kvstore {

void EncodeCellTo(std::string* out, const CellKey& key, bool tombstone, std::string_view value) {
  ByteWriter w(out);
  w.Str(key.row);
  w.Str(key.family);
  w.Str(key.qualifier);
  w.U64(key.version);
  w.U8(tombstone ? 1 : 0);
  w.Str(value);
}

bool DecodeCell(ByteReader* r, Cell* out) {
  CellViewRec rec;
  if (!DecodeCellView(r, &rec)) return false;
  out->key.row.assign(rec.row);
  out->key.family.assign(rec.family);
  out->key.qualifier.assign(rec.qualifier);
  out->key.version = rec.version;
  out->tombstone = rec.tombstone;
  out->value.assign(rec.value);
  return true;
}

}  // namespace titant::kvstore
