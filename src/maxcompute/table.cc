#include "maxcompute/table.h"

#include "common/bytes.h"

namespace titant::maxcompute {

namespace {

// v2 magic ("TTC2" little-endian).
constexpr uint32_t kMagicV2 = 0x32435454u;
constexpr uint32_t kMaxColumns = 1u << 16;

void WriteValue(ByteWriter& w, const Value& v) {
  w.U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      w.I64(v.AsInt());
      break;
    case ValueType::kDouble:
      w.F64(v.AsDouble());
      break;
    case ValueType::kBool:
      w.U8(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kString:
      w.Str(v.AsString());
      break;
  }
}

bool ReadValue(ByteReader& r, Value* out) {
  uint8_t type = 0;
  if (!r.U8(&type)) return false;
  switch (static_cast<ValueType>(type)) {
    case ValueType::kNull:
      *out = Value::Null();
      return true;
    case ValueType::kInt: {
      int64_t x = 0;
      if (!r.I64(&x)) return false;
      *out = Value(x);
      return true;
    }
    case ValueType::kDouble: {
      double x = 0.0;
      if (!r.F64(&x)) return false;
      *out = Value(x);
      return true;
    }
    case ValueType::kBool: {
      bool x = false;
      if (!r.Bool(&x)) return false;
      *out = Value(x);
      return true;
    }
    case ValueType::kString: {
      std::string_view x;
      if (!r.Str(&x)) return false;
      *out = Value(std::string(x));
      return true;
    }
  }
  return false;
}

Table::Lane LaneForType(ValueType t) {
  switch (t) {
    case ValueType::kInt:
      return Table::Lane::kI64;
    case ValueType::kDouble:
      return Table::Lane::kF64;
    case ValueType::kBool:
      return Table::Lane::kBool;
    case ValueType::kString:
      return Table::Lane::kStr;
    case ValueType::kNull:
      break;
  }
  return Table::Lane::kEmpty;
}

}  // namespace

// ---------------------------------------------------------------------------
// ColumnData

void Table::ColumnData::Reserve(std::size_t n) {
  nulls.reserve(n);
  switch (lane) {
    case Lane::kEmpty:
      break;
    case Lane::kI64:
      i64.reserve(n);
      break;
    case Lane::kF64:
      f64.reserve(n);
      break;
    case Lane::kBool:
      b8.reserve(n);
      break;
    case Lane::kStr:
      str.reserve(n);
      break;
    case Lane::kMixed:
      mixed.reserve(n);
      break;
  }
}

void Table::ColumnData::Clear() {
  lane = Lane::kEmpty;
  i64.clear();
  f64.clear();
  b8.clear();
  str.clear();
  mixed.clear();
  nulls.clear();
  any_null = false;
}

void Table::ColumnData::BackfillPayload() {
  const std::size_t n = nulls.size();
  switch (lane) {
    case Lane::kEmpty:
      break;
    case Lane::kI64:
      i64.resize(n);
      break;
    case Lane::kF64:
      f64.resize(n);
      break;
    case Lane::kBool:
      b8.resize(n);
      break;
    case Lane::kStr:
      str.resize(n);
      break;
    case Lane::kMixed:
      mixed.resize(n);
      break;
  }
}

void Table::ColumnData::PromoteToMixed() {
  if (lane == Lane::kMixed) return;
  const std::size_t n = nulls.size();
  std::vector<Value> boxed;
  boxed.reserve(n);
  for (std::size_t i = 0; i < n; ++i) boxed.push_back(ValueAt(i));
  i64.clear();
  f64.clear();
  b8.clear();
  str.clear();
  mixed = std::move(boxed);
  lane = Lane::kMixed;
}

void Table::ColumnData::AppendNull() {
  nulls.push_back(1);
  any_null = true;
  BackfillPayload();
}

void Table::ColumnData::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  const Lane want = LaneForType(v.type());
  if (lane == Lane::kEmpty) {
    lane = want;
    BackfillPayload();
  } else if (lane != want && lane != Lane::kMixed) {
    PromoteToMixed();
  }
  nulls.push_back(0);
  switch (lane) {
    case Lane::kI64:
      i64.push_back(v.AsInt());
      break;
    case Lane::kF64:
      f64.push_back(v.AsDouble());
      break;
    case Lane::kBool:
      b8.push_back(v.AsBool() ? 1 : 0);
      break;
    case Lane::kStr:
      str.push_back(v.AsString());
      break;
    case Lane::kMixed:
      mixed.push_back(v);
      break;
    case Lane::kEmpty:
      break;
  }
}

void Table::ColumnData::Append(Value&& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  const Lane want = LaneForType(v.type());
  if (lane == Lane::kEmpty) {
    lane = want;
    BackfillPayload();
  } else if (lane != want && lane != Lane::kMixed) {
    PromoteToMixed();
  }
  nulls.push_back(0);
  switch (lane) {
    case Lane::kStr:
      if (const std::string* s = v.string_or_null()) {
        str.push_back(*s);
        return;
      }
      str.push_back(v.AsString());
      return;
    case Lane::kMixed:
      mixed.push_back(std::move(v));
      return;
    case Lane::kI64:
      i64.push_back(v.AsInt());
      return;
    case Lane::kF64:
      f64.push_back(v.AsDouble());
      return;
    case Lane::kBool:
      b8.push_back(v.AsBool() ? 1 : 0);
      return;
    case Lane::kEmpty:
      return;
  }
}

void Table::ColumnData::AppendNulls(std::size_t n) {
  if (n == 0) return;
  nulls.insert(nulls.end(), n, 1);
  any_null = true;
  BackfillPayload();
}

void Table::ColumnData::AppendI64(const int64_t* v, const uint8_t* null_mask,
                                  std::size_t n) {
  if (n == 0) return;
  if (lane == Lane::kEmpty && nulls.empty()) lane = Lane::kI64;
  if (lane != Lane::kI64 && lane != Lane::kEmpty) {
    for (std::size_t k = 0; k < n; ++k) {
      if (null_mask != nullptr && null_mask[k]) {
        AppendNull();
      } else {
        Append(Value(v[k]));
      }
    }
    return;
  }
  if (lane == Lane::kEmpty) {
    // All-null column so far; adopt the lane and backfill.
    lane = Lane::kI64;
    BackfillPayload();
  }
  i64.insert(i64.end(), v, v + n);
  if (null_mask == nullptr) {
    nulls.insert(nulls.end(), n, 0);
  } else {
    nulls.insert(nulls.end(), null_mask, null_mask + n);
    for (std::size_t k = 0; k < n; ++k) any_null = any_null || null_mask[k];
  }
}

void Table::ColumnData::AppendF64(const double* v, const uint8_t* null_mask,
                                  std::size_t n) {
  if (n == 0) return;
  if (lane == Lane::kEmpty && nulls.empty()) lane = Lane::kF64;
  if (lane != Lane::kF64 && lane != Lane::kEmpty) {
    for (std::size_t k = 0; k < n; ++k) {
      if (null_mask != nullptr && null_mask[k]) {
        AppendNull();
      } else {
        Append(Value(v[k]));
      }
    }
    return;
  }
  if (lane == Lane::kEmpty) {
    lane = Lane::kF64;
    BackfillPayload();
  }
  f64.insert(f64.end(), v, v + n);
  if (null_mask == nullptr) {
    nulls.insert(nulls.end(), n, 0);
  } else {
    nulls.insert(nulls.end(), null_mask, null_mask + n);
    for (std::size_t k = 0; k < n; ++k) any_null = any_null || null_mask[k];
  }
}

void Table::ColumnData::AppendBool(const uint8_t* v, const uint8_t* null_mask,
                                   std::size_t n) {
  if (n == 0) return;
  if (lane == Lane::kEmpty && nulls.empty()) lane = Lane::kBool;
  if (lane != Lane::kBool && lane != Lane::kEmpty) {
    for (std::size_t k = 0; k < n; ++k) {
      if (null_mask != nullptr && null_mask[k]) {
        AppendNull();
      } else {
        Append(Value(v[k] != 0));
      }
    }
    return;
  }
  if (lane == Lane::kEmpty) {
    lane = Lane::kBool;
    BackfillPayload();
  }
  b8.insert(b8.end(), v, v + n);
  if (null_mask == nullptr) {
    nulls.insert(nulls.end(), n, 0);
  } else {
    nulls.insert(nulls.end(), null_mask, null_mask + n);
    for (std::size_t k = 0; k < n; ++k) any_null = any_null || null_mask[k];
  }
}

void Table::ColumnData::AppendStrings(const std::string* const* v,
                                      const uint8_t* null_mask, std::size_t n) {
  if (n == 0) return;
  if (lane == Lane::kEmpty && nulls.empty()) lane = Lane::kStr;
  if (lane != Lane::kStr && lane != Lane::kEmpty) {
    for (std::size_t k = 0; k < n; ++k) {
      if ((null_mask != nullptr && null_mask[k]) || v[k] == nullptr) {
        AppendNull();
      } else {
        Append(Value(*v[k]));
      }
    }
    return;
  }
  if (lane == Lane::kEmpty) {
    lane = Lane::kStr;
    BackfillPayload();
  }
  str.reserve(str.size() + n);
  for (std::size_t k = 0; k < n; ++k) {
    const bool null = (null_mask != nullptr && null_mask[k]) || v[k] == nullptr;
    str.emplace_back(null ? std::string() : *v[k]);
    nulls.push_back(null ? 1 : 0);
    any_null = any_null || null;
  }
}

void Table::ColumnData::AppendValues(const Value* v, const uint8_t* null_mask,
                                     std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    if (null_mask != nullptr && null_mask[k]) {
      AppendNull();
    } else {
      Append(v[k]);
    }
  }
}

void Table::ColumnData::AppendRange(const ColumnData& src, std::size_t begin,
                                    std::size_t end) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const uint8_t* mask = src.any_null ? src.nulls.data() + begin : nullptr;
  switch (src.lane) {
    case Lane::kEmpty:
      AppendNulls(n);
      return;
    case Lane::kI64:
      AppendI64(src.i64.data() + begin, mask, n);
      return;
    case Lane::kF64:
      AppendF64(src.f64.data() + begin, mask, n);
      return;
    case Lane::kBool:
      AppendBool(src.b8.data() + begin, mask, n);
      return;
    case Lane::kStr:
      if (lane == Lane::kEmpty && nulls.empty()) lane = Lane::kStr;
      if (lane == Lane::kStr || lane == Lane::kEmpty) {
        if (lane == Lane::kEmpty) {
          lane = Lane::kStr;
          BackfillPayload();
        }
        str.insert(str.end(), src.str.begin() + static_cast<std::ptrdiff_t>(begin),
                   src.str.begin() + static_cast<std::ptrdiff_t>(end));
        nulls.insert(nulls.end(), src.nulls.begin() + static_cast<std::ptrdiff_t>(begin),
                     src.nulls.begin() + static_cast<std::ptrdiff_t>(end));
        if (src.any_null) {
          for (std::size_t k = begin; k < end; ++k) any_null = any_null || src.nulls[k];
        }
        return;
      }
      break;
    case Lane::kMixed:
      AppendValues(src.mixed.data() + begin, mask, n);
      return;
  }
  for (std::size_t k = begin; k < end; ++k) Append(src.ValueAt(k));
}

void Table::ColumnData::Truncate(std::size_t n) {
  if (n >= nulls.size()) return;
  nulls.resize(n);
  switch (lane) {
    case Lane::kEmpty:
      break;
    case Lane::kI64:
      i64.resize(n);
      break;
    case Lane::kF64:
      f64.resize(n);
      break;
    case Lane::kBool:
      b8.resize(n);
      break;
    case Lane::kStr:
      str.resize(n);
      break;
    case Lane::kMixed:
      mixed.resize(n);
      break;
  }
}

Value Table::ColumnData::ValueAt(std::size_t i) const {
  if (nulls[i]) return Value::Null();
  switch (lane) {
    case Lane::kEmpty:
      return Value::Null();
    case Lane::kI64:
      return Value(i64[i]);
    case Lane::kF64:
      return Value(f64[i]);
    case Lane::kBool:
      return Value(b8[i] != 0);
    case Lane::kStr:
      return Value(str[i]);
    case Lane::kMixed:
      return mixed[i];
  }
  return Value::Null();
}

// ---------------------------------------------------------------------------
// Table

Status Table::Append(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row width does not match schema " + schema_.ToString());
  }
  for (std::size_t c = 0; c < row.size(); ++c) cols_[c].Append(std::move(row[c]));
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendAll(std::vector<Row> rows) {
  for (auto& row : rows) TITANT_RETURN_IF_ERROR(Append(std::move(row)));
  return Status::OK();
}

Status Table::AdoptColumns(std::vector<ColumnData> cols) {
  if (cols.size() != schema_.num_columns()) {
    return Status::InvalidArgument("column count does not match schema " +
                                   schema_.ToString());
  }
  const std::size_t n = cols.empty() ? 0 : cols.front().size();
  for (const auto& col : cols) {
    if (col.size() != n) return Status::InvalidArgument("ragged columns");
  }
  cols_ = std::move(cols);
  num_rows_ = n;
  return Status::OK();
}

void Table::Truncate(std::size_t n) {
  if (n >= num_rows_) return;
  for (auto& col : cols_) col.Truncate(n);
  num_rows_ = n;
}

Row Table::MaterializeRow(std::size_t i) const {
  Row out(cols_.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) out[c] = cols_[c].ValueAt(i);
  return out;
}

// ---------------------------------------------------------------------------
// Serialization
//
// v2 layout (all integers little-endian):
//   u32 magic "TTC2"
//   u32 ncols;  per column: u32-prefixed name, u8 declared type
//   u32 nrows
//   per column:
//     u8 lane, u8 has_nulls
//     if has_nulls: packed null bitmap, (nrows+7)/8 bytes (bit i = row i)
//     payload: kI64/kF64 raw 8B per row; kBool 1B per row; kStr u32 end
//       offsets per row then u32 blob size then the blob; kMixed one
//       tagged Value per row; kEmpty nothing.

std::string Table::Serialize() const {
  std::string out;
  ByteWriter w(&out);
  w.U32(kMagicV2);
  w.U32(static_cast<uint32_t>(schema_.num_columns()));
  for (const auto& col : schema_.columns()) {
    w.Str(col.name);
    w.U8(static_cast<uint8_t>(col.type));
  }
  w.U32(static_cast<uint32_t>(num_rows_));
  const std::size_t n = num_rows_;
  for (const auto& col : cols_) {
    w.U8(static_cast<uint8_t>(col.lane));
    w.U8(col.any_null ? 1 : 0);
    if (col.any_null) {
      std::string bitmap((n + 7) / 8, '\0');
      for (std::size_t i = 0; i < n; ++i) {
        if (col.nulls[i]) bitmap[i / 8] |= static_cast<char>(1u << (i % 8));
      }
      w.Bytes(bitmap);
    }
    switch (col.lane) {
      case Lane::kEmpty:
        break;
      case Lane::kI64:
        w.Array(col.i64.data(), n);
        break;
      case Lane::kF64:
        w.Array(col.f64.data(), n);
        break;
      case Lane::kBool:
        w.Array(col.b8.data(), n);
        break;
      case Lane::kStr: {
        uint32_t off = 0;
        for (std::size_t i = 0; i < n; ++i) {
          off += static_cast<uint32_t>(col.str[i].size());
          w.U32(off);
        }
        w.U32(off);
        for (std::size_t i = 0; i < n; ++i) w.Bytes(col.str[i]);
        break;
      }
      case Lane::kMixed:
        for (std::size_t i = 0; i < n; ++i) {
          WriteValue(w, col.nulls[i] ? Value::Null() : col.mixed[i]);
        }
        break;
    }
  }
  return out;
}

namespace {

/// Smallest schema entry: an empty name's length prefix and the type byte.
constexpr std::size_t kMinColumnBytes = sizeof(uint32_t) + 1;

StatusOr<Schema> ParseSchema(ByteReader& r, uint32_t num_columns) {
  std::vector<Column> columns(num_columns);
  for (auto& col : columns) {
    std::string_view name;
    uint8_t t = 0;
    if (!r.Str(&name) || !r.U8(&t)) return Status::DataLoss("table blob: truncated schema");
    if (t > static_cast<uint8_t>(ValueType::kBool)) {
      return Status::DataLoss("table blob: bad column type");
    }
    col.name = name;
    col.type = static_cast<ValueType>(t);
  }
  return Schema(std::move(columns));
}

StatusOr<Table> DeserializeV2(ByteReader& r) {
  uint32_t num_columns = 0;
  if (!r.U32(&num_columns) || num_columns > kMaxColumns || !r.Fits(num_columns, kMinColumnBytes)) {
    return Status::DataLoss("table blob v2: bad column count");
  }
  auto schema = ParseSchema(r, num_columns);
  TITANT_RETURN_IF_ERROR(schema.status());
  Table table{std::move(*schema)};
  uint32_t num_rows = 0;
  if (!r.U32(&num_rows)) {
    return Status::DataLoss("table blob v2: row count");
  }
  if (num_columns == 0 && num_rows > 0) {
    return Status::DataLoss("table blob v2: rows without columns");
  }
  // A populated column costs at least its null bitmap (the all-null kEmpty
  // lane carries no payload), so n/8 bytes per column bounds any honest row
  // count — refuse larger claims before allocating null masks.
  if (num_columns > 0 && num_rows > 0 && !r.Fits(num_rows / 8, num_columns)) {
    return Status::DataLoss("table blob v2: row count past buffer");
  }
  const std::size_t n = num_rows;
  std::vector<Table::ColumnData> cols(num_columns);
  for (auto& col : cols) {
    uint8_t lane_byte = 0, has_nulls = 0;
    if (!r.U8(&lane_byte) || !r.U8(&has_nulls)) {
      return Status::DataLoss("table blob v2: truncated column header");
    }
    if (lane_byte > static_cast<uint8_t>(Table::Lane::kMixed) || has_nulls > 1) {
      return Status::DataLoss("table blob v2: bad column header");
    }
    col.lane = static_cast<Table::Lane>(lane_byte);
    col.nulls.assign(n, col.lane == Table::Lane::kEmpty ? 1 : 0);
    col.any_null = has_nulls != 0 || (col.lane == Table::Lane::kEmpty && n > 0);
    if (has_nulls) {
      std::string_view bitmap;
      if (!r.Bytes((n + 7) / 8, &bitmap)) {
        return Status::DataLoss("table blob v2: truncated null bitmap");
      }
      for (std::size_t i = 0; i < n; ++i) {
        col.nulls[i] = (static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1u;
      }
    }
    switch (col.lane) {
      case Table::Lane::kEmpty:
        break;
      case Table::Lane::kI64:
        if (!r.Array(n, &col.i64)) return Status::DataLoss("table blob v2: truncated int64 lane");
        break;
      case Table::Lane::kF64:
        if (!r.Array(n, &col.f64)) return Status::DataLoss("table blob v2: truncated double lane");
        break;
      case Table::Lane::kBool:
        if (!r.Array(n, &col.b8)) return Status::DataLoss("table blob v2: truncated bool lane");
        break;
      case Table::Lane::kStr: {
        std::vector<uint32_t> ends;
        uint32_t blob_size = 0;
        if (!r.Array(n, &ends) || !r.U32(&blob_size)) {
          return Status::DataLoss("table blob v2: truncated string offsets");
        }
        uint32_t prev = 0;
        for (const uint32_t end : ends) {
          if (end < prev) return Status::DataLoss("table blob v2: string offsets not monotonic");
          prev = end;
        }
        std::string_view chars;
        if (blob_size != prev || !r.Bytes(blob_size, &chars)) {
          return Status::DataLoss("table blob v2: string payload past buffer");
        }
        col.str.resize(n);
        uint32_t start = 0;
        for (std::size_t i = 0; i < n; ++i) {
          col.str[i].assign(chars.substr(start, ends[i] - start));
          start = ends[i];
        }
        break;
      }
      case Table::Lane::kMixed: {
        if (!r.Fits(n, 1)) return Status::DataLoss("table blob v2: truncated mixed lane");
        col.mixed.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          if (!ReadValue(r, &col.mixed[i])) {
            return Status::DataLoss("table blob v2: truncated mixed value");
          }
          if (col.mixed[i].is_null() && !col.nulls[i]) {
            return Status::DataLoss("table blob v2: null cell outside bitmap");
          }
        }
        break;
      }
    }
  }
  if (!r.done()) return Status::DataLoss("table blob v2: trailing bytes");
  TITANT_RETURN_IF_ERROR(table.AdoptColumns(std::move(cols)));
  return table;
}

}  // namespace

StatusOr<Table> Table::Deserialize(const std::string& blob) {
  ByteReader r(blob);
  uint32_t magic = 0;
  if (!r.U32(&magic)) return Status::DataLoss("table blob: truncated header");
  if (magic != kMagicV2) return Status::DataLoss("table blob: bad magic");
  return DeserializeV2(r);
}

}  // namespace titant::maxcompute
