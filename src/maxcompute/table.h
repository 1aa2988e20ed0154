#ifndef TITANT_MAXCOMPUTE_TABLE_H_
#define TITANT_MAXCOMPUTE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "maxcompute/value.h"

namespace titant::maxcompute {

/// An in-memory batch table (materialized on Pangu when persisted).
///
/// Storage is column-major: each column is a typed lane (int64 / double /
/// bool / string) plus a byte-per-row null mask, with a generic Value lane
/// for columns that mix types (MaxCompute SQL is dynamically typed at
/// evaluation, so a column built row-by-row may hold ints in one row and
/// strings in the next — such columns promote to the mixed lane and keep
/// the exact per-cell types). Row access is a cheap `RowView` materializer
/// kept for compatibility and for the scalar oracle.
class Table {
 public:
  /// Physical representation of one column's payload.
  enum class Lane : uint8_t {
    kEmpty = 0,  // no non-null value seen yet; every row is NULL
    kI64 = 1,
    kF64 = 2,
    kBool = 3,
    kStr = 4,
    kMixed = 5,  // boxed Values, one per row (heterogeneous column)
  };

  /// One column of data: an active typed lane sized to the row count, plus
  /// the null mask (1 byte per row, 1 = SQL NULL; typed lanes hold a
  /// default payload in null slots). Exposed publicly so the vectorized
  /// executor can fill result lanes directly and borrow input slices
  /// zero-copy — borrowed slices are read-only views whose lifetime is
  /// bounded by the owning Table (see DESIGN.md §14 for ownership rules).
  class ColumnData {
   public:
    Lane lane = Lane::kEmpty;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<uint8_t> b8;
    std::vector<std::string> str;
    std::vector<Value> mixed;
    std::vector<uint8_t> nulls;  // 1 byte per row; 1 = NULL
    bool any_null = false;

    std::size_t size() const { return nulls.size(); }
    void Reserve(std::size_t n);
    void Clear();

    /// Appends one cell, adopting the lane on first non-null value and
    /// promoting to the mixed lane when a later value disagrees.
    void Append(const Value& v);
    void Append(Value&& v);
    void AppendNull();

    /// Typed bulk appends used by the executor's lane-wise output paths.
    /// `null_mask` may be nullptr (no nulls in the span). If the column
    /// already holds a different lane, falls back to per-cell Append.
    void AppendI64(const int64_t* v, const uint8_t* null_mask, std::size_t n);
    void AppendF64(const double* v, const uint8_t* null_mask, std::size_t n);
    void AppendBool(const uint8_t* v, const uint8_t* null_mask, std::size_t n);
    void AppendStrings(const std::string* const* v, const uint8_t* null_mask,
                       std::size_t n);
    void AppendValues(const Value* v, const uint8_t* null_mask, std::size_t n);
    void AppendNulls(std::size_t n);

    /// Splices rows [begin, end) of `src` onto this column (partition
    /// merge). Lane-matched ranges copy flat; mismatches box per cell.
    void AppendRange(const ColumnData& src, std::size_t begin, std::size_t end);

    /// Drops rows past `n` (LIMIT).
    void Truncate(std::size_t n);

    /// Boxes cell `i` into a Value (copies string payloads).
    Value ValueAt(std::size_t i) const;
    bool IsNull(std::size_t i) const { return nulls[i] != 0; }

    /// Rewrites the column as a mixed (boxed) lane. Idempotent.
    void PromoteToMixed();

   private:
    // Resizes the active lane's payload vector to match `nulls` (used when
    // the lane is adopted after nulls have accumulated).
    void BackfillPayload();
  };

  Table() = default;
  explicit Table(Schema schema)
      : schema_(std::move(schema)), cols_(schema_.num_columns()) {}

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return cols_.size(); }

  const ColumnData& column_data(std::size_t c) const { return cols_[c]; }
  ColumnData& mutable_column_data(std::size_t c) { return cols_[c]; }

  /// Appends a row; the width must match the schema (types are not
  /// coerced — MaxCompute SQL is dynamically typed at evaluation).
  Status Append(Row row);

  /// Bulk append.
  Status AppendAll(std::vector<Row> rows);

  /// Adopts pre-filled columns as this table's data; every column must
  /// match the schema width and share one row count.
  Status AdoptColumns(std::vector<ColumnData> cols);

  /// Drops rows past `n` in every column.
  void Truncate(std::size_t n);

  /// A cheap non-owning row accessor: `table.row(i)[c]` boxes one cell on
  /// demand. Valid only while the Table outlives it and is not mutated.
  class RowView {
   public:
    Value operator[](std::size_t c) const { return table_->cols_[c].ValueAt(i_); }
    std::size_t size() const { return table_->cols_.size(); }
    bool IsNull(std::size_t c) const { return table_->cols_[c].IsNull(i_); }

   private:
    friend class Table;
    RowView(const Table* table, std::size_t i) : table_(table), i_(i) {}
    const Table* table_;
    std::size_t i_;
  };

  RowView row(std::size_t i) const { return RowView(this, i); }

  /// Boxes row `i` into a heap Row (schema-width vector of Values).
  Row MaterializeRow(std::size_t i) const;

  /// Serializes schema + columns to the columnar v2 binary blob (Pangu
  /// format; magic "TTC2", packed null bitmaps, flat typed payloads).
  std::string Serialize() const;

  /// Parses a blob written by Serialize. Hostile blobs (no "TTC2" magic,
  /// truncated headers, counts past the buffer, string lengths out of
  /// bounds) return DataLoss without reading out of bounds.
  static StatusOr<Table> Deserialize(const std::string& blob);

 private:
  Schema schema_;
  std::vector<ColumnData> cols_;
  std::size_t num_rows_ = 0;
};

}  // namespace titant::maxcompute

#endif  // TITANT_MAXCOMPUTE_TABLE_H_
