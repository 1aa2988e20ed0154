#ifndef TITANT_NRL_EMBEDDING_H_
#define TITANT_NRL_EMBEDDING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace titant::nrl {

/// A dense |V| x d matrix of learned node representations (row i is the
/// embedding of user/node i). This is the artifact the offline pipeline
/// uploads to the online feature store.
class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;
  EmbeddingMatrix(std::size_t rows, int dim)
      : rows_(rows), dim_(dim), data_(rows * static_cast<std::size_t>(dim), 0.0f) {}

  std::size_t rows() const { return rows_; }
  int dim() const { return dim_; }

  float* Row(std::size_t i) { return data_.data() + i * static_cast<std::size_t>(dim_); }
  const float* Row(std::size_t i) const {
    return data_.data() + i * static_cast<std::size_t>(dim_);
  }

  /// Copies row `i` into `out` (resized to dim()).
  void CopyRow(std::size_t i, std::vector<float>* out) const {
    out->assign(Row(i), Row(i) + dim_);
  }

  /// L2-normalizes every row in place (rows of norm 0 are left untouched).
  void NormalizeRows();

  /// Cosine similarity between rows `a` and `b` (0 if either has norm 0).
  float Cosine(std::size_t a, std::size_t b) const;

  /// Serializes to a compact binary blob (magic + dims + float32 data).
  std::string Serialize() const;

  /// Parses a blob produced by Serialize(). Returns Corruption on a
  /// malformed blob.
  static StatusOr<EmbeddingMatrix> Deserialize(std::string_view blob);

  /// File round-trip helpers used by the offline/online hand-off.
  Status SaveTo(const std::string& path) const;
  static StatusOr<EmbeddingMatrix> LoadFrom(const std::string& path);

 private:
  std::size_t rows_ = 0;
  int dim_ = 0;
  std::vector<float> data_;
};

}  // namespace titant::nrl

#endif  // TITANT_NRL_EMBEDDING_H_
