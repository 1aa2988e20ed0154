#ifndef TITANT_ML_DISCRETIZER_H_
#define TITANT_ML_DISCRETIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "ml/dataset.h"

namespace titant {
class ThreadPool;
}  // namespace titant

namespace titant::ml {

/// Equal-frequency (quantile) discretizer: fits per-feature bin boundaries
/// on training data and maps raw values to bin indices. This is the
/// preprocessing the paper applies before ID3/C5.0 and LR (§5.1: LR's best
/// bin size is 200) and the pre-binning stage of the histogram GBDT.
class Discretizer {
 public:
  /// Fits boundaries with up to `max_bins` bins per feature (>= 2).
  /// Features with fewer distinct values get fewer bins. With a `pool`,
  /// features are fitted in parallel, one task each; the cuts do not
  /// depend on it.
  static StatusOr<Discretizer> Fit(const DataMatrix& data, int max_bins,
                                   ThreadPool* pool = nullptr);

  /// Number of bins actually used for feature `f` (>= 1).
  int NumBins(int feature) const {
    return static_cast<int>(boundaries_[static_cast<std::size_t>(feature)].size()) + 1;
  }

  int num_features() const { return static_cast<int>(boundaries_.size()); }

  /// Largest NumBins over all features.
  int MaxBins() const;

  /// Bin index of `value` for feature `f`: the number of boundaries <= value.
  int BinOf(int feature, float value) const;

  /// Feature `f`'s cut points, strictly increasing (NumBins(f) - 1 of them).
  const std::vector<float>& Cuts(int feature) const {
    return boundaries_[static_cast<std::size_t>(feature)];
  }

  /// Transforms a raw row (num_features values) into bin indices.
  void TransformRow(const float* row, uint16_t* bins_out) const;

  /// Transforms a whole matrix into a row-major bin-index matrix.
  std::vector<uint16_t> Transform(const DataMatrix& data) const;

  /// Transforms a whole matrix into a column-major bin-index matrix:
  /// feature f's bins of every row at [f * num_rows, (f + 1) * num_rows).
  /// With a `pool`, one feature per task.
  std::vector<uint16_t> TransformColumns(const DataMatrix& data, ThreadPool* pool = nullptr) const;

  /// Total one-hot width: sum over features of NumBins.
  std::size_t OneHotWidth() const;

  /// Offset of feature `f`'s first one-hot column.
  std::size_t OneHotOffset(int feature) const {
    return onehot_offsets_[static_cast<std::size_t>(feature)];
  }

  /// Serialization for model files. Deserialize rejects a cut list that
  /// does not strictly increase (a NaN cut included): Fit never writes one.
  std::string Serialize() const;
  static StatusOr<Discretizer> Deserialize(std::string_view blob);

 private:
  // boundaries_[f] is a sorted list of right-exclusive cut points.
  std::vector<std::vector<float>> boundaries_;
  std::vector<std::size_t> onehot_offsets_;

  void RebuildOffsets();
};

}  // namespace titant::ml

#endif  // TITANT_ML_DISCRETIZER_H_
