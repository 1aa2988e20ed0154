#include "ml/discretizer.h"

#include <algorithm>
#include <cmath>

#include "common/bytes.h"
#include "common/thread_pool.h"

namespace titant::ml {

StatusOr<Discretizer> Discretizer::Fit(const DataMatrix& data, int max_bins, ThreadPool* pool) {
  if (max_bins < 2) return Status::InvalidArgument("max_bins must be >= 2");
  if (data.num_rows() == 0) return Status::InvalidArgument("cannot fit on empty data");

  Discretizer disc;
  disc.boundaries_.resize(static_cast<std::size_t>(data.num_cols()));

  auto fit_feature = [&](std::size_t f) {
    std::vector<float> column(data.num_rows());
    for (std::size_t r = 0; r < data.num_rows(); ++r) column[r] = data.At(r, static_cast<int>(f));
    std::sort(column.begin(), column.end());

    auto& cuts = disc.boundaries_[f];
    const std::size_t n = column.size();
    for (int b = 1; b < max_bins; ++b) {
      const std::size_t idx = n * static_cast<std::size_t>(b) / static_cast<std::size_t>(max_bins);
      const float cut = column[std::min(idx, n - 1)];
      // Skip duplicate cut points (low-cardinality features shrink).
      if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
    }
    // A cut equal to the global minimum creates an empty first bin; drop it.
    if (!cuts.empty() && cuts.front() <= column.front()) cuts.erase(cuts.begin());
  };
  if (pool != nullptr) {
    pool->ParallelFor(disc.boundaries_.size(), fit_feature);
  } else {
    for (std::size_t f = 0; f < disc.boundaries_.size(); ++f) fit_feature(f);
  }
  disc.RebuildOffsets();
  return disc;
}

int Discretizer::MaxBins() const {
  int best = 1;
  for (int f = 0; f < num_features(); ++f) best = std::max(best, NumBins(f));
  return best;
}

int Discretizer::BinOf(int feature, float value) const {
  const auto& cuts = boundaries_[static_cast<std::size_t>(feature)];
  // Bin = count of cut points <= value (value < cuts[0] -> bin 0, etc).
  return static_cast<int>(std::upper_bound(cuts.begin(), cuts.end(), value) - cuts.begin());
}

void Discretizer::TransformRow(const float* row, uint16_t* bins_out) const {
  for (int f = 0; f < num_features(); ++f) {
    bins_out[f] = static_cast<uint16_t>(BinOf(f, row[f]));
  }
}

std::vector<uint16_t> Discretizer::Transform(const DataMatrix& data) const {
  std::vector<uint16_t> out(data.num_rows() * static_cast<std::size_t>(num_features()));
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    TransformRow(data.Row(r), out.data() + r * static_cast<std::size_t>(num_features()));
  }
  return out;
}

std::vector<uint16_t> Discretizer::TransformColumns(const DataMatrix& data,
                                                    ThreadPool* pool) const {
  const std::size_t rows = data.num_rows();
  std::vector<uint16_t> out(rows * static_cast<std::size_t>(num_features()));
  auto transform_column = [&](std::size_t f) {
    const int feature = static_cast<int>(f);
    uint16_t* column = out.data() + f * rows;
    for (std::size_t r = 0; r < rows; ++r) {
      column[r] = static_cast<uint16_t>(BinOf(feature, data.At(r, feature)));
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<std::size_t>(num_features()), transform_column);
  } else {
    for (std::size_t f = 0; f < static_cast<std::size_t>(num_features()); ++f) transform_column(f);
  }
  return out;
}

std::size_t Discretizer::OneHotWidth() const {
  return onehot_offsets_.empty()
             ? 0
             : onehot_offsets_.back() + static_cast<std::size_t>(NumBins(num_features() - 1));
}

void Discretizer::RebuildOffsets() {
  onehot_offsets_.resize(boundaries_.size());
  std::size_t offset = 0;
  for (std::size_t f = 0; f < boundaries_.size(); ++f) {
    onehot_offsets_[f] = offset;
    offset += boundaries_[f].size() + 1;
  }
}

std::string Discretizer::Serialize() const {
  std::string blob;
  ByteWriter w(&blob);
  w.U32(static_cast<uint32_t>(boundaries_.size()));
  for (const auto& cuts : boundaries_) {
    w.U32(static_cast<uint32_t>(cuts.size()));
    w.Array(cuts.data(), cuts.size());
  }
  return blob;
}

StatusOr<Discretizer> Discretizer::Deserialize(std::string_view blob) {
  ByteReader r(blob);
  uint32_t num = 0;
  if (!r.U32(&num)) return Status::Corruption("discretizer: truncated header");
  // Every feature takes at least its 4-byte cut count, so a count the blob
  // cannot hold is rejected before anything is sized by it.
  if (num > (1u << 24) || !r.Fits(num, sizeof(uint32_t))) {
    return Status::Corruption("discretizer: implausible feature count");
  }
  Discretizer disc;
  disc.boundaries_.resize(num);
  for (std::vector<float>& cuts : disc.boundaries_) {
    uint32_t k = 0;
    if (!r.U32(&k)) return Status::Corruption("discretizer: truncated bin count");
    if (k > (1u << 20)) return Status::Corruption("discretizer: implausible bin count");
    if (!r.Array(k, &cuts)) return Status::Corruption("discretizer: truncated boundaries");
    for (uint32_t i = 0; i < k; ++i) {
      if (std::isnan(cuts[i]) || (i > 0 && !(cuts[i - 1] < cuts[i]))) {
        return Status::Corruption("discretizer: cuts do not strictly increase");
      }
    }
  }
  if (!r.done()) return Status::Corruption("discretizer: trailing bytes");
  disc.RebuildOffsets();
  return disc;
}

}  // namespace titant::ml
