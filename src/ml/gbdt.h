#ifndef TITANT_ML_GBDT_H_
#define TITANT_ML_GBDT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/statusor.h"
#include "ml/discretizer.h"
#include "ml/model.h"

namespace titant::ps {
class DistributedGbdtTrainer;  // KunPeng reimplementation (src/ps).
}  // namespace titant::ps

namespace titant::ml {

/// GBDT hyperparameters. §5.1: 400 trees of depth 3, RMSE objective,
/// row and feature subsampling rate 0.4.
struct GbdtOptions {
  int num_trees = 400;
  int max_depth = 3;
  double learning_rate = 0.1;   // Shrinkage applied to every leaf.
  double row_subsample = 0.4;   // Per-tree sample-without-replacement rate.
  double feature_subsample = 0.4;
  int max_bins = 64;            // Histogram pre-binning resolution.
  int min_child_samples = 8;
  uint64_t seed = 31;
  /// Threads of the fit, the calling one included (DESIGN.md §18). Each
  /// level of a tree is one parallel pass in which a thread fills, scans
  /// and partitions the histograms of its own group of sampled features;
  /// the discretizer fit, the binning and the score update run on the
  /// same threads. Every histogram adds its rows in the order the tree
  /// drew them and splits are chosen in feature order, so the trained
  /// model is byte-for-byte the same for every thread count.
  int num_threads = 1;
};

/// The split rule every GBDT trainer shares: GbdtModel::Train's level-wise
/// grower and ps::DistributedGbdtTrainer's coordinator.

/// One histogram bin: the residuals of its rows, added in row order, and
/// how many rows there are. Both share a cache line.
struct Bin {
  double sum = 0.0;
  uint32_t count = 0;
};

/// The best split of one feature at one node: the highest gain above the
/// 1e-10 floor, and how many of the node's rows go left.
struct SplitCand {
  double gain = 1e-10;
  int bin = -1;  // -1: no split clears the floor and min_child_samples.
  uint32_t left_count = 0;
};

/// Scans one feature's histogram (`num_bins` bins) at a node of `rows`
/// rows whose residuals sum to `sum`: bins [0, b] go left, for every b
/// below the last bin, and the split maximizes the sum^2/count gain. A
/// node splits on the first feature, in sampled order, whose candidate has
/// the highest gain.
inline SplitCand ScanHistogram(const Bin* hist, int num_bins, double sum, std::size_t rows,
                               int min_child_samples) {
  SplitCand cand;
  const double parent_gain = sum * sum / static_cast<double>(rows);
  double left_sum = 0.0;
  uint32_t left_cnt = 0;
  for (int b = 0; b + 1 < num_bins; ++b) {
    left_sum += hist[b].sum;
    left_cnt += hist[b].count;
    const uint32_t right_cnt = static_cast<uint32_t>(rows) - left_cnt;
    if (left_cnt < static_cast<uint32_t>(min_child_samples) ||
        right_cnt < static_cast<uint32_t>(min_child_samples)) {
      continue;
    }
    const double right_sum = sum - left_sum;
    const double gain =
        left_sum * left_sum / left_cnt + right_sum * right_sum / right_cnt - parent_gain;
    if (gain > cand.gain) {
      cand.gain = gain;
      cand.bin = b;
      cand.left_count = left_cnt;
    }
  }
  return cand;
}

/// A leaf's value: the mean residual of its `count` rows, which sum to
/// `sum`, shrunk by the learning rate.
inline float LeafValue(double learning_rate, double sum, std::size_t count) {
  return static_cast<float>(learning_rate * sum / std::max(1.0, static_cast<double>(count)));
}

/// Histogram-based gradient-boosted regression trees on the 0/1 fraud
/// label with a squared-error objective (gradient = residual), exactly the
/// classical GBRT the paper describes. Scores are clamped to [0, 1].
class GbdtModel : public Model {
 public:
  explicit GbdtModel(GbdtOptions options = {});

  std::string_view type_name() const override { return "gbdt"; }
  Status Train(const DataMatrix& train) override;
  int num_features() const override { return num_features_; }
  /// Scores on raw feature values through the flat layout (FlatNode): no
  /// discretization, no scratch memory, and a fixed number of branch-free
  /// steps per tree with kLanes trees in flight at once. Bit-identical to
  /// discretizing the row and walking the bins.
  double Score(const float* row) const override;
  /// Row by row, each row as Score scores it.
  void ScoreBatch(const float* rows, int n, double* out) const override;
  std::string SerializePayload() const override;

  static StatusOr<std::unique_ptr<GbdtModel>> FromPayload(std::string_view payload);

  int num_trees() const { return static_cast<int>(trees_.size()); }
  const GbdtOptions& options() const { return options_; }

  /// Training RMSE after the final boosting round (convergence tests).
  double final_train_rmse() const { return final_train_rmse_; }

  /// Split-frequency feature importance: how often each feature is chosen
  /// as a split across the ensemble, normalized to sum to 1. Computable on
  /// deserialized models too (no training-time state needed). Returns
  /// (feature index, share) pairs sorted descending.
  std::vector<std::pair<int, double>> FeatureImportance() const;

 private:
  // The PS-based trainer builds the same tree representation remotely and
  // assembles a servable GbdtModel from it.
  friend class ::titant::ps::DistributedGbdtTrainer;

  struct Node {
    int32_t feature = -1;     // -1 = leaf.
    int32_t bin_threshold = 0;  // Go left if bin <= threshold.
    int32_t left = -1;
    int32_t right = -1;
    float value = 0.0f;       // Leaf contribution (already shrunk).
  };
  struct Tree {
    std::vector<Node> nodes;
  };

  /// One node of the scoring layout. A split stores the raw cut value
  /// cuts[feature][bin_threshold]: for strictly increasing cuts,
  /// bin <= bin_threshold iff row[feature] < split, and NaN fails both
  /// tests. A leaf is a node whose children are itself, so every tree can
  /// walk the same number of steps (DESIGN.md §16); its test never
  /// matters, so its `split` holds the leaf value.
  struct FlatNode {
    int32_t feature = 0;
    float split = 0.0f;
    int32_t child[2] = {0, 0};  // Absolute indices into flat_nodes_.

    /// One step of a walk, with no branch on the data.
    int32_t Next(const float* row) const { return child[!(row[feature] < split)]; }
  };

  /// Trees scored side by side per row: independent walks overlap their
  /// load latencies.
  static constexpr int kLanes = 8;

  /// Appends `tree` to trees_ and to the scoring layout. The tree must be
  /// valid for discretizer_: split features in range, bin thresholds below
  /// the last bin, children after their parent.
  void AddTree(Tree tree);
  /// Leaf value tree `t` gives raw row `row`.
  float TreeValue(std::size_t t, const float* row) const;
  /// base_score_ plus every tree's leaf value, in tree order; unclamped.
  double SumTrees(const float* row) const;

  GbdtOptions options_;
  Discretizer discretizer_;
  std::vector<Tree> trees_;
  // Scoring layout, derived from trees_ and the cuts by AddTree: every
  // tree's nodes in one array, each tree's root, and the deepest tree's
  // depth, which is the step count of every walk.
  std::vector<FlatNode> flat_nodes_;
  std::vector<int32_t> roots_;
  int steps_ = 0;
  double base_score_ = 0.0;
  double final_train_rmse_ = 0.0;
  int num_features_ = -1;
};

}  // namespace titant::ml

#endif  // TITANT_ML_GBDT_H_
