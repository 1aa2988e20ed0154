#ifndef TITANT_ML_ISOLATION_FOREST_H_
#define TITANT_ML_ISOLATION_FOREST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/statusor.h"
#include "ml/model.h"

namespace titant::ml {

/// Isolation Forest hyperparameters (Liu, Ting, Zhou 2008). §5.1 of the
/// paper uses 100 trees on the raw basic features, with no labels.
struct IsolationForestOptions {
  int num_trees = 100;
  int subsample_size = 256;
  /// Height limit; <= 0 means ceil(log2(subsample_size)) as in the paper.
  int max_height = 0;
  uint64_t seed = 23;
};

/// Unsupervised anomaly scorer. Score(x) = 2^(-E[h(x)] / c(n)) in (0, 1);
/// values near 1 indicate isolation (suspected anomalies/frauds).
class IsolationForestModel : public Model {
 public:
  explicit IsolationForestModel(IsolationForestOptions options = {});

  std::string_view type_name() const override { return "iforest"; }
  /// Labels in `train`, if any, are ignored.
  Status Train(const DataMatrix& train) override;
  int num_features() const override { return num_features_; }
  double Score(const float* row) const override;
  std::string SerializePayload() const override;

  static StatusOr<std::unique_ptr<IsolationForestModel>> FromPayload(std::string_view payload);

  int num_trees() const { return static_cast<int>(trees_.size()); }

 private:
  struct Node {
    int32_t feature = -1;  // -1 = external (leaf) node.
    float threshold = 0.0f;
    int32_t left = -1;
    int32_t right = -1;
    // For leaves: subsample size reaching the node, used as c(size) credit.
    int32_t size = 0;
  };
  struct Tree {
    std::vector<Node> nodes;
  };

  static double AveragePathLength(double n);
  double PathLength(const Tree& tree, const float* row) const;

  IsolationForestOptions options_;
  std::vector<Tree> trees_;
  int num_features_ = -1;
  double normalizer_ = 1.0;  // c(subsample_size)
};

}  // namespace titant::ml

#endif  // TITANT_ML_ISOLATION_FOREST_H_
