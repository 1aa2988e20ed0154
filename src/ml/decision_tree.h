#ifndef TITANT_ML_DECISION_TREE_H_
#define TITANT_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/statusor.h"
#include "ml/discretizer.h"
#include "ml/model.h"

namespace titant::ml {

/// Configuration of the rule-based tree learners (§3.3). The paper treats
/// discretized features as rules; ID3 splits by information gain, C5.0 by
/// gain ratio with pessimistic pruning and (optionally) boosting.
struct DecisionTreeOptions {
  enum class Criterion { kInfoGain, kGainRatio };

  /// Bins for the internal equal-frequency discretization of continuous
  /// features (rule granularity).
  int max_bins = 12;
  int max_depth = 12;
  /// Minimum total instance weight for a node to be split further.
  double min_split_weight = 24.0;
  Criterion criterion = Criterion::kInfoGain;
  /// C4.5-style pessimistic pruning and its confidence factor.
  bool prune = false;
  float pruning_cf = 0.25f;
  /// AdaBoost.M1 trials; 1 = single tree, >1 = boosted committee (the
  /// "boosting" feature that distinguishes C5.0 from C4.5).
  int boosting_trials = 1;
  uint64_t seed = 17;
};

/// A binary decision tree over discretized features (C4.5-style threshold
/// splits: left child takes bins <= threshold), optionally boosted. Leaf
/// scores are Laplace-smoothed fraud probabilities so the model ranks as
/// well as classifies.
class DecisionTreeModel : public Model {
 public:
  explicit DecisionTreeModel(DecisionTreeOptions options = {});

  std::string_view type_name() const override { return "dtree"; }
  Status Train(const DataMatrix& train) override;
  int num_features() const override { return num_features_; }
  double Score(const float* row) const override;
  std::string SerializePayload() const override;

  /// Registry hook.
  static StatusOr<std::unique_ptr<DecisionTreeModel>> FromPayload(std::string_view payload);

  /// Number of boosted trees actually kept (<= boosting_trials).
  int num_trees() const { return static_cast<int>(trees_.size()); }

  /// Total node count across trees (diagnostics / pruning tests).
  std::size_t TotalNodes() const;

  /// Renders the first tree's high-risk leaves as IF/THEN rules (§3.3
  /// treats features as rules), e.g.
  ///   IF amount > 512.3 AND is_new_payee <= 0.5 THEN fraud (p=0.83, ...)
  /// Only leaves with probability >= min_probability are emitted, ordered
  /// by probability. `feature_names` must cover num_features().
  std::vector<std::string> DumpRules(const std::vector<std::string>& feature_names,
                                     double min_probability = 0.5) const;

  const DecisionTreeOptions& options() const { return options_; }

 private:
  friend class TreeBuilder;

  struct Node {
    int32_t feature = -1;      // -1 = leaf.
    int32_t threshold = 0;     // Left child takes bin <= threshold.
    int32_t left = -1;
    int32_t right = -1;
    float prob = 0.0f;  // Laplace-smoothed P(fraud) of the node's sample.
  };

  struct Tree {
    std::vector<Node> nodes;  // nodes[0] is the root.
    double alpha = 1.0;       // Boosting weight.
  };

  double ScoreTree(const Tree& tree, const uint16_t* bins) const;

  DecisionTreeOptions options_;
  Discretizer discretizer_;
  std::vector<Tree> trees_;
  int num_features_ = -1;
};

/// Factory for the paper's "Basic Features/Rules+ID3" configuration:
/// information gain, no pruning, single tree.
std::unique_ptr<DecisionTreeModel> MakeId3(int max_bins = 12, uint64_t seed = 17);

/// Factory for "Basic Features/Rules+C5.0": gain ratio, pessimistic
/// pruning, boosted committee.
std::unique_ptr<DecisionTreeModel> MakeC50(int max_bins = 12, int boosting_trials = 8,
                                           uint64_t seed = 17);

}  // namespace titant::ml

#endif  // TITANT_ML_DECISION_TREE_H_
