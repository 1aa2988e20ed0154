#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/bytes.h"
#include "common/random.h"
#include "common/string_util.h"

namespace titant::ml {

namespace {

// Inverse standard-normal CDF (Acklam's approximation); used to turn the
// pruning confidence factor into a z-score.
double Probit(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  if (p <= 0.0) return -1e10;
  if (p >= 1.0) return 1e10;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

// C4.5's pessimistic upper bound on the error rate of a leaf with total
// weight `n` and error weight `e`, at confidence factor `cf`.
double PessimisticErrors(double n, double e, double z) {
  if (n <= 0.0) return 0.0;
  const double f = e / n;
  const double z2 = z * z;
  const double u = (f + z2 / (2.0 * n) +
                    z * std::sqrt(std::max(0.0, f / n - f * f / n + z2 / (4.0 * n * n)))) /
                   (1.0 + z2 / n);
  return u * n;
}

double Entropy(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  double h = 0.0;
  if (p > 0.0) h -= p * std::log2(p);
  if (p < 1.0) h -= (1.0 - p) * std::log2(1.0 - p);
  return h;
}

}  // namespace

// Recursive learner producing a flattened DecisionTreeModel::Tree.
class TreeBuilder {
 public:
  TreeBuilder(const DecisionTreeOptions& options, const Discretizer& disc,
              const std::vector<uint16_t>& bins, const std::vector<uint8_t>& labels,
              const std::vector<double>& weights, int num_features)
      : options_(options),
        disc_(disc),
        bins_(bins),
        labels_(labels),
        weights_(weights),
        num_features_(num_features),
        prune_z_(Probit(1.0 - options.pruning_cf)) {}

  DecisionTreeModel::Tree Build() {
    DecisionTreeModel::Tree tree;
    std::vector<std::size_t> rows(labels_.size());
    std::iota(rows.begin(), rows.end(), 0);
    nodes_ = &tree.nodes;
    nodes_->emplace_back();
    BuildNode(0, rows, 0);
    return tree;
  }

 private:
  // Returns the (possibly pruned) subtree's estimated pessimistic errors.
  double BuildNode(std::size_t node_idx, const std::vector<std::size_t>& rows,
                   int depth) {
    double w_total = 0.0, w_pos = 0.0;
    for (std::size_t r : rows) {
      w_total += weights_[r];
      w_pos += labels_[r] ? weights_[r] : 0.0;
    }
    (*nodes_)[node_idx].prob = static_cast<float>((w_pos + 1.0) / (w_total + 2.0));
    const double leaf_error = std::min(w_pos, w_total - w_pos);
    const double leaf_est = PessimisticErrors(w_total, leaf_error, prune_z_);

    if (depth >= options_.max_depth || w_total < options_.min_split_weight || w_pos == 0.0 ||
        w_pos == w_total) {
      return leaf_est;
    }

    // Best binary threshold split (C4.5-style) over all features.
    const double h_parent = Entropy(w_pos, w_total);
    int best_feature = -1;
    int best_threshold = -1;
    double best_score = 1e-9;
    std::vector<double> bin_total, bin_pos;
    for (int f = 0; f < num_features_; ++f) {
      const int nb = disc_.NumBins(f);
      if (nb < 2) continue;
      bin_total.assign(static_cast<std::size_t>(nb), 0.0);
      bin_pos.assign(static_cast<std::size_t>(nb), 0.0);
      for (std::size_t r : rows) {
        const uint16_t b = bins_[r * static_cast<std::size_t>(num_features_) +
                                 static_cast<std::size_t>(f)];
        bin_total[b] += weights_[r];
        bin_pos[b] += labels_[r] ? weights_[r] : 0.0;
      }
      double left_total = 0.0, left_pos = 0.0;
      for (int t = 0; t + 1 < nb; ++t) {
        left_total += bin_total[t];
        left_pos += bin_pos[t];
        if (left_total <= 0.0 || left_total >= w_total) continue;
        const double right_total = w_total - left_total;
        const double right_pos = w_pos - left_pos;
        const double frac_l = left_total / w_total;
        const double frac_r = right_total / w_total;
        const double h_children = frac_l * Entropy(left_pos, left_total) +
                                  frac_r * Entropy(right_pos, right_total);
        const double gain = h_parent - h_children;
        double score = gain;
        if (options_.criterion == DecisionTreeOptions::Criterion::kGainRatio) {
          const double split_info =
              -frac_l * std::log2(frac_l) - frac_r * std::log2(frac_r);
          if (split_info <= 1e-12) continue;
          score = gain / split_info;
        }
        if (score > best_score) {
          best_score = score;
          best_feature = f;
          best_threshold = t;
        }
      }
    }
    if (best_feature < 0) return leaf_est;

    std::vector<std::size_t> left_rows, right_rows;
    left_rows.reserve(rows.size() / 2);
    right_rows.reserve(rows.size() / 2);
    for (std::size_t r : rows) {
      const uint16_t b = bins_[r * static_cast<std::size_t>(num_features_) +
                               static_cast<std::size_t>(best_feature)];
      (b <= static_cast<uint16_t>(best_threshold) ? left_rows : right_rows).push_back(r);
    }

    const int32_t left_idx = static_cast<int32_t>(nodes_->size());
    nodes_->emplace_back();
    const int32_t right_idx = static_cast<int32_t>(nodes_->size());
    nodes_->emplace_back();
    {
      auto& node = (*nodes_)[node_idx];
      node.feature = best_feature;
      node.threshold = best_threshold;
      node.left = left_idx;
      node.right = right_idx;
    }

    double subtree_est = 0.0;
    subtree_est += BuildNode(static_cast<std::size_t>(left_idx), left_rows, depth + 1);
    subtree_est += BuildNode(static_cast<std::size_t>(right_idx), right_rows, depth + 1);

    // Pessimistic pruning: collapse the split if a leaf would not be
    // expected to do worse on unseen data.
    if (options_.prune && leaf_est <= subtree_est + 0.1) {
      auto& node = (*nodes_)[node_idx];
      node.feature = -1;
      node.left = node.right = -1;
      return leaf_est;
    }
    return subtree_est;
  }

  const DecisionTreeOptions& options_;
  const Discretizer& disc_;
  const std::vector<uint16_t>& bins_;
  const std::vector<uint8_t>& labels_;
  const std::vector<double>& weights_;
  const int num_features_;
  const double prune_z_;
  std::vector<DecisionTreeModel::Node>* nodes_ = nullptr;
};

DecisionTreeModel::DecisionTreeModel(DecisionTreeOptions options) : options_(options) {}

Status DecisionTreeModel::Train(const DataMatrix& train) {
  if (!train.has_labels()) return Status::InvalidArgument("decision tree requires labels");
  if (train.num_rows() < 2) return Status::InvalidArgument("need at least 2 rows");
  if (options_.max_bins < 2) return Status::InvalidArgument("max_bins must be >= 2");
  if (options_.max_depth < 1) return Status::InvalidArgument("max_depth must be >= 1");
  if (options_.boosting_trials < 1) {
    return Status::InvalidArgument("boosting_trials must be >= 1");
  }

  trees_.clear();
  num_features_ = train.num_cols();
  TITANT_ASSIGN_OR_RETURN(discretizer_, Discretizer::Fit(train, options_.max_bins));
  const std::vector<uint16_t> bins = discretizer_.Transform(train);
  const auto& labels = train.labels();
  const std::size_t n = train.num_rows();

  // Instance weights sum to n (so min_split_weight is in "sample count"
  // units); boosting renormalizes back to this scale.
  std::vector<double> weights(n, 1.0);
  for (int trial = 0; trial < options_.boosting_trials; ++trial) {
    TreeBuilder builder(options_, discretizer_, bins, labels, weights, num_features_);
    Tree tree = builder.Build();

    if (options_.boosting_trials == 1) {
      tree.alpha = 1.0;
      trees_.push_back(std::move(tree));
      break;
    }

    // AdaBoost.M1 reweighting (err is weight-normalized).
    double err = 0.0;
    double weight_total = 0.0;
    std::vector<uint8_t> correct(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double p =
          ScoreTree(tree, bins.data() + i * static_cast<std::size_t>(num_features_));
      const bool predicted = p >= 0.5;
      correct[i] = predicted == (labels[i] != 0);
      if (!correct[i]) err += weights[i];
      weight_total += weights[i];
    }
    err /= weight_total;
    if (err >= 0.5) break;  // Worse than chance: stop boosting.
    if (err <= 1e-12) {
      tree.alpha = 10.0;  // Perfect tree: dominate the committee and stop.
      trees_.push_back(std::move(tree));
      break;
    }
    const double beta = err / (1.0 - err);
    tree.alpha = std::log(1.0 / beta);
    trees_.push_back(std::move(tree));

    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (correct[i]) weights[i] *= beta;
      total += weights[i];
    }
    // Renormalize so weights keep summing to n.
    const double scale = static_cast<double>(n) / total;
    for (auto& w : weights) w *= scale;
  }
  if (trees_.empty()) {
    // First trial was already worse than chance — keep it unweighted so the
    // model still produces scores.
    TreeBuilder builder(options_, discretizer_, bins, labels, weights, num_features_);
    trees_.push_back(builder.Build());
  }
  return Status::OK();
}

double DecisionTreeModel::ScoreTree(const Tree& tree, const uint16_t* bins) const {
  const Node* node = &tree.nodes[0];
  while (node->feature >= 0) {
    node = bins[node->feature] <= static_cast<uint16_t>(node->threshold)
               ? &tree.nodes[static_cast<std::size_t>(node->left)]
               : &tree.nodes[static_cast<std::size_t>(node->right)];
  }
  return node->prob;
}

double DecisionTreeModel::Score(const float* row) const {
  std::vector<uint16_t> bins(static_cast<std::size_t>(num_features_));
  discretizer_.TransformRow(row, bins.data());
  double weighted = 0.0, total = 0.0;
  for (const auto& tree : trees_) {
    weighted += tree.alpha * ScoreTree(tree, bins.data());
    total += tree.alpha;
  }
  return total > 0.0 ? weighted / total : 0.0;
}

std::size_t DecisionTreeModel::TotalNodes() const {
  std::size_t n = 0;
  for (const auto& t : trees_) n += t.nodes.size();
  return n;
}

std::string DecisionTreeModel::SerializePayload() const {
  std::string blob;
  ByteWriter w(&blob);
  w.I32(options_.max_bins);
  w.I32(options_.max_depth);
  w.I32(static_cast<int32_t>(options_.criterion));
  w.I32(options_.prune ? 1 : 0);
  w.I32(options_.boosting_trials);
  w.I32(num_features_);
  w.F64(options_.min_split_weight);
  w.F32(options_.pruning_cf);

  const std::string disc = discretizer_.Serialize();
  w.U64(disc.size());
  w.Bytes(disc);

  w.U32(static_cast<uint32_t>(trees_.size()));
  for (const auto& tree : trees_) {
    w.F64(tree.alpha);
    w.U64(tree.nodes.size());
    w.Array(tree.nodes.data(), tree.nodes.size());
  }
  return blob;
}

StatusOr<std::unique_ptr<DecisionTreeModel>> DecisionTreeModel::FromPayload(
    std::string_view payload) {
  ByteReader r(payload);
  DecisionTreeOptions o;
  int32_t criterion = 0, prune = 0, num_features = 0;
  if (!r.I32(&o.max_bins) || !r.I32(&o.max_depth) || !r.I32(&criterion) || !r.I32(&prune) ||
      !r.I32(&o.boosting_trials) || !r.I32(&num_features) || !r.F64(&o.min_split_weight) ||
      !r.F32(&o.pruning_cf)) {
    return Status::Corruption("dtree: truncated options");
  }
  o.criterion = static_cast<DecisionTreeOptions::Criterion>(criterion);
  o.prune = prune != 0;

  auto model = std::make_unique<DecisionTreeModel>(o);
  model->num_features_ = num_features;

  uint64_t disc_len = 0;
  std::string_view disc;
  if (!r.U64(&disc_len) || !r.Bytes(disc_len, &disc)) {
    return Status::Corruption("dtree: truncated discretizer");
  }
  TITANT_ASSIGN_OR_RETURN(model->discretizer_, Discretizer::Deserialize(disc));
  // Score bins a row into num_features_ slots with the discretizer.
  if (model->discretizer_.num_features() != model->num_features_) {
    return Status::Corruption("dtree: discretizer width differs from the header's");
  }

  // A model file may come off the wire (DESIGN.md §16): every node a walk
  // reaches must test a real feature and lead to a later node of its tree.
  // A tree takes at least its 16-byte header and one node.
  constexpr std::size_t kMinTreeBytes = sizeof(double) + sizeof(uint64_t) + sizeof(Node);
  uint32_t num_trees = 0;
  if (!r.U32(&num_trees) || !r.Fits(num_trees, kMinTreeBytes)) {
    return Status::Corruption("dtree: bad tree count");
  }
  model->trees_.resize(num_trees);
  for (auto& tree : model->trees_) {
    uint64_t num_nodes = 0;
    if (!r.F64(&tree.alpha) || !r.U64(&num_nodes) || num_nodes == 0 ||
        !r.Array(num_nodes, &tree.nodes)) {
      return Status::Corruption("dtree: bad tree header");
    }
    const int64_t size = static_cast<int64_t>(num_nodes);
    for (int64_t i = 0; i < size; ++i) {
      const Node& node = tree.nodes[static_cast<std::size_t>(i)];
      if (node.feature == -1) continue;  // Leaf.
      if (node.feature < 0 || node.feature >= model->num_features_) {
        return Status::Corruption("dtree: split feature out of range");
      }
      if (node.left <= i || node.right <= i || node.left >= size || node.right >= size) {
        return Status::Corruption("dtree: child out of range");
      }
    }
  }
  if (!r.done()) return Status::Corruption("dtree: trailing bytes");
  return model;
}


std::vector<std::string> DecisionTreeModel::DumpRules(
    const std::vector<std::string>& feature_names, double min_probability) const {
  std::vector<std::string> rules;
  if (trees_.empty() || feature_names.size() < static_cast<std::size_t>(num_features_)) {
    return rules;
  }
  const Tree& tree = trees_.front();

  struct Frame {
    std::size_t node;
    std::string conditions;
  };
  std::vector<std::pair<float, std::string>> leaves;
  std::vector<Frame> stack = {{0, ""}};
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const Node& node = tree.nodes[frame.node];
    if (node.feature < 0) {
      if (node.prob >= min_probability) {
        leaves.emplace_back(node.prob, frame.conditions.empty() ? "TRUE" : frame.conditions);
      }
      continue;
    }
    // The split threshold is a bin index; recover the approximate raw cut
    // as the upper boundary of the threshold bin (midpoint convention).
    const std::string& name = feature_names[static_cast<std::size_t>(node.feature)];
    // BinOf(feature, x) <= threshold  <=>  x < boundaries[threshold]; the
    // serialized discretizer knows the cut value via a probe search.
    float cut = 0.0f;
    {
      // Binary-search the raw axis for the bin boundary.
      float lo = -1e9f, hi = 1e9f;
      for (int iter = 0; iter < 60; ++iter) {
        const float mid = 0.5f * (lo + hi);
        if (discretizer_.BinOf(node.feature, mid) <= node.threshold) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      cut = lo;
    }
    const std::string prefix = frame.conditions.empty() ? "" : frame.conditions + " AND ";
    stack.push_back({static_cast<std::size_t>(node.left),
                     prefix + name + " <= " + FormatDouble(cut, 3)});
    stack.push_back({static_cast<std::size_t>(node.right),
                     prefix + name + " > " + FormatDouble(cut, 3)});
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  rules.reserve(leaves.size());
  for (const auto& [prob, conditions] : leaves) {
    rules.push_back("IF " + conditions + " THEN fraud (p=" + FormatDouble(prob, 2) + ")");
  }
  return rules;
}

std::unique_ptr<DecisionTreeModel> MakeId3(int max_bins, uint64_t seed) {
  DecisionTreeOptions o;
  o.max_bins = max_bins;
  o.criterion = DecisionTreeOptions::Criterion::kInfoGain;
  o.prune = false;
  o.boosting_trials = 1;
  o.seed = seed;
  return std::make_unique<DecisionTreeModel>(o);
}

std::unique_ptr<DecisionTreeModel> MakeC50(int max_bins, int boosting_trials, uint64_t seed) {
  DecisionTreeOptions o;
  o.max_bins = max_bins;
  o.criterion = DecisionTreeOptions::Criterion::kGainRatio;
  o.prune = true;
  o.boosting_trials = boosting_trials;
  o.seed = seed;
  return std::make_unique<DecisionTreeModel>(o);
}

}  // namespace titant::ml
