#include "ml/isolation_forest.h"

#include <algorithm>
#include <cmath>

#include "common/bytes.h"
#include "common/random.h"

namespace titant::ml {

namespace {
constexpr double kEulerMascheroni = 0.5772156649015329;
}  // namespace

IsolationForestModel::IsolationForestModel(IsolationForestOptions options) : options_(options) {}

double IsolationForestModel::AveragePathLength(double n) {
  if (n <= 1.0) return 0.0;
  if (n == 2.0) return 1.0;
  return 2.0 * (std::log(n - 1.0) + kEulerMascheroni) - 2.0 * (n - 1.0) / n;
}

Status IsolationForestModel::Train(const DataMatrix& train) {
  if (train.num_rows() < 2) return Status::InvalidArgument("need at least 2 rows");
  if (options_.num_trees < 1) return Status::InvalidArgument("num_trees must be >= 1");
  if (options_.subsample_size < 2) {
    return Status::InvalidArgument("subsample_size must be >= 2");
  }

  trees_.clear();
  num_features_ = train.num_cols();
  const std::size_t n = train.num_rows();
  const std::size_t psi = std::min<std::size_t>(static_cast<std::size_t>(options_.subsample_size), n);
  normalizer_ = AveragePathLength(static_cast<double>(psi));
  const int height_limit =
      options_.max_height > 0
          ? options_.max_height
          : static_cast<int>(std::ceil(std::log2(static_cast<double>(psi))));

  Rng rng(options_.seed);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;

  trees_.resize(static_cast<std::size_t>(options_.num_trees));
  for (auto& tree : trees_) {
    // Sample-without-replacement prefix.
    rng.Shuffle(all);
    std::vector<std::size_t> sample(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(psi));

    // Iterative construction with an explicit stack.
    struct Frame {
      std::vector<std::size_t> rows;
      int depth;
      std::size_t node_idx;
    };
    tree.nodes.emplace_back();
    std::vector<Frame> stack;
    stack.push_back({std::move(sample), 0, 0});
    while (!stack.empty()) {
      Frame frame = std::move(stack.back());
      stack.pop_back();
      tree.nodes[frame.node_idx].size = static_cast<int32_t>(frame.rows.size());
      if (frame.depth >= height_limit || frame.rows.size() <= 1) {
        tree.nodes[frame.node_idx].feature = -1;
        continue;
      }
      // Pick a feature with spread among candidates; give up after a few
      // attempts (all-constant partition).
      int feature = -1;
      float lo = 0.0f, hi = 0.0f;
      for (int attempt = 0; attempt < 8 && feature < 0; ++attempt) {
        const int f = static_cast<int>(rng.Uniform(static_cast<uint64_t>(num_features_)));
        lo = hi = train.At(frame.rows[0], f);
        for (std::size_t r : frame.rows) {
          lo = std::min(lo, train.At(r, f));
          hi = std::max(hi, train.At(r, f));
        }
        if (hi > lo) feature = f;
      }
      if (feature < 0) {
        tree.nodes[frame.node_idx].feature = -1;
        continue;
      }
      const float split = static_cast<float>(rng.UniformReal(lo, hi));
      std::vector<std::size_t> left_rows, right_rows;
      for (std::size_t r : frame.rows) {
        (train.At(r, feature) < split ? left_rows : right_rows).push_back(r);
      }
      if (left_rows.empty() || right_rows.empty()) {
        tree.nodes[frame.node_idx].feature = -1;
        continue;
      }
      // Allocate children first: emplace_back may reallocate, so never hold
      // a Node reference across it.
      const int32_t left_idx = static_cast<int32_t>(tree.nodes.size());
      tree.nodes.emplace_back();
      const int32_t right_idx = static_cast<int32_t>(tree.nodes.size());
      tree.nodes.emplace_back();
      Node& node = tree.nodes[frame.node_idx];
      node.feature = feature;
      node.threshold = split;
      node.left = left_idx;
      node.right = right_idx;
      stack.push_back(
          {std::move(left_rows), frame.depth + 1, static_cast<std::size_t>(left_idx)});
      stack.push_back(
          {std::move(right_rows), frame.depth + 1, static_cast<std::size_t>(right_idx)});
    }
  }
  return Status::OK();
}

double IsolationForestModel::PathLength(const Tree& tree, const float* row) const {
  const Node* node = &tree.nodes[0];
  double depth = 0.0;
  while (node->feature >= 0) {
    node = row[node->feature] < node->threshold
               ? &tree.nodes[static_cast<std::size_t>(node->left)]
               : &tree.nodes[static_cast<std::size_t>(node->right)];
    depth += 1.0;
  }
  return depth + AveragePathLength(static_cast<double>(node->size));
}

double IsolationForestModel::Score(const float* row) const {
  if (trees_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& tree : trees_) total += PathLength(tree, row);
  const double mean_path = total / static_cast<double>(trees_.size());
  if (normalizer_ <= 0.0) return 0.5;
  return std::pow(2.0, -mean_path / normalizer_);
}

std::string IsolationForestModel::SerializePayload() const {
  std::string blob;
  ByteWriter w(&blob);
  w.I32(options_.num_trees);
  w.I32(options_.subsample_size);
  w.I32(options_.max_height);
  w.I32(num_features_);
  w.F64(normalizer_);
  w.U32(static_cast<uint32_t>(trees_.size()));
  for (const auto& tree : trees_) {
    w.U64(tree.nodes.size());
    w.Array(tree.nodes.data(), tree.nodes.size());
  }
  return blob;
}

StatusOr<std::unique_ptr<IsolationForestModel>> IsolationForestModel::FromPayload(
    std::string_view payload) {
  // A model file may come off the wire (DESIGN.md §16): counts are checked
  // against the bytes left before anything is sized by them, and every
  // node a walk reaches must test a real feature and lead to a later node
  // of its tree. A tree takes at least its node count and one node.
  constexpr std::size_t kMinTreeBytes = sizeof(uint64_t) + sizeof(Node);
  ByteReader r(payload);
  IsolationForestOptions o;
  int32_t num_features = 0;
  double normalizer = 1.0;
  uint32_t num_trees = 0;
  if (!r.I32(&o.num_trees) || !r.I32(&o.subsample_size) || !r.I32(&o.max_height) ||
      !r.I32(&num_features) || !r.F64(&normalizer) || !r.U32(&num_trees) ||
      !r.Fits(num_trees, kMinTreeBytes)) {
    return Status::Corruption("iforest: truncated header");
  }
  auto model = std::make_unique<IsolationForestModel>(o);
  model->num_features_ = num_features;
  model->normalizer_ = normalizer;
  model->trees_.resize(num_trees);
  for (auto& tree : model->trees_) {
    uint64_t num_nodes = 0;
    if (!r.U64(&num_nodes) || num_nodes == 0 || !r.Array(num_nodes, &tree.nodes)) {
      return Status::Corruption("iforest: bad node count");
    }
    const int64_t size = static_cast<int64_t>(num_nodes);
    for (int64_t i = 0; i < size; ++i) {
      const Node& node = tree.nodes[static_cast<std::size_t>(i)];
      if (node.feature == -1) continue;  // Leaf.
      if (node.feature < 0 || node.feature >= model->num_features_) {
        return Status::Corruption("iforest: split feature out of range");
      }
      if (node.left <= i || node.right <= i || node.left >= size || node.right >= size) {
        return Status::Corruption("iforest: child out of range");
      }
    }
  }
  if (!r.done()) return Status::Corruption("iforest: trailing bytes");
  return model;
}

}  // namespace titant::ml
