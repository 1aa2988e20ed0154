#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "common/random.h"
#include "common/thread_pool.h"

namespace titant::ml {

GbdtModel::GbdtModel(GbdtOptions options) : options_(options) {}

Status GbdtModel::Train(const DataMatrix& train) {
  if (!train.has_labels()) return Status::InvalidArgument("GBDT requires labels");
  if (train.num_rows() < 4) return Status::InvalidArgument("need at least 4 rows");
  if (options_.num_trees < 1) return Status::InvalidArgument("num_trees must be >= 1");
  if (options_.max_depth < 1) return Status::InvalidArgument("max_depth must be >= 1");
  if (options_.row_subsample <= 0.0 || options_.row_subsample > 1.0 ||
      options_.feature_subsample <= 0.0 || options_.feature_subsample > 1.0) {
    return Status::InvalidArgument("subsample rates must be in (0, 1]");
  }

  trees_.clear();
  flat_nodes_.clear();
  roots_.clear();
  steps_ = 0;
  num_features_ = train.num_cols();
  const std::size_t n = train.num_rows();
  const auto& labels = train.labels();

  TITANT_ASSIGN_OR_RETURN(discretizer_, Discretizer::Fit(train, options_.max_bins));
  const std::vector<uint16_t> bins = discretizer_.Transform(train);

  base_score_ = train.PositiveRate();
  std::vector<double> score(n, base_score_);
  std::vector<double> residual(n);

  Rng rng(options_.seed);
  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<int> all_features(static_cast<std::size_t>(num_features_));
  std::iota(all_features.begin(), all_features.end(), 0);

  const std::size_t sample_rows =
      std::max<std::size_t>(2, static_cast<std::size_t>(options_.row_subsample *
                                                        static_cast<double>(n)));
  const std::size_t sample_features = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.feature_subsample * num_features_));

  struct Partition {
    std::size_t node_idx;
    std::vector<std::size_t> rows;
    int depth;
  };

  // One worker pool for the whole ensemble; per-feature histogram builds
  // are fanned out over it node by node. Small nodes stay serial — the
  // task overhead would dominate the histogram fill.
  std::unique_ptr<ThreadPool> pool;
  if (options_.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(options_.num_threads));
  }
  constexpr std::size_t kParallelRowThreshold = 2048;

  struct SplitCand {
    double gain = 1e-10;
    int bin = -1;
  };

  trees_.reserve(static_cast<std::size_t>(options_.num_trees));
  for (int t = 0; t < options_.num_trees; ++t) {
    for (std::size_t i = 0; i < n; ++i) residual[i] = (labels[i] ? 1.0 : 0.0) - score[i];

    rng.Shuffle(all_rows);
    std::vector<std::size_t> rows(all_rows.begin(),
                                  all_rows.begin() + static_cast<std::ptrdiff_t>(sample_rows));
    rng.Shuffle(all_features);
    std::vector<int> features(all_features.begin(),
                              all_features.begin() +
                                  static_cast<std::ptrdiff_t>(sample_features));

    Tree tree;
    tree.nodes.emplace_back();
    std::vector<Partition> stack;
    stack.push_back({0, std::move(rows), 0});

    while (!stack.empty()) {
      Partition part = std::move(stack.back());
      stack.pop_back();

      double sum = 0.0;
      for (std::size_t r : part.rows) sum += residual[r];
      const double count = static_cast<double>(part.rows.size());

      auto make_leaf = [&] {
        tree.nodes[part.node_idx].feature = -1;
        tree.nodes[part.node_idx].value =
            static_cast<float>(options_.learning_rate * sum / std::max(1.0, count));
      };

      if (part.depth >= options_.max_depth ||
          part.rows.size() < 2 * static_cast<std::size_t>(options_.min_child_samples)) {
        make_leaf();
        continue;
      }

      // Histogram split search: maximize sum^2/count gain. Each sampled
      // feature builds its histogram and scans its candidate bins
      // independently (its own buffers), so features are parallel tasks;
      // the winner is reduced sequentially in feature order below, which
      // keeps the chosen split — and therefore the whole model —
      // identical for every thread count.
      const double parent_gain = sum * sum / count;
      auto scan_feature = [&](int f, std::vector<double>& hist_sum,
                              std::vector<uint32_t>& hist_cnt) -> SplitCand {
        SplitCand cand;
        const int nb = discretizer_.NumBins(f);
        if (nb < 2) return cand;
        hist_sum.assign(static_cast<std::size_t>(nb), 0.0);
        hist_cnt.assign(static_cast<std::size_t>(nb), 0);
        for (std::size_t r : part.rows) {
          const uint16_t b =
              bins[r * static_cast<std::size_t>(num_features_) + static_cast<std::size_t>(f)];
          hist_sum[b] += residual[r];
          ++hist_cnt[b];
        }
        double left_sum = 0.0;
        uint32_t left_cnt = 0;
        for (int b = 0; b + 1 < nb; ++b) {
          left_sum += hist_sum[b];
          left_cnt += hist_cnt[b];
          const uint32_t right_cnt = static_cast<uint32_t>(part.rows.size()) - left_cnt;
          if (left_cnt < static_cast<uint32_t>(options_.min_child_samples) ||
              right_cnt < static_cast<uint32_t>(options_.min_child_samples)) {
            continue;
          }
          const double right_sum = sum - left_sum;
          const double gain = left_sum * left_sum / left_cnt +
                              right_sum * right_sum / right_cnt - parent_gain;
          if (gain > cand.gain) {
            cand.gain = gain;
            cand.bin = b;
          }
        }
        return cand;
      };

      std::vector<SplitCand> cands(features.size());
      if (pool && part.rows.size() >= kParallelRowThreshold && features.size() > 1) {
        pool->ParallelFor(features.size(), [&](std::size_t j) {
          std::vector<double> hist_sum;
          std::vector<uint32_t> hist_cnt;
          cands[j] = scan_feature(features[j], hist_sum, hist_cnt);
        });
      } else {
        std::vector<double> hist_sum;
        std::vector<uint32_t> hist_cnt;
        for (std::size_t j = 0; j < features.size(); ++j) {
          cands[j] = scan_feature(features[j], hist_sum, hist_cnt);
        }
      }
      double best_gain = 1e-10;
      int best_feature = -1;
      int best_bin = -1;
      for (std::size_t j = 0; j < features.size(); ++j) {
        if (cands[j].bin >= 0 && cands[j].gain > best_gain) {
          best_gain = cands[j].gain;
          best_feature = features[j];
          best_bin = cands[j].bin;
        }
      }
      if (best_feature < 0) {
        make_leaf();
        continue;
      }

      std::vector<std::size_t> left_rows, right_rows;
      left_rows.reserve(part.rows.size() / 2);
      right_rows.reserve(part.rows.size() / 2);
      for (std::size_t r : part.rows) {
        const uint16_t b = bins[r * static_cast<std::size_t>(num_features_) +
                                static_cast<std::size_t>(best_feature)];
        (b <= static_cast<uint16_t>(best_bin) ? left_rows : right_rows).push_back(r);
      }

      tree.nodes[part.node_idx].feature = best_feature;
      tree.nodes[part.node_idx].bin_threshold = best_bin;
      const int32_t left_idx = static_cast<int32_t>(tree.nodes.size());
      tree.nodes.emplace_back();
      const int32_t right_idx = static_cast<int32_t>(tree.nodes.size());
      tree.nodes.emplace_back();
      tree.nodes[part.node_idx].left = left_idx;
      tree.nodes[part.node_idx].right = right_idx;
      stack.push_back({static_cast<std::size_t>(left_idx), std::move(left_rows), part.depth + 1});
      stack.push_back(
          {static_cast<std::size_t>(right_idx), std::move(right_rows), part.depth + 1});
    }

    // Update scores of *all* rows so the next residuals are consistent.
    // The raw rows reach the same leaves as their bins (DESIGN.md §16).
    AddTree(std::move(tree));
    for (std::size_t i = 0; i < n; ++i) score[i] += TreeValue(trees_.size() - 1, train.Row(i));
  }

  double se = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (labels[i] ? 1.0 : 0.0) - score[i];
    se += d * d;
  }
  final_train_rmse_ = std::sqrt(se / static_cast<double>(n));
  return Status::OK();
}

void GbdtModel::AddTree(Tree tree) {
  const int32_t base = static_cast<int32_t>(flat_nodes_.size());
  // Children follow their parent, so one pass in index order finds every
  // node's depth (the longest path from the root).
  std::vector<int> depth(tree.nodes.size(), 0);
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const Node& node = tree.nodes[i];
    const int32_t self = base + static_cast<int32_t>(i);
    FlatNode flat{0, node.value, {self, self}};
    if (node.feature >= 0) {
      flat.feature = node.feature;
      flat.split = discretizer_.Cuts(node.feature)[static_cast<std::size_t>(node.bin_threshold)];
      flat.child[0] = base + node.left;
      flat.child[1] = base + node.right;
      for (const int32_t c : {node.left, node.right}) {
        int& d = depth[static_cast<std::size_t>(c)];
        d = std::max(d, depth[i] + 1);
      }
    }
    flat_nodes_.push_back(flat);
    steps_ = std::max(steps_, depth[i]);
  }
  roots_.push_back(base);
  trees_.push_back(std::move(tree));
}

float GbdtModel::TreeValue(std::size_t t, const float* row) const {
  int32_t at = roots_[t];
  for (int s = 0; s < steps_; ++s) at = flat_nodes_[static_cast<std::size_t>(at)].Next(row);
  return flat_nodes_[static_cast<std::size_t>(at)].split;
}

double GbdtModel::SumTrees(const float* row) const {
  const FlatNode* nodes = flat_nodes_.data();
  const std::size_t num_trees = roots_.size();
  double score = base_score_;
  std::size_t t = 0;
  for (; t + kLanes <= num_trees; t += kLanes) {
    int32_t at[kLanes];
    for (int k = 0; k < kLanes; ++k) at[k] = roots_[t + static_cast<std::size_t>(k)];
    for (int s = 0; s < steps_; ++s) {
      // Unrolled (8 = kLanes), so the positions stay in registers.
#pragma GCC unroll 8
      for (int k = 0; k < kLanes; ++k) at[k] = nodes[at[k]].Next(row);
    }
    for (int k = 0; k < kLanes; ++k) score += nodes[at[k]].split;
  }
  for (; t < num_trees; ++t) score += TreeValue(t, row);
  return score;
}

double GbdtModel::Score(const float* row) const {
  return std::clamp(SumTrees(row), 0.0, 1.0);
}

void GbdtModel::ScoreBatch(const float* rows, int n, double* out) const {
  const std::size_t width = static_cast<std::size_t>(num_features_);
  for (int i = 0; i < n; ++i) {
    out[i] = std::clamp(SumTrees(rows + static_cast<std::size_t>(i) * width), 0.0, 1.0);
  }
}

std::vector<std::pair<int, double>> GbdtModel::FeatureImportance() const {
  std::vector<double> counts(static_cast<std::size_t>(std::max(0, num_features_)), 0.0);
  double total = 0.0;
  for (const auto& tree : trees_) {
    for (const Node& node : tree.nodes) {
      if (node.feature >= 0 && node.feature < num_features_) {
        counts[static_cast<std::size_t>(node.feature)] += 1.0;
        total += 1.0;
      }
    }
  }
  std::vector<std::pair<int, double>> importance;
  for (int f = 0; f < num_features_; ++f) {
    if (counts[static_cast<std::size_t>(f)] > 0.0) {
      importance.emplace_back(f, counts[static_cast<std::size_t>(f)] / std::max(1.0, total));
    }
  }
  std::sort(importance.begin(), importance.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return importance;
}

std::string GbdtModel::SerializePayload() const {
  std::string blob;
  auto put = [&](const void* p, std::size_t n) {
    blob.append(reinterpret_cast<const char*>(p), n);
  };
  const int32_t header[] = {options_.num_trees, options_.max_depth, options_.max_bins,
                            options_.min_child_samples, num_features_};
  put(header, sizeof(header));
  const double doubles[] = {options_.learning_rate, options_.row_subsample,
                            options_.feature_subsample, base_score_, final_train_rmse_};
  put(doubles, sizeof(doubles));

  const std::string disc = discretizer_.Serialize();
  const uint64_t disc_len = disc.size();
  put(&disc_len, sizeof(disc_len));
  blob += disc;

  const uint32_t num_trees = static_cast<uint32_t>(trees_.size());
  put(&num_trees, sizeof(num_trees));
  for (const auto& tree : trees_) {
    const uint64_t num_nodes = tree.nodes.size();
    put(&num_nodes, sizeof(num_nodes));
    put(tree.nodes.data(), tree.nodes.size() * sizeof(Node));
  }
  return blob;
}

StatusOr<std::unique_ptr<GbdtModel>> GbdtModel::FromPayload(const std::string& payload) {
  const char* p = payload.data();
  const char* end = payload.data() + payload.size();
  auto read = [&](void* dst, std::size_t n) -> bool {
    if (n > static_cast<std::size_t>(end - p)) return false;
    std::memcpy(dst, p, n);
    p += n;
    return true;
  };
  int32_t header[5];
  double doubles[5];
  if (!read(header, sizeof(header)) || !read(doubles, sizeof(doubles))) {
    return Status::Corruption("gbdt: truncated header");
  }
  GbdtOptions o;
  o.num_trees = header[0];
  o.max_depth = header[1];
  o.max_bins = header[2];
  o.min_child_samples = header[3];
  o.learning_rate = doubles[0];
  o.row_subsample = doubles[1];
  o.feature_subsample = doubles[2];
  auto model = std::make_unique<GbdtModel>(o);
  model->num_features_ = header[4];
  model->base_score_ = doubles[3];
  model->final_train_rmse_ = doubles[4];

  uint64_t disc_len = 0;
  if (!read(&disc_len, sizeof(disc_len)) || disc_len > static_cast<uint64_t>(end - p)) {
    return Status::Corruption("gbdt: truncated discretizer");
  }
  TITANT_ASSIGN_OR_RETURN(model->discretizer_,
                          Discretizer::Deserialize(std::string(p, disc_len)));
  p += disc_len;
  if (model->discretizer_.num_features() != model->num_features_) {
    return Status::Corruption("gbdt: discretizer width differs from the header's");
  }

  // A model file may come off the wire: every node the scorer can reach
  // must index a real feature, cut and node, and every walk must end
  // within max_depth steps.
  uint32_t num_trees = 0;
  if (!read(&num_trees, sizeof(num_trees)) || num_trees > (1u << 22)) {
    return Status::Corruption("gbdt: bad tree count");
  }
  // The rest of the blob is trees, 20 bytes a node: sizes the layout once.
  model->flat_nodes_.reserve(static_cast<std::size_t>(end - p) / sizeof(Node));
  for (uint32_t t = 0; t < num_trees; ++t) {
    uint64_t num_nodes = 0;
    if (!read(&num_nodes, sizeof(num_nodes)) || num_nodes == 0 ||
        num_nodes > static_cast<uint64_t>(end - p) / sizeof(Node) ||
        num_nodes > uint64_t{INT32_MAX} - model->flat_nodes_.size()) {
      return Status::Corruption("gbdt: bad node count");
    }
    Tree tree;
    tree.nodes.resize(static_cast<std::size_t>(num_nodes));
    read(tree.nodes.data(), tree.nodes.size() * sizeof(Node));  // Fits: checked above.
    const int64_t size = static_cast<int64_t>(num_nodes);
    for (int64_t i = 0; i < size; ++i) {
      const Node& node = tree.nodes[static_cast<std::size_t>(i)];
      if (node.feature == -1) continue;  // Leaf.
      if (node.feature < 0 || node.feature >= model->num_features_) {
        return Status::Corruption("gbdt: split feature out of range");
      }
      if (node.bin_threshold < 0 ||
          node.bin_threshold > model->discretizer_.NumBins(node.feature) - 2) {
        return Status::Corruption("gbdt: bin threshold out of range");
      }
      if (node.left <= i || node.right <= i || node.left >= size || node.right >= size) {
        return Status::Corruption("gbdt: child out of range");
      }
    }
    model->AddTree(std::move(tree));
  }
  if (model->steps_ > o.max_depth) return Status::Corruption("gbdt: tree deeper than max_depth");
  if (p != end) return Status::Corruption("gbdt: trailing bytes");
  return model;
}

}  // namespace titant::ml
