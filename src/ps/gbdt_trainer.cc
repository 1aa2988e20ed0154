#include "ps/gbdt_trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/random.h"

namespace titant::ps {

namespace {

// Per-(level-node, feature) histogram key. Node ids restart per level, so
// the key space stays tiny; the coordinator zeroes the level's keys before
// workers accumulate into them.
Key HistKey(int node_in_level, int feature, int num_features) {
  return static_cast<Key>(node_in_level) * static_cast<Key>(num_features) +
         static_cast<Key>(feature);
}

}  // namespace

StatusOr<std::unique_ptr<ml::GbdtModel>> DistributedGbdtTrainer::Train(
    const ml::DataMatrix& data) {
  if (!data.has_labels()) return Status::InvalidArgument("GBDT requires labels");
  if (data.num_rows() < 4) return Status::InvalidArgument("need at least 4 rows");
  if (options_.num_trees < 1 || options_.max_depth < 1) {
    return Status::InvalidArgument("bad tree options");
  }

  const std::size_t n = data.num_rows();
  const int num_features = data.num_cols();
  const auto& labels = data.labels();

  auto model = std::make_unique<ml::GbdtModel>(options_);
  model->num_features_ = num_features;
  TITANT_ASSIGN_OR_RETURN(model->discretizer_, ml::Discretizer::Fit(data, options_.max_bins));
  const std::vector<uint16_t> bins = model->discretizer_.Transform(data);
  const int max_bins = model->discretizer_.MaxBins();
  const int hist_dim = 2 * max_bins;  // Interleaved (sum, count) per bin.

  model->base_score_ = data.PositiveRate();

  const int workers = cluster_.num_workers();
  const std::size_t per_worker =
      (n + static_cast<std::size_t>(workers) - 1) / static_cast<std::size_t>(workers);

  // Worker-shard state, owned here and mutated only by its worker.
  std::vector<double> score(n, model->base_score_);
  std::vector<int32_t> node_of_row(n, -1);  // Node-in-level id, -1 = out.

  Rng rng(options_.seed);
  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<int> all_features(static_cast<std::size_t>(num_features));
  std::iota(all_features.begin(), all_features.end(), 0);
  const std::size_t sample_rows = std::max<std::size_t>(
      2, static_cast<std::size_t>(options_.row_subsample * static_cast<double>(n)));
  const std::size_t sample_features = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.feature_subsample * num_features));

  PsClient coordinator = cluster_.MakeClient();

  // Level-node bookkeeping shared (read-only) with workers per round.
  struct LevelNode {
    std::size_t tree_node_idx;  // Index into the tree's node array.
  };

  for (int t = 0; t < options_.num_trees; ++t) {
    // Coordinator: per-tree row mask and feature subset.
    rng.Shuffle(all_rows);
    std::vector<uint8_t> in_tree(n, 0);
    for (std::size_t i = 0; i < sample_rows; ++i) in_tree[all_rows[i]] = 1;
    rng.Shuffle(all_features);
    std::vector<int> features(all_features.begin(),
                              all_features.begin() +
                                  static_cast<std::ptrdiff_t>(sample_features));

    using Tree = ml::GbdtModel::Tree;
    using Node = ml::GbdtModel::Node;
    Tree tree;
    tree.nodes.emplace_back();
    // Frontier bookkeeping; children inherit (sum, count) from the split
    // decision so leaf finalization needs no extra histogram round.
    struct FrontierNode {
      std::size_t tree_node_idx;
      double sum = 0.0;
      std::size_t count = 0;
    };
    std::vector<FrontierNode> level = {{0, 0.0, 0}};

    // Workers initialize their rows' node assignments.
    cluster_.RunWorkers([&](int w, PsClient&) {
      const std::size_t begin = static_cast<std::size_t>(w) * per_worker;
      const std::size_t end = std::min(n, begin + per_worker);
      for (std::size_t r = begin; r < end; ++r) {
        node_of_row[r] = in_tree[r] ? 0 : -1;
      }
    });

    for (int depth = 0; depth <= options_.max_depth && !level.empty(); ++depth) {
      if (depth == options_.max_depth) {
        // Depth budget exhausted: the whole frontier becomes leaves.
        for (const FrontierNode& fn : level) {
          Node& node = tree.nodes[fn.tree_node_idx];
          node.feature = -1;
          node.value = ml::LeafValue(options_.learning_rate, fn.sum, fn.count);
        }
        level.clear();
        break;
      }

      // Coordinator zeroes this level's histogram keys.
      {
        std::vector<Key> keys;
        for (std::size_t ln = 0; ln < level.size(); ++ln) {
          for (int f : features) {
            keys.push_back(HistKey(static_cast<int>(ln), f, num_features));
          }
        }
        coordinator.Push(keys, std::vector<float>(keys.size() * hist_dim, 0.0f), hist_dim,
                         PushOp::kAssign);
      }

      // Workers: local histograms -> additive push.
      cluster_.RunWorkers([&](int w, PsClient& client) {
        const std::size_t begin = static_cast<std::size_t>(w) * per_worker;
        const std::size_t end = std::min(n, begin + per_worker);
        if (begin >= end) return;
        std::vector<float> hist(level.size() * features.size() *
                                    static_cast<std::size_t>(hist_dim),
                                0.0f);
        for (std::size_t r = begin; r < end; ++r) {
          const int32_t node = node_of_row[r];
          if (node < 0) continue;
          const float residual =
              static_cast<float>((labels[r] ? 1.0 : 0.0) - score[r]);
          for (std::size_t fi = 0; fi < features.size(); ++fi) {
            const uint16_t b = bins[r * static_cast<std::size_t>(num_features) +
                                    static_cast<std::size_t>(features[fi])];
            float* cell =
                hist.data() +
                (static_cast<std::size_t>(node) * features.size() + fi) * hist_dim +
                2 * b;
            cell[0] += residual;
            cell[1] += 1.0f;
          }
        }
        std::vector<Key> keys;
        keys.reserve(level.size() * features.size());
        for (std::size_t ln = 0; ln < level.size(); ++ln) {
          for (int f : features) {
            keys.push_back(HistKey(static_cast<int>(ln), f, num_features));
          }
        }
        client.Push(keys, hist, hist_dim, PushOp::kAdd);
      });

      // Coordinator: pull aggregated histograms, decide splits.
      std::vector<Key> keys;
      for (std::size_t ln = 0; ln < level.size(); ++ln) {
        for (int f : features) keys.push_back(HistKey(static_cast<int>(ln), f, num_features));
      }
      const std::vector<float> hists = coordinator.Pull(keys, hist_dim);

      struct Split {
        int feature = -1;
        int bin = -1;
        int32_t left_child = -1;   // node-in-next-level ids
        int32_t right_child = -1;
      };
      std::vector<Split> splits(level.size());
      std::vector<FrontierNode> next_level;

      std::vector<ml::Bin> node_hists(features.size() * static_cast<std::size_t>(max_bins));
      for (std::size_t ln = 0; ln < level.size(); ++ln) {
        // The node's histograms as Bins; the float counts are exact below
        // 2^24 rows.
        const float* h = hists.data() + ln * features.size() * static_cast<std::size_t>(hist_dim);
        for (std::size_t i = 0; i < node_hists.size(); ++i) {
          node_hists[i] = {h[2 * i], static_cast<uint32_t>(h[2 * i + 1])};
        }
        // Node totals from the first feature's histogram.
        double sum = 0.0;
        std::size_t count = 0;
        for (int b = 0; b < max_bins; ++b) {
          sum += node_hists[static_cast<std::size_t>(b)].sum;
          count += node_hists[static_cast<std::size_t>(b)].count;
        }
        auto make_leaf = [&] {
          Node& node = tree.nodes[level[ln].tree_node_idx];
          node.feature = -1;
          node.value = ml::LeafValue(options_.learning_rate, sum, count);
        };
        if (count < 2 * static_cast<std::size_t>(options_.min_child_samples)) {
          make_leaf();
          continue;
        }

        ml::SplitCand best;
        const ml::Bin* best_hist = nullptr;
        int best_feature = -1;
        for (std::size_t fi = 0; fi < features.size(); ++fi) {
          const ml::Bin* hist = node_hists.data() + fi * static_cast<std::size_t>(max_bins);
          const ml::SplitCand cand =
              ml::ScanHistogram(hist, model->discretizer_.NumBins(features[fi]), sum, count,
                                options_.min_child_samples);
          if (cand.bin >= 0 && cand.gain > best.gain) {
            best = cand;
            best_hist = hist;
            best_feature = features[fi];
          }
        }
        if (best_feature < 0) {
          make_leaf();
          continue;
        }
        // The left child's residuals, added as the scan added them.
        double best_left_sum = 0.0;
        for (int b = 0; b <= best.bin; ++b) best_left_sum += best_hist[b].sum;

        const int32_t left_idx = static_cast<int32_t>(tree.nodes.size());
        tree.nodes.emplace_back();
        const int32_t right_idx = static_cast<int32_t>(tree.nodes.size());
        tree.nodes.emplace_back();
        Node& parent = tree.nodes[level[ln].tree_node_idx];
        parent.feature = best_feature;
        parent.bin_threshold = best.bin;
        parent.left = left_idx;
        parent.right = right_idx;
        splits[ln].feature = best_feature;
        splits[ln].bin = best.bin;
        splits[ln].left_child = static_cast<int32_t>(next_level.size());
        next_level.push_back(
            {static_cast<std::size_t>(left_idx), best_left_sum, best.left_count});
        splits[ln].right_child = static_cast<int32_t>(next_level.size());
        next_level.push_back({static_cast<std::size_t>(right_idx), sum - best_left_sum,
                              count - best.left_count});
      }

      // Workers re-partition their rows into next-level node ids.
      cluster_.RunWorkers([&](int w, PsClient&) {
        const std::size_t begin = static_cast<std::size_t>(w) * per_worker;
        const std::size_t end = std::min(n, begin + per_worker);
        for (std::size_t r = begin; r < end; ++r) {
          const int32_t node = node_of_row[r];
          if (node < 0) continue;
          const Split& split = splits[static_cast<std::size_t>(node)];
          if (split.feature < 0) {
            node_of_row[r] = -1;  // Landed in a leaf.
            continue;
          }
          const uint16_t b = bins[r * static_cast<std::size_t>(num_features) +
                                  static_cast<std::size_t>(split.feature)];
          node_of_row[r] = b <= static_cast<uint16_t>(split.bin) ? split.left_child
                                                                 : split.right_child;
        }
      });
      level = std::move(next_level);
    }

    // Workers update every row's score with the completed tree, walked
    // over the raw rows in the model's scoring layout.
    model->AddTree(std::move(tree));
    cluster_.RunWorkers([&](int w, PsClient&) {
      const std::size_t begin = static_cast<std::size_t>(w) * per_worker;
      const std::size_t end = std::min(n, begin + per_worker);
      for (std::size_t r = begin; r < end; ++r) {
        score[r] += model->TreeValue(static_cast<std::size_t>(t), data.Row(r));
      }
    });
  }

  double se = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (labels[i] ? 1.0 : 0.0) - score[i];
    se += d * d;
  }
  model->final_train_rmse_ = std::sqrt(se / static_cast<double>(n));
  return model;
}

}  // namespace titant::ps
