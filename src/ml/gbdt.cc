#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>

#include "common/bytes.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace titant::ml {

namespace {

/// One node of a tree as TreeGrower grows it, in the order the levels
/// create them. Its rows are [begin, end) of its level's block, in the
/// order the tree drew them.
struct GrowNode {
  std::size_t begin = 0;
  std::size_t end = 0;
  double sum = 0.0;  // The rows' residuals, added in row order.
  int depth = 0;
  bool open = false;  // Searched for a split: not too deep, not too small.
  int slot = -1;      // Its row of the level's candidate table, if open.
  int column = -1;    // Split column (index into the sampled features); -1 = leaf.
  int bin = -1;       // Left child takes bins <= bin.
  int left = -1;      // Index of the left child; the right child follows it.

  std::size_t count() const { return end - begin; }
};

/// Grows the fit's trees level by level over a gathered bin block
/// (DESIGN.md §18). The sampled features are cut into one contiguous
/// column group per lane, and a lane keeps its group's columns of the
/// sampled rows in its own row-major block, so no two lanes write one
/// cache line. Each level is one pass over the pool in which every lane
/// fills, scans and partitions its own columns only, row by row; between
/// passes one thread chooses the splits in feature order and lays out the
/// partition. Every histogram adds its node's rows in the order the tree
/// drew them, so the tree does not depend on the lane count.
class TreeGrower {
 public:
  /// `bins` is the training matrix's column-major bin matrix.
  TreeGrower(const Discretizer& disc, const std::vector<uint16_t>& bins, std::size_t num_rows,
             std::size_t sample_rows, std::size_t sample_features, int max_depth,
             int min_child_samples, ThreadPool* pool)
      : disc_(disc),
        bins_(bins),
        num_rows_(num_rows),
        sample_rows_(sample_rows),
        sample_features_(sample_features),
        max_depth_(max_depth),
        min_child_samples_(min_child_samples),
        stride_(static_cast<std::size_t>(disc.MaxBins())),
        pool_(pool) {
    const std::size_t lanes =
        std::min(sample_features, pool == nullptr ? std::size_t{1} : pool->num_threads());
    lanes_.resize(lanes);
    owner_.resize(sample_features);
    for (std::size_t l = 0; l < lanes; ++l) {
      Lane& lane = lanes_[l];
      lane.first = l * sample_features / lanes;
      lane.width = (l + 1) * sample_features / lanes - lane.first;
      for (std::size_t i = 0; i < lane.width; ++i) owner_[lane.first + i] = l;
      for (auto& block : lane.block) block.resize(sample_rows * lane.width);
      lane.columns.resize(lane.width);
      lane.hist.resize(2 * lane.width * stride_);
    }
    for (auto& res : res_) res.resize(sample_rows);
    to_.resize(sample_rows);
  }

  /// Grows one tree on the rows rows[0, sample_rows) and the features
  /// features[0, sample_features), both in draw order, with residuals
  /// label - score. Returns its nodes, root first, children after their
  /// parent.
  const std::vector<GrowNode>& Grow(const std::size_t* rows, const int* features,
                                    const std::vector<uint8_t>& labels,
                                    const std::vector<double>& score) {
    rows_ = rows;
    features_ = features;
    nodes_.assign(1, GrowNode{});
    GrowNode& root = nodes_[0];
    root.end = sample_rows_;
    root.open = Open(root);
    root.slot = 0;
    for (std::size_t k = 0; k < sample_rows_; ++k) {
      const std::size_t r = rows[k];
      res_[0][k] = (labels[r] ? 1.0 : 0.0) - score[r];
      root.sum += res_[0][k];
    }
    cands_.assign(sample_features_, SplitCand{});
    if (root.open) RunLanes([&](std::size_t l) { GatherLane(l); });

    std::vector<int> level = {0};
    for (int cur = 0;; cur ^= 1) {
      // Choose each open node's split in feature order, and lay out its
      // children where the partition will put their rows.
      splits_.clear();
      std::vector<int> next;
      int slots = 0;
      for (const int g : level) {
        if (!nodes_[static_cast<std::size_t>(g)].open) continue;
        const SplitCand* cands =
            cands_.data() +
            static_cast<std::size_t>(nodes_[static_cast<std::size_t>(g)].slot) * sample_features_;
        double best_gain = 1e-10;
        int best = -1;
        for (std::size_t j = 0; j < sample_features_; ++j) {
          if (cands[j].bin >= 0 && cands[j].gain > best_gain) {
            best_gain = cands[j].gain;
            best = static_cast<int>(j);
          }
        }
        if (best < 0) continue;
        GrowNode& parent = nodes_[static_cast<std::size_t>(g)];
        parent.column = best;
        parent.bin = cands[best].bin;
        parent.left = static_cast<int>(nodes_.size());
        GrowNode left, right;
        left.begin = parent.begin;
        left.end = right.begin = parent.begin + cands[best].left_count;
        right.end = parent.end;
        left.depth = right.depth = parent.depth + 1;
        for (GrowNode* child : {&left, &right}) {
          child->open = Open(*child);
          if (child->open) child->slot = slots++;
        }
        splits_.push_back(g);
        next.push_back(parent.left);
        next.push_back(parent.left + 1);
        nodes_.push_back(left);  // Invalidates `parent`.
        nodes_.push_back(right);
      }
      if (splits_.empty()) break;
      Partition(cur);
      if (slots > 0) {
        cands_.assign(static_cast<std::size_t>(slots) * sample_features_, SplitCand{});
        RunLanes([&](std::size_t l) { SplitLane(l, cur); });
      }
      level = std::move(next);
    }
    return nodes_;
  }

 private:
  struct Lane {
    std::size_t first = 0;  // Its columns: [first, first + width) of the sampled features.
    std::size_t width = 0;
    // Its columns of the sampled rows, row-major; a level reads one buffer
    // and partitions into the other.
    std::vector<uint16_t> block[2];
    std::vector<const uint16_t*> columns;  // Its columns of the bin matrix.
    // Histograms of its columns for a node's two children: [child][column][bin].
    std::vector<Bin> hist;
  };

  bool Open(const GrowNode& node) const {
    return !(node.depth >= max_depth_ ||
             node.count() < 2 * static_cast<std::size_t>(min_child_samples_));
  }

  /// Runs fn(l) for every lane, lane 0 on this thread.
  void RunLanes(const std::function<void(std::size_t)>& fn) {
    if (lanes_.size() > 1) {
      pool_->ParallelFor(lanes_.size(), fn);
    } else {
      fn(0);
    }
  }

  /// Clears the lane's histograms of `child` (0 or 1).
  void ClearHistograms(Lane& lane, std::size_t child) const {
    for (std::size_t i = 0; i < lane.width; ++i) {
      const auto at = static_cast<std::ptrdiff_t>((child * lane.width + i) * stride_);
      const auto bins = static_cast<std::size_t>(disc_.NumBins(features_[lane.first + i]));
      std::fill_n(lane.hist.begin() + at, bins, Bin{});
    }
  }

  /// Adds one row (its bins in the lane's columns) to the histograms of
  /// `child`.
  void AddRow(Lane& lane, std::size_t child, const uint16_t* row_bins, double residual) const {
    Bin* hist = lane.hist.data() + child * lane.width * stride_;
    for (std::size_t i = 0; i < lane.width; ++i) {
      Bin& bin = hist[i * stride_ + row_bins[i]];
      bin.sum += residual;
      ++bin.count;
    }
  }

  /// Scans the lane's histograms of `child` into the candidate table row
  /// of `node`.
  void Scan(const Lane& lane, std::size_t child, const GrowNode& node) {
    for (std::size_t i = 0; i < lane.width; ++i) {
      const std::size_t j = lane.first + i;
      const int num_bins = disc_.NumBins(features_[j]);
      if (num_bins < 2) continue;
      const std::size_t at = (child * lane.width + i) * stride_;
      cands_[static_cast<std::size_t>(node.slot) * sample_features_ + j] =
          ScanHistogram(lane.hist.data() + at, num_bins, node.sum, node.count(),
                        min_child_samples_);
    }
  }

  /// Level 0: copies the lane's columns of the sampled rows out of the bin
  /// matrix into its block, filling the root's histograms, then scans them.
  void GatherLane(std::size_t l) {
    Lane& lane = lanes_[l];
    for (std::size_t i = 0; i < lane.width; ++i) {
      lane.columns[i] =
          bins_.data() + static_cast<std::size_t>(features_[lane.first + i]) * num_rows_;
    }
    ClearHistograms(lane, 0);
    for (std::size_t k = 0; k < sample_rows_; ++k) {
      const std::size_t r = rows_[k];
      uint16_t* row_bins = lane.block[0].data() + k * lane.width;
      for (std::size_t i = 0; i < lane.width; ++i) row_bins[i] = lane.columns[i][r];
      AddRow(lane, 0, row_bins, res_[0][k]);
    }
    Scan(lane, 0, nodes_[0]);
  }

  /// Between passes: the stable partition of every split node's rows (left
  /// child first) into the other buffer. Records each row's destination,
  /// moves the residuals, and adds up both children's residuals in row
  /// order.
  void Partition(int cur) {
    const double* res_in = res_[cur].data();
    double* res_out = res_[cur ^ 1].data();
    for (const int g : splits_) {
      const GrowNode& parent = nodes_[static_cast<std::size_t>(g)];
      const Lane& owner = lanes_[owner_[static_cast<std::size_t>(parent.column)]];
      const uint16_t* split =
          owner.block[cur].data() + (static_cast<std::size_t>(parent.column) - owner.first);
      GrowNode* child[2] = {&nodes_[static_cast<std::size_t>(parent.left)],
                            &nodes_[static_cast<std::size_t>(parent.left) + 1]};
      std::size_t to[2] = {child[0]->begin, child[1]->begin};
      for (std::size_t k = parent.begin; k < parent.end; ++k) {
        const std::size_t side = split[k * owner.width] <= parent.bin ? 0 : 1;
        const std::size_t d = to[side]++;
        to_[k] = static_cast<uint32_t>(d);
        res_out[d] = res_in[k];
        child[side]->sum += res_in[k];
      }
    }
  }

  /// Levels 1 and on: moves the lane's columns of every split node's rows
  /// to their partitioned places, filling both children's histograms on
  /// the way, then scans the open children's.
  void SplitLane(std::size_t l, int cur) {
    Lane& lane = lanes_[l];
    const uint16_t* in = lane.block[cur].data();
    uint16_t* out = lane.block[cur ^ 1].data();
    const double* res = res_[cur].data();
    for (const int g : splits_) {
      const GrowNode& parent = nodes_[static_cast<std::size_t>(g)];
      const GrowNode* child[2] = {&nodes_[static_cast<std::size_t>(parent.left)],
                                  &nodes_[static_cast<std::size_t>(parent.left) + 1]};
      if (!child[0]->open && !child[1]->open) continue;
      ClearHistograms(lane, 0);
      ClearHistograms(lane, 1);
      const std::size_t right_begin = child[1]->begin;
      for (std::size_t k = parent.begin; k < parent.end; ++k) {
        const std::size_t d = to_[k];
        const uint16_t* row_bins = in + k * lane.width;
        std::copy_n(row_bins, lane.width, out + d * lane.width);
        AddRow(lane, d >= right_begin ? 1 : 0, row_bins, res[k]);
      }
      for (std::size_t side = 0; side < 2; ++side) {
        if (child[side]->open) Scan(lane, side, *child[side]);
      }
    }
  }

  const Discretizer& disc_;
  const std::vector<uint16_t>& bins_;  // Column-major, num_rows_ rows.
  const std::size_t num_rows_;
  const std::size_t sample_rows_;
  const std::size_t sample_features_;
  const int max_depth_;
  const int min_child_samples_;
  const std::size_t stride_;  // Histogram bins per column: the widest feature's.
  ThreadPool* const pool_;
  std::vector<Lane> lanes_;
  std::vector<std::size_t> owner_;  // Lane holding each sampled column.
  std::vector<double> res_[2];      // Residuals of the rows, in block order.
  std::vector<uint32_t> to_;        // Where the partition puts each row.

  // The tree being grown.
  const std::size_t* rows_ = nullptr;
  const int* features_ = nullptr;
  std::vector<GrowNode> nodes_;
  std::vector<int> splits_;  // The nodes split at the level just chosen.
  // One row of sample_features_ candidates per open node of the level.
  std::vector<SplitCand> cands_;
};

}  // namespace

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

  // One pool for the whole fit; ParallelFor runs one of its blocks on
  // this thread.
  std::unique_ptr<ThreadPool> pool;
  if (options_.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(options_.num_threads));
  }

  TITANT_ASSIGN_OR_RETURN(discretizer_,
                          Discretizer::Fit(train, options_.max_bins, pool.get()));
  const std::vector<uint16_t> bins = discretizer_.TransformColumns(train, pool.get());

  base_score_ = train.PositiveRate();
  std::vector<double> score(n, base_score_);

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

  TreeGrower grower(discretizer_, bins, n, sample_rows, sample_features, options_.max_depth,
                    options_.min_child_samples, pool.get());

  // A tree's rows and features: a prefix of each shuffle, in draw order.
  // Only the shuffles draw from `rng`, so the next tree's run while this
  // tree's scores are updated.
  auto shuffle = [&] {
    rng.Shuffle(all_rows);
    rng.Shuffle(all_features);
  };
  shuffle();
  trees_.reserve(static_cast<std::size_t>(options_.num_trees));
  for (int t = 0; t < options_.num_trees; ++t) {
    const std::vector<GrowNode>& grown =
        grower.Grow(all_rows.data(), all_features.data(), labels, score);

    // Number the nodes as a depth-first build does: a split node's
    // children take the next two indices when it is visited, and the
    // right subtree is visited before the left.
    Tree tree;
    tree.nodes.resize(grown.size());
    struct Visit {
      int grown;
      int32_t index;
    };
    std::vector<Visit> stack = {{0, 0}};
    int32_t next_index = 1;
    while (!stack.empty()) {
      const Visit visit = stack.back();
      stack.pop_back();
      const GrowNode& from = grown[static_cast<std::size_t>(visit.grown)];
      Node& node = tree.nodes[static_cast<std::size_t>(visit.index)];
      if (from.column < 0) {
        node.value = LeafValue(options_.learning_rate, from.sum, from.count());
        continue;
      }
      node.feature = all_features[static_cast<std::size_t>(from.column)];
      node.bin_threshold = from.bin;
      node.left = next_index;
      node.right = next_index + 1;
      next_index += 2;
      stack.push_back({from.left, node.left});
      stack.push_back({from.left + 1, node.right});
    }

    // Update scores of *all* rows so the next residuals are consistent,
    // walking each row's bins: the leaf its raw values reach too (DESIGN.md
    // §16).
    AddTree(std::move(tree));
    const std::vector<Node>& nodes = trees_.back().nodes;
    auto update = [&](std::size_t block, std::size_t blocks) {
      for (std::size_t i = block * n / blocks; i < (block + 1) * n / blocks; ++i) {
        const Node* node = nodes.data();
        while (node->feature >= 0) {
          const uint16_t bin = bins[static_cast<std::size_t>(node->feature) * n + i];
          node = &nodes[static_cast<std::size_t>(bin <= node->bin_threshold ? node->left
                                                                           : node->right)];
        }
        score[i] += node->value;
      }
    };
    const bool last = t + 1 == options_.num_trees;
    if (pool) {
      // This thread shuffles; the workers update one block of rows each.
      const std::size_t blocks = pool->num_threads() - 1;
      pool->ParallelFor(blocks + 1, [&](std::size_t lane) {
        if (lane > 0) {
          update(lane - 1, blocks);
        } else if (!last) {
          shuffle();
        }
      });
    } else {
      update(0, 1);
      if (!last) shuffle();
    }
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
  ByteWriter w(&blob);
  w.I32(options_.num_trees);
  w.I32(options_.max_depth);
  w.I32(options_.max_bins);
  w.I32(options_.min_child_samples);
  w.I32(num_features_);
  w.F64(options_.learning_rate);
  w.F64(options_.row_subsample);
  w.F64(options_.feature_subsample);
  w.F64(base_score_);
  w.F64(final_train_rmse_);

  const std::string disc = discretizer_.Serialize();
  w.U64(disc.size());
  w.Bytes(disc);

  w.U32(static_cast<uint32_t>(trees_.size()));
  for (const auto& tree : trees_) {
    w.U64(tree.nodes.size());
    w.Array(tree.nodes.data(), tree.nodes.size());
  }
  return blob;
}

StatusOr<std::unique_ptr<GbdtModel>> GbdtModel::FromPayload(std::string_view payload) {
  ByteReader r(payload);
  GbdtOptions o;
  int32_t num_features = 0;
  double base_score = 0.0, final_train_rmse = 0.0;
  if (!r.I32(&o.num_trees) || !r.I32(&o.max_depth) || !r.I32(&o.max_bins) ||
      !r.I32(&o.min_child_samples) || !r.I32(&num_features) || !r.F64(&o.learning_rate) ||
      !r.F64(&o.row_subsample) || !r.F64(&o.feature_subsample) || !r.F64(&base_score) ||
      !r.F64(&final_train_rmse)) {
    return Status::Corruption("gbdt: truncated header");
  }
  auto model = std::make_unique<GbdtModel>(o);
  model->num_features_ = num_features;
  model->base_score_ = base_score;
  model->final_train_rmse_ = final_train_rmse;

  uint64_t disc_len = 0;
  std::string_view disc;
  if (!r.U64(&disc_len) || !r.Bytes(disc_len, &disc)) {
    return Status::Corruption("gbdt: truncated discretizer");
  }
  TITANT_ASSIGN_OR_RETURN(model->discretizer_, Discretizer::Deserialize(disc));
  if (model->discretizer_.num_features() != model->num_features_) {
    return Status::Corruption("gbdt: discretizer width differs from the header's");
  }

  // A model file may come off the wire: every node the scorer can reach
  // must index a real feature, cut and node, and every walk must end
  // within max_depth steps.
  uint32_t num_trees = 0;
  if (!r.U32(&num_trees) || num_trees > (1u << 22)) {
    return Status::Corruption("gbdt: bad tree count");
  }
  // The rest of the blob is trees, 20 bytes a node: sizes the layout once.
  model->flat_nodes_.reserve(r.remaining() / sizeof(Node));
  for (uint32_t t = 0; t < num_trees; ++t) {
    uint64_t num_nodes = 0;
    Tree tree;
    if (!r.U64(&num_nodes) || num_nodes == 0 ||
        num_nodes > uint64_t{INT32_MAX} - model->flat_nodes_.size() ||
        !r.Array(num_nodes, &tree.nodes)) {
      return Status::Corruption("gbdt: bad node count");
    }
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
  if (!r.done()) return Status::Corruption("gbdt: trailing bytes");
  return model;
}

}  // namespace titant::ml
