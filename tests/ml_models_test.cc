// Tests for the detection models: discretizer, trees (ID3/C5.0), isolation
// forest, logistic regression, GBDT, and the model-file registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "ml/decision_tree.h"
#include "ml/discretizer.h"
#include "ml/gbdt.h"
#include "ml/isolation_forest.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/model.h"
#include "ps/cluster.h"
#include "ps/gbdt_trainer.h"

namespace titant::ml {
namespace {

// A learnable binary task: y = 1 iff (x0 > 0.6 and x2 < 0.3) or x4 > 0.9,
// with noise features x1/x3 and 10% label noise.
DataMatrix MakeTask(std::size_t rows, uint64_t seed, double label_noise = 0.1) {
  Rng rng(seed);
  DataMatrix data(rows, 5);
  auto& labels = data.mutable_labels();
  labels.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (int c = 0; c < 5; ++c) data.Set(r, c, static_cast<float>(rng.NextDouble()));
    bool y = (data.At(r, 0) > 0.6f && data.At(r, 2) < 0.3f) || data.At(r, 4) > 0.9f;
    if (rng.Bernoulli(label_noise)) y = !y;
    labels[r] = y ? 1 : 0;
  }
  return data;
}

double TestAuc(const Model& model, const DataMatrix& test) {
  auto scores = model.ScoreAll(test);
  EXPECT_TRUE(scores.ok());
  auto auc = RocAuc(*scores, test.labels());
  EXPECT_TRUE(auc.ok());
  return auc.ok() ? *auc : 0.0;
}

// ---------------------------------------------------------------------------
// Discretizer
// ---------------------------------------------------------------------------

TEST(DiscretizerTest, EqualFrequencyBins) {
  DataMatrix data(1000, 1);
  Rng rng(1);
  for (std::size_t r = 0; r < 1000; ++r) data.Set(r, 0, static_cast<float>(rng.NextDouble()));
  const auto disc = Discretizer::Fit(data, 10);
  ASSERT_TRUE(disc.ok());
  EXPECT_EQ(disc->NumBins(0), 10);
  // Each bin holds roughly 10% of the data.
  std::vector<int> counts(10, 0);
  for (std::size_t r = 0; r < 1000; ++r) ++counts[static_cast<std::size_t>(disc->BinOf(0, data.At(r, 0)))];
  for (int c : counts) EXPECT_NEAR(c, 100, 35);
}

TEST(DiscretizerTest, BinsAreMonotone) {
  DataMatrix data(500, 1);
  Rng rng(2);
  for (std::size_t r = 0; r < 500; ++r) {
    data.Set(r, 0, static_cast<float>(rng.Gaussian(0, 10)));
  }
  const auto disc = Discretizer::Fit(data, 16);
  ASSERT_TRUE(disc.ok());
  int prev = -1;
  for (float x = -40.0f; x <= 40.0f; x += 0.5f) {
    const int bin = disc->BinOf(0, x);
    EXPECT_GE(bin, prev);
    EXPECT_LT(bin, disc->NumBins(0));
    prev = bin;
  }
}

TEST(DiscretizerTest, LowCardinalityShrinks) {
  DataMatrix data(100, 2);
  for (std::size_t r = 0; r < 100; ++r) {
    data.Set(r, 0, r % 2 == 0 ? 0.0f : 1.0f);  // Binary feature.
    data.Set(r, 1, 5.0f);                      // Constant feature.
  }
  const auto disc = Discretizer::Fit(data, 50);
  ASSERT_TRUE(disc.ok());
  EXPECT_EQ(disc->NumBins(0), 2);
  EXPECT_EQ(disc->NumBins(1), 1);
  EXPECT_EQ(disc->BinOf(0, 0.0f), 0);
  EXPECT_EQ(disc->BinOf(0, 1.0f), 1);
}

TEST(DiscretizerTest, SerializeRoundTrip) {
  const DataMatrix data = MakeTask(300, 3);
  const auto disc = Discretizer::Fit(data, 20);
  ASSERT_TRUE(disc.ok());
  const auto parsed = Discretizer::Deserialize(disc->Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_features(), disc->num_features());
  for (int f = 0; f < disc->num_features(); ++f) {
    EXPECT_EQ(parsed->NumBins(f), disc->NumBins(f));
    for (float x = -0.2f; x < 1.2f; x += 0.05f) {
      EXPECT_EQ(parsed->BinOf(f, x), disc->BinOf(f, x));
    }
  }
  EXPECT_EQ(parsed->OneHotWidth(), disc->OneHotWidth());
  EXPECT_FALSE(Discretizer::Deserialize("garbage").ok());
}

TEST(DiscretizerTest, OneHotOffsetsPartitionWidth) {
  const DataMatrix data = MakeTask(300, 4);
  const auto disc = Discretizer::Fit(data, 8);
  ASSERT_TRUE(disc.ok());
  std::size_t expect = 0;
  for (int f = 0; f < disc->num_features(); ++f) {
    EXPECT_EQ(disc->OneHotOffset(f), expect);
    expect += static_cast<std::size_t>(disc->NumBins(f));
  }
  EXPECT_EQ(disc->OneHotWidth(), expect);
}

// ---------------------------------------------------------------------------
// Model quality (parameterized over every supervised detector)
// ---------------------------------------------------------------------------

enum class Kind { kId3, kC50, kLr, kGbdt };

std::unique_ptr<Model> Make(Kind kind) {
  switch (kind) {
    case Kind::kId3:
      return MakeId3();
    case Kind::kC50:
      return MakeC50();
    case Kind::kLr:
      return std::make_unique<LogisticRegressionModel>();
    case Kind::kGbdt: {
      GbdtOptions o;
      o.num_trees = 120;
      return std::make_unique<GbdtModel>(o);
    }
  }
  return nullptr;
}

class SupervisedModelTest : public ::testing::TestWithParam<Kind> {};

TEST_P(SupervisedModelTest, LearnsTheTask) {
  const DataMatrix train = MakeTask(3000, 11);
  const DataMatrix test = MakeTask(1200, 12);
  auto model = Make(GetParam());
  ASSERT_TRUE(model->Train(train).ok());
  EXPECT_EQ(model->num_features(), 5);
  // LR sees the conjunction only through binned marginals; trees/GBDT
  // capture it directly and clear a higher bar.
  EXPECT_GT(TestAuc(*model, test), GetParam() == Kind::kLr ? 0.72 : 0.80);
}

TEST_P(SupervisedModelTest, ScoresAreProbabilities) {
  const DataMatrix train = MakeTask(800, 13);
  auto model = Make(GetParam());
  ASSERT_TRUE(model->Train(train).ok());
  for (std::size_t r = 0; r < 100; ++r) {
    const double s = model->Score(train.Row(r));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_P(SupervisedModelTest, RequiresLabels) {
  DataMatrix unlabeled(50, 5);
  auto model = Make(GetParam());
  EXPECT_FALSE(model->Train(unlabeled).ok());
}

TEST_P(SupervisedModelTest, SerializationPreservesScores) {
  const DataMatrix train = MakeTask(1000, 14);
  const DataMatrix test = MakeTask(200, 15);
  auto model = Make(GetParam());
  ASSERT_TRUE(model->Train(train).ok());
  const std::string blob = SerializeModel(*model);
  const auto restored = DeserializeModel(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->type_name(), model->type_name());
  for (std::size_t r = 0; r < test.num_rows(); ++r) {
    EXPECT_NEAR((*restored)->Score(test.Row(r)), model->Score(test.Row(r)), 1e-9);
  }
}

TEST_P(SupervisedModelTest, ScoreAllValidatesWidth) {
  const DataMatrix train = MakeTask(500, 16);
  auto model = Make(GetParam());
  ASSERT_TRUE(model->Train(train).ok());
  DataMatrix narrow(10, 3);
  EXPECT_TRUE(model->ScoreAll(narrow).status().IsInvalidArgument());
  DataMatrix wide(10, 9);
  EXPECT_TRUE(model->ScoreAll(wide).status().IsInvalidArgument());
}

TEST_P(SupervisedModelTest, ScoreBatchMatchesPerRowScore) {
  // The vectorized entry point must be bit-identical to the scalar one —
  // GBDT and LR override it with reordered loops, the rest inherit the
  // default row loop.
  const DataMatrix train = MakeTask(1200, 17);
  const DataMatrix test = MakeTask(300, 18);
  auto model = Make(GetParam());
  ASSERT_TRUE(model->Train(train).ok());
  std::vector<double> batch(test.num_rows());
  model->ScoreBatch(test.Row(0), static_cast<int>(test.num_rows()), batch.data());
  for (std::size_t r = 0; r < test.num_rows(); ++r) {
    EXPECT_EQ(batch[r], model->Score(test.Row(r))) << "row " << r;
  }
  // ScoreAll is ScoreBatch over the matrix.
  const auto all = model->ScoreAll(test);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, batch);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SupervisedModelTest,
                         ::testing::Values(Kind::kId3, Kind::kC50, Kind::kLr, Kind::kGbdt));

// ---------------------------------------------------------------------------
// Model-specific behaviour
// ---------------------------------------------------------------------------

TEST(DecisionTreeTest, C50PruningShrinksTheTree) {
  const DataMatrix train = MakeTask(2000, 21, /*label_noise=*/0.25);
  DecisionTreeOptions unpruned;
  unpruned.criterion = DecisionTreeOptions::Criterion::kGainRatio;
  unpruned.prune = false;
  DecisionTreeModel big(unpruned);
  ASSERT_TRUE(big.Train(train).ok());

  DecisionTreeOptions pruned = unpruned;
  pruned.prune = true;
  DecisionTreeModel small(pruned);
  ASSERT_TRUE(small.Train(train).ok());
  // Pruning must not leave more effective structure than the unpruned run.
  EXPECT_LE(small.TotalNodes(), big.TotalNodes());
}

TEST(DecisionTreeTest, BoostingAddsTrees) {
  const DataMatrix train = MakeTask(1500, 22);
  auto boosted = MakeC50(/*max_bins=*/12, /*boosting_trials=*/6);
  ASSERT_TRUE(boosted->Train(train).ok());
  EXPECT_GT(boosted->num_trees(), 1);
  auto single = MakeId3();
  ASSERT_TRUE(single->Train(train).ok());
  EXPECT_EQ(single->num_trees(), 1);
}

TEST(DecisionTreeTest, RejectsBadOptions) {
  DecisionTreeOptions o;
  o.max_bins = 1;
  DecisionTreeModel m(o);
  EXPECT_FALSE(m.Train(MakeTask(100, 23)).ok());
  o = DecisionTreeOptions();
  o.boosting_trials = 0;
  DecisionTreeModel m2(o);
  EXPECT_FALSE(m2.Train(MakeTask(100, 23)).ok());
}

TEST(IsolationForestTest, OutliersScoreHigher) {
  Rng rng(31);
  DataMatrix data(1024, 2);
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    data.Set(r, 0, static_cast<float>(rng.Gaussian(0.0, 1.0)));
    data.Set(r, 1, static_cast<float>(rng.Gaussian(0.0, 1.0)));
  }
  IsolationForestModel model;
  ASSERT_TRUE(model.Train(data).ok());
  EXPECT_EQ(model.num_trees(), 100);

  const float inlier[2] = {0.0f, 0.1f};
  const float outlier[2] = {9.0f, -8.0f};
  EXPECT_GT(model.Score(outlier), model.Score(inlier) + 0.1);
  EXPECT_GT(model.Score(outlier), 0.55);
}

TEST(IsolationForestTest, IgnoresLabels) {
  DataMatrix data = MakeTask(600, 32);
  IsolationForestModel model;
  EXPECT_TRUE(model.Train(data).ok());  // Labels present but unused.
  DataMatrix unlabeled(600, 5);
  for (std::size_t r = 0; r < 600; ++r) {
    for (int c = 0; c < 5; ++c) unlabeled.Set(r, c, data.At(r, c));
  }
  IsolationForestModel model2;
  EXPECT_TRUE(model2.Train(unlabeled).ok());
}

TEST(IsolationForestTest, ScoreAllValidatesWidthAndMatchesBatch) {
  // The unsupervised detector is not in the supervised param suite; cover
  // the same ScoreAll/ScoreBatch contract for its registry tag too.
  DataMatrix data = MakeTask(512, 34);
  IsolationForestModel model;
  ASSERT_TRUE(model.Train(data).ok());
  DataMatrix wrong(10, 2);
  EXPECT_TRUE(model.ScoreAll(wrong).status().IsInvalidArgument());
  std::vector<double> batch(data.num_rows());
  model.ScoreBatch(data.Row(0), static_cast<int>(data.num_rows()), batch.data());
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_EQ(batch[r], model.Score(data.Row(r)));
  }
}

TEST(IsolationForestTest, SerializationRoundTrip) {
  DataMatrix data = MakeTask(512, 33);
  IsolationForestModel model;
  ASSERT_TRUE(model.Train(data).ok());
  const auto restored = DeserializeModel(SerializeModel(model));
  ASSERT_TRUE(restored.ok());
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_NEAR((*restored)->Score(data.Row(r)), model.Score(data.Row(r)), 1e-12);
  }
}

TEST(LogisticRegressionTest, L1ZeroesNoiseWeights) {
  LogisticRegressionOptions options;
  options.iterations = 60;
  LogisticRegressionModel model(options);
  ASSERT_TRUE(model.Train(MakeTask(3000, 41)).ok());
  // With one-hot width in the hundreds and strong L1, a healthy share of
  // weights must be exactly zero.
  EXPECT_GT(model.ZeroWeights(), model.weights().size() / 10);
}

TEST(LogisticRegressionTest, RawModeAlsoLearns) {
  LogisticRegressionOptions options;
  options.discretize = false;
  options.iterations = 80;
  LogisticRegressionModel model(options);
  const DataMatrix train = MakeTask(2500, 42);
  const DataMatrix test = MakeTask(800, 43);
  ASSERT_TRUE(model.Train(train).ok());
  EXPECT_GT(TestAuc(model, test), 0.6);
}

TEST(LogisticRegressionTest, DiscretizationBeatsRawOnNonlinearTask) {
  // y depends on |x| — linear in x is useless, binned x is perfect.
  Rng rng(44);
  auto make = [&](std::size_t n) {
    DataMatrix d(n, 1);
    d.mutable_labels().resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      const double x = rng.Gaussian(0, 1);
      d.Set(r, 0, static_cast<float>(x));
      d.mutable_labels()[r] = std::fabs(x) > 1.0 ? 1 : 0;
    }
    return d;
  };
  const DataMatrix train = make(4000);
  const DataMatrix test = make(1000);
  LogisticRegressionOptions disc;
  disc.iterations = 60;
  LogisticRegressionModel with_bins(disc);
  ASSERT_TRUE(with_bins.Train(train).ok());
  LogisticRegressionOptions raw = disc;
  raw.discretize = false;
  LogisticRegressionModel without(raw);
  ASSERT_TRUE(without.Train(train).ok());
  EXPECT_GT(TestAuc(with_bins, test), TestAuc(without, test) + 0.2);
}

TEST(GbdtTest, MoreTreesFitTrainBetter) {
  const DataMatrix train = MakeTask(2000, 51);
  GbdtOptions small;
  small.num_trees = 20;
  GbdtModel a(small);
  ASSERT_TRUE(a.Train(train).ok());
  GbdtOptions big;
  big.num_trees = 200;
  GbdtModel b(big);
  ASSERT_TRUE(b.Train(train).ok());
  EXPECT_LT(b.final_train_rmse(), a.final_train_rmse());
}

TEST(GbdtTest, RejectsBadOptions) {
  GbdtOptions o;
  o.row_subsample = 0.0;
  GbdtModel m(o);
  EXPECT_FALSE(m.Train(MakeTask(100, 52)).ok());
  o = GbdtOptions();
  o.num_trees = 0;
  GbdtModel m2(o);
  EXPECT_FALSE(m2.Train(MakeTask(100, 52)).ok());
}

TEST(GbdtTest, DeterministicForSeed) {
  const DataMatrix train = MakeTask(1000, 53);
  GbdtOptions o;
  o.num_trees = 50;
  GbdtModel a(o), b(o);
  ASSERT_TRUE(a.Train(train).ok());
  ASSERT_TRUE(b.Train(train).ok());
  for (std::size_t r = 0; r < 100; ++r) {
    EXPECT_EQ(a.Score(train.Row(r)), b.Score(train.Row(r)));
  }
}


TEST(GbdtTest, FeatureImportanceFindsTheSignal) {
  // Task depends on x0, x2, x4 only; x1 and x3 are noise.
  const DataMatrix train = MakeTask(4000, 71, /*label_noise=*/0.0);
  GbdtOptions o;
  o.num_trees = 100;
  // Without feature subsampling every tree can pick the signal features,
  // so noise splits stay rare.
  o.feature_subsample = 1.0;
  o.row_subsample = 1.0;
  GbdtModel model(o);
  ASSERT_TRUE(model.Train(train).ok());
  const auto importance = model.FeatureImportance();
  ASSERT_GE(importance.size(), 3u);
  double shares[5] = {};
  double total = 0.0;
  for (const auto& [f, share] : importance) {
    shares[f] = share;
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // The three signal features together dominate the two noise features
  // (later boosting rounds fit residual noise, so the margin is moderate).
  EXPECT_GT(shares[0] + shares[2] + shares[4], shares[1] + shares[3]);
  EXPECT_GT(shares[0] + shares[2] + shares[4], 0.6);
  // Importance survives serialization.
  const auto restored = DeserializeModel(SerializeModel(model));
  ASSERT_TRUE(restored.ok());
  auto* gbdt = dynamic_cast<GbdtModel*>(restored->get());
  ASSERT_NE(gbdt, nullptr);
  EXPECT_EQ(gbdt->FeatureImportance(), importance);
}

// ---------------------------------------------------------------------------
// GBDT scoring layout: bit-exact against the bin-walking reference, and
// hostile model files
// ---------------------------------------------------------------------------

/// The scorer the flat layout replaced, kept as an independent reference:
/// it parses the payload itself, discretizes the whole row with
/// std::upper_bound, and walks the bins from each root.
struct ReferenceGbdt {
  struct Node {
    int32_t feature;  // -1 = leaf.
    int32_t bin_threshold;
    int32_t left;
    int32_t right;
    float value;
  };
  static_assert(sizeof(Node) == 20);

  int32_t max_depth = 0;
  int32_t num_features = 0;
  double base_score = 0.0;
  std::vector<std::vector<float>> cuts;
  std::vector<std::vector<Node>> trees;

  static ReferenceGbdt Parse(const std::string& payload) {
    ReferenceGbdt ref;
    std::size_t at = 0;
    auto take = [&](void* dst, std::size_t n) {
      if (n == 0) return;
      if (n > payload.size() - at) {
        ADD_FAILURE() << "payload too short";
        std::memset(dst, 0, n);
        return;
      }
      std::memcpy(dst, payload.data() + at, n);
      at += n;
    };
    int32_t header[5];
    double doubles[5];
    take(header, sizeof(header));
    take(doubles, sizeof(doubles));
    ref.max_depth = header[1];
    ref.num_features = header[4];
    ref.base_score = doubles[3];
    uint64_t disc_len = 0;
    take(&disc_len, sizeof(disc_len));
    uint32_t width = 0;
    take(&width, sizeof(width));
    ref.cuts.resize(width);
    for (auto& cuts : ref.cuts) {
      uint32_t k = 0;
      take(&k, sizeof(k));
      cuts.resize(k);
      take(cuts.data(), k * sizeof(float));
    }
    uint32_t num_trees = 0;
    take(&num_trees, sizeof(num_trees));
    ref.trees.resize(num_trees);
    for (auto& tree : ref.trees) {
      uint64_t num_nodes = 0;
      take(&num_nodes, sizeof(num_nodes));
      tree.resize(num_nodes);
      take(tree.data(), num_nodes * sizeof(Node));
    }
    EXPECT_EQ(at, payload.size());
    return ref;
  }

  /// Inverse of Parse: a payload with these fields (other options at
  /// their defaults), for hand-made model files.
  std::string Serialize() const {
    std::string blob;
    auto put = [&](const void* p, std::size_t n) {
      blob.append(static_cast<const char*>(p), n);
    };
    const int32_t header[] = {static_cast<int32_t>(trees.size()), max_depth, 64, 8,
                              num_features};
    const double doubles[] = {0.1, 0.4, 0.4, base_score, 0.0};
    put(header, sizeof(header));
    put(doubles, sizeof(doubles));
    uint64_t disc_len = sizeof(uint32_t);
    for (const auto& c : cuts) disc_len += sizeof(uint32_t) + c.size() * sizeof(float);
    put(&disc_len, sizeof(disc_len));
    const uint32_t width = static_cast<uint32_t>(cuts.size());
    put(&width, sizeof(width));
    for (const auto& c : cuts) {
      const uint32_t k = static_cast<uint32_t>(c.size());
      put(&k, sizeof(k));
      put(c.data(), c.size() * sizeof(float));
    }
    const uint32_t num_trees = static_cast<uint32_t>(trees.size());
    put(&num_trees, sizeof(num_trees));
    for (const auto& tree : trees) {
      const uint64_t num_nodes = tree.size();
      put(&num_nodes, sizeof(num_nodes));
      put(tree.data(), tree.size() * sizeof(Node));
    }
    return blob;
  }

  /// base_score plus every tree's leaf value, in tree order; unclamped.
  double Sum(const float* row) const {
    std::vector<uint16_t> bins(cuts.size());
    for (std::size_t f = 0; f < cuts.size(); ++f) {
      bins[f] = static_cast<uint16_t>(std::upper_bound(cuts[f].begin(), cuts[f].end(), row[f]) -
                                      cuts[f].begin());
    }
    double score = base_score;
    for (const auto& tree : trees) {
      const Node* node = &tree[0];
      while (node->feature >= 0) {
        node = &tree[static_cast<std::size_t>(
            bins[static_cast<std::size_t>(node->feature)] <=
                    static_cast<uint16_t>(node->bin_threshold)
                ? node->left
                : node->right)];
      }
      score += node->value;
    }
    return score;
  }

  double Score(const float* row) const { return std::clamp(Sum(row), 0.0, 1.0); }
};

/// The depth-first trainer the level-wise one replaced, kept as an
/// independent reference: its loop as it was, serial, with the test's own
/// node struct. It rescans each node's rows in the strided bin matrix
/// once per sampled feature, numbers children as it splits them (the
/// right subtree popped first), and updates the scores by walking the
/// bins. Returns the payload GbdtModel::SerializePayload writes.
std::string ReferenceTrainPayload(const DataMatrix& train, const GbdtOptions& options) {
  using Node = ReferenceGbdt::Node;
  const int num_features = train.num_cols();
  const std::size_t n = train.num_rows();
  const auto& labels = train.labels();

  const auto discretizer = Discretizer::Fit(train, options.max_bins);
  EXPECT_TRUE(discretizer.ok());
  const std::vector<uint16_t> bins = discretizer->Transform(train);

  const double base_score = train.PositiveRate();
  std::vector<double> score(n, base_score);
  std::vector<double> residual(n);

  Rng rng(options.seed);
  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<int> all_features(static_cast<std::size_t>(num_features));
  std::iota(all_features.begin(), all_features.end(), 0);

  const std::size_t sample_rows =
      std::max<std::size_t>(2, static_cast<std::size_t>(options.row_subsample *
                                                        static_cast<double>(n)));
  const std::size_t sample_features = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.feature_subsample * num_features));

  struct Partition {
    std::size_t node_idx;
    std::vector<std::size_t> rows;
    int depth;
  };
  struct SplitCand {
    double gain = 1e-10;
    int bin = -1;
  };

  std::vector<std::vector<Node>> trees;
  for (int t = 0; t < options.num_trees; ++t) {
    for (std::size_t i = 0; i < n; ++i) residual[i] = (labels[i] ? 1.0 : 0.0) - score[i];

    rng.Shuffle(all_rows);
    std::vector<std::size_t> rows(all_rows.begin(),
                                  all_rows.begin() + static_cast<std::ptrdiff_t>(sample_rows));
    rng.Shuffle(all_features);
    std::vector<int> features(all_features.begin(),
                              all_features.begin() +
                                  static_cast<std::ptrdiff_t>(sample_features));

    std::vector<Node> tree;
    tree.push_back({-1, 0, -1, -1, 0.0f});
    std::vector<Partition> stack;
    stack.push_back({0, std::move(rows), 0});

    while (!stack.empty()) {
      Partition part = std::move(stack.back());
      stack.pop_back();

      double sum = 0.0;
      for (std::size_t r : part.rows) sum += residual[r];
      const double count = static_cast<double>(part.rows.size());

      auto make_leaf = [&] {
        tree[part.node_idx].feature = -1;
        tree[part.node_idx].value =
            static_cast<float>(options.learning_rate * sum / std::max(1.0, count));
      };

      if (part.depth >= options.max_depth ||
          part.rows.size() < 2 * static_cast<std::size_t>(options.min_child_samples)) {
        make_leaf();
        continue;
      }

      const double parent_gain = sum * sum / count;
      auto scan_feature = [&](int f, std::vector<double>& hist_sum,
                              std::vector<uint32_t>& hist_cnt) -> SplitCand {
        SplitCand cand;
        const int nb = discretizer->NumBins(f);
        if (nb < 2) return cand;
        hist_sum.assign(static_cast<std::size_t>(nb), 0.0);
        hist_cnt.assign(static_cast<std::size_t>(nb), 0);
        for (std::size_t r : part.rows) {
          const uint16_t b =
              bins[r * static_cast<std::size_t>(num_features) + static_cast<std::size_t>(f)];
          hist_sum[b] += residual[r];
          ++hist_cnt[b];
        }
        double left_sum = 0.0;
        uint32_t left_cnt = 0;
        for (int b = 0; b + 1 < nb; ++b) {
          left_sum += hist_sum[b];
          left_cnt += hist_cnt[b];
          const uint32_t right_cnt = static_cast<uint32_t>(part.rows.size()) - left_cnt;
          if (left_cnt < static_cast<uint32_t>(options.min_child_samples) ||
              right_cnt < static_cast<uint32_t>(options.min_child_samples)) {
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
      std::vector<double> hist_sum;
      std::vector<uint32_t> hist_cnt;
      for (std::size_t j = 0; j < features.size(); ++j) {
        cands[j] = scan_feature(features[j], hist_sum, hist_cnt);
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
      for (std::size_t r : part.rows) {
        const uint16_t b = bins[r * static_cast<std::size_t>(num_features) +
                                static_cast<std::size_t>(best_feature)];
        (b <= static_cast<uint16_t>(best_bin) ? left_rows : right_rows).push_back(r);
      }

      tree[part.node_idx].feature = best_feature;
      tree[part.node_idx].bin_threshold = best_bin;
      const int32_t left_idx = static_cast<int32_t>(tree.size());
      tree.push_back({-1, 0, -1, -1, 0.0f});
      const int32_t right_idx = static_cast<int32_t>(tree.size());
      tree.push_back({-1, 0, -1, -1, 0.0f});
      tree[part.node_idx].left = left_idx;
      tree[part.node_idx].right = right_idx;
      stack.push_back({static_cast<std::size_t>(left_idx), std::move(left_rows), part.depth + 1});
      stack.push_back(
          {static_cast<std::size_t>(right_idx), std::move(right_rows), part.depth + 1});
    }

    // Every row's score, through the bins.
    for (std::size_t i = 0; i < n; ++i) {
      const uint16_t* row_bins = bins.data() + i * static_cast<std::size_t>(num_features);
      const Node* node = &tree[0];
      while (node->feature >= 0) {
        node = &tree[static_cast<std::size_t>(
            row_bins[node->feature] <= static_cast<uint16_t>(node->bin_threshold) ? node->left
                                                                                 : node->right)];
      }
      score[i] += node->value;
    }
    trees.push_back(std::move(tree));
  }

  double se = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (labels[i] ? 1.0 : 0.0) - score[i];
    se += d * d;
  }
  const double final_train_rmse = std::sqrt(se / static_cast<double>(n));

  std::string blob;
  auto put = [&](const void* p, std::size_t size) {
    blob.append(static_cast<const char*>(p), size);
  };
  const int32_t header[] = {options.num_trees, options.max_depth, options.max_bins,
                            options.min_child_samples, num_features};
  put(header, sizeof(header));
  const double doubles[] = {options.learning_rate, options.row_subsample,
                            options.feature_subsample, base_score, final_train_rmse};
  put(doubles, sizeof(doubles));
  const std::string disc = discretizer->Serialize();
  const uint64_t disc_len = disc.size();
  put(&disc_len, sizeof(disc_len));
  blob += disc;
  const uint32_t num_trees = static_cast<uint32_t>(trees.size());
  put(&num_trees, sizeof(num_trees));
  for (const auto& tree : trees) {
    const uint64_t num_nodes = tree.size();
    put(&num_nodes, sizeof(num_nodes));
    put(tree.data(), tree.size() * sizeof(Node));
  }
  return blob;
}

/// Row-major probe rows that give every feature each value a raw-value
/// comparison could get wrong: NaN, ±inf, ±0, every cut and both of its
/// float neighbours, values beyond the outer cuts, and huge magnitudes.
std::vector<float> ProbeRows(const std::vector<std::vector<float>>& cuts) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::vector<float>> values(cuts.size());
  std::size_t longest = 0;
  for (std::size_t f = 0; f < cuts.size(); ++f) {
    std::vector<float>& v = values[f];
    v = {std::numeric_limits<float>::quiet_NaN(), inf, -inf, 0.0f, -0.0f, FLT_MAX, -FLT_MAX,
         FLT_TRUE_MIN, -FLT_TRUE_MIN, 1e30f, -1e30f};
    for (const float c : cuts[f]) {
      v.push_back(c);
      v.push_back(std::nextafter(c, inf));
      v.push_back(std::nextafter(c, -inf));
    }
    if (!cuts[f].empty()) {
      v.push_back(cuts[f].front() - 1.0f);
      v.push_back(cuts[f].back() + 1.0f);
    }
    longest = std::max(longest, v.size());
  }
  // Every value of every feature appears in the first `longest` rows; the
  // second half pairs them differently.
  std::vector<float> rows;
  for (std::size_t r = 0; r < 2 * longest; ++r) {
    for (std::size_t f = 0; f < cuts.size(); ++f) {
      const std::size_t pick = r < longest ? r + 7 * f : 3 * r + f;
      rows.push_back(values[f][pick % values[f].size()]);
    }
  }
  return rows;
}

/// Compares Score and ScoreBatch (every batch size in `batches`) with the
/// reference by the bits of each double.
void ExpectBitExact(const GbdtModel& model, const std::string& what,
                    const std::vector<int>& batches = {1, 3, 16, 17}) {
  const ReferenceGbdt ref = ReferenceGbdt::Parse(model.SerializePayload());
  ASSERT_EQ(ref.cuts.size(), static_cast<std::size_t>(model.num_features()));
  const std::size_t width = ref.cuts.size();
  const std::vector<float> rows = ProbeRows(ref.cuts);
  const std::size_t n = rows.size() / width;
  std::vector<double> want(n);
  for (std::size_t r = 0; r < n; ++r) want[r] = ref.Score(rows.data() + r * width);

  std::size_t mismatches = 0;
  std::string first;
  auto check = [&](std::size_t r, double got, const char* path) {
    if (std::memcmp(&got, &want[r], sizeof(double)) == 0) return;
    if (mismatches++ == 0) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s row %zu: %.17g vs reference %.17g", path, r, got,
                    want[r]);
      first = buf;
    }
  };
  for (std::size_t r = 0; r < n; ++r) check(r, model.Score(rows.data() + r * width), "Score");
  std::vector<double> out(n);
  for (const int batch : batches) {
    for (std::size_t r = 0; r < n; r += static_cast<std::size_t>(batch)) {
      const int count = static_cast<int>(std::min<std::size_t>(batch, n - r));
      model.ScoreBatch(rows.data() + r * width, count, out.data() + r);
    }
    for (std::size_t r = 0; r < n; ++r) check(r, out[r], "ScoreBatch");
  }
  EXPECT_EQ(mismatches, 0u) << what << ": " << first;
}

/// Six features of different shapes: uniform, signed with many exact
/// zeros, small integers, binary, heavy-tailed, and constant.
DataMatrix MakeMixedTask(std::size_t rows, uint64_t seed) {
  Rng rng(seed);
  DataMatrix data(rows, 6);
  auto& labels = data.mutable_labels();
  labels.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const double g = rng.Gaussian(0, 10);
    data.Set(r, 0, static_cast<float>(rng.NextDouble()));
    data.Set(r, 1, rng.Bernoulli(0.3) ? 0.0f : static_cast<float>(g));
    data.Set(r, 2, static_cast<float>(rng.Uniform(5)));
    data.Set(r, 3, static_cast<float>(rng.Uniform(2)));
    data.Set(r, 4, static_cast<float>(std::exp(rng.Gaussian(0, 3))));
    data.Set(r, 5, 2.5f);
    bool y = (data.At(r, 0) > 0.6f && data.At(r, 1) < 0.0f) || data.At(r, 2) > 3.0f ||
             data.At(r, 4) > 50.0f;
    if (rng.Bernoulli(0.1)) y = !y;
    labels[r] = y ? 1 : 0;
  }
  return data;
}

TEST(GbdtScoringTest, BitExactWithBinWalkingReference) {
  const DataMatrix train = MakeMixedTask(800, 81);
  for (const int depth : {1, 2, 3, 6}) {
    for (const int max_bins : {2, 16, 64, 255}) {
      for (const int trees : {1, 7, 8, 9, 400}) {
        GbdtOptions o;
        o.num_trees = trees;
        o.max_depth = depth;
        o.max_bins = max_bins;
        o.min_child_samples = 2;
        GbdtModel model(o);
        ASSERT_TRUE(model.Train(train).ok());
        const std::string what = "depth " + std::to_string(depth) + ", bins " +
                                 std::to_string(max_bins) + ", trees " + std::to_string(trees);
        ExpectBitExact(model, "Train, " + what);
        const auto loaded = GbdtModel::FromPayload(model.SerializePayload());
        ASSERT_TRUE(loaded.ok()) << what << ": " << loaded.status().ToString();
        ExpectBitExact(**loaded, "FromPayload, " + what, {1, 17});
      }
    }
  }
}

/// Eight features that stress the trainer: uniform, NaN-laced, small
/// integers (many ties), ±inf-laced, constant, binary, heavy-tailed, and a
/// copy of the first. The copy's split gains equal its twin's bit for bit
/// only while both histograms add the same rows in the same order; the
/// twin that comes first in the tree's feature order wins the tie.
DataMatrix MakeHostileTask(std::size_t rows, uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(seed);
  DataMatrix data(rows, 8);
  auto& labels = data.mutable_labels();
  labels.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    data.Set(r, 0, static_cast<float>(rng.NextDouble()));
    data.Set(r, 1, rng.Bernoulli(0.1) ? std::numeric_limits<float>::quiet_NaN()
                                      : static_cast<float>(rng.Gaussian(0, 10)));
    data.Set(r, 2, static_cast<float>(rng.Uniform(5)));
    const double u = rng.NextDouble();
    data.Set(r, 3, u < 0.05 ? inf : u < 0.1 ? -inf : static_cast<float>(u));
    data.Set(r, 4, 2.5f);
    data.Set(r, 5, static_cast<float>(rng.Uniform(2)));
    data.Set(r, 6, static_cast<float>(std::exp(rng.Gaussian(0, 3))));
    data.Set(r, 7, data.At(r, 0));
    bool y = (data.At(r, 0) > 0.6f && data.At(r, 2) < 2.0f) || data.At(r, 3) > 0.9f ||
             data.At(r, 6) > 50.0f;
    if (rng.Bernoulli(0.1)) y = !y;
    labels[r] = y ? 1 : 0;
  }
  return data;
}

TEST(GbdtTrainingTest, EveryThreadCountWritesTheDepthFirstReferencePayload) {
  // 4 rows (the minimum), 37 (every node smaller than 2 * 100), and 3,000.
  // Feature subsampling 0.4 samples 3 of the 8 features, fewer than most
  // thread counts here.
  int cases = 0;
  for (const std::size_t rows : {std::size_t{4}, std::size_t{37}, std::size_t{3000}}) {
    const DataMatrix train = MakeHostileTask(rows, 90 + rows);
    for (const int depth : {1, 3, 6}) {
      for (const int max_bins : {2, 16, 64, 255}) {
        for (const int min_child : {1, 8, 100}) {
          for (const double subsample : {0.4, 1.0}) {
            GbdtOptions o;
            o.num_trees = 6;
            o.max_depth = depth;
            o.max_bins = max_bins;
            o.min_child_samples = min_child;
            o.row_subsample = subsample;
            o.feature_subsample = subsample;
            o.seed = 91 + static_cast<uint64_t>(cases);
            const std::string want = ReferenceTrainPayload(train, o);
            const std::string what = std::to_string(rows) + " rows, depth " +
                                     std::to_string(depth) + ", bins " +
                                     std::to_string(max_bins) + ", min_child " +
                                     std::to_string(min_child) + ", subsample " +
                                     std::to_string(subsample);
            for (const int threads : {1, 2, 3, 4, 8}) {
              o.num_threads = threads;
              GbdtModel model(o);
              ASSERT_TRUE(model.Train(train).ok()) << what;
              EXPECT_TRUE(model.SerializePayload() == want) << what << ", " << threads
                                                            << " threads";
            }
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 216);
}

TEST(GbdtScoringTest, DistributedTrainerModelIsBitExact) {
  const DataMatrix train = MakeMixedTask(1200, 82);
  GbdtOptions o;
  o.num_trees = 41;
  o.max_bins = 255;
  ps::KunPengCluster cluster(2, 2);
  ps::DistributedGbdtTrainer trainer(cluster, o);
  const auto model = trainer.Train(train);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExpectBitExact(**model, "DistributedGbdtTrainer");
}

TEST(GbdtScoringTest, TrainingRmseMatchesTheReferenceWalk) {
  // Train updates its scores through the flat layout on raw rows; the
  // reference walks the same rows' bins. Both must give the same RMSE.
  const DataMatrix train = MakeMixedTask(600, 83);
  GbdtOptions o;
  o.num_trees = 30;
  GbdtModel model(o);
  ASSERT_TRUE(model.Train(train).ok());
  const ReferenceGbdt ref = ReferenceGbdt::Parse(model.SerializePayload());
  double se = 0.0;
  for (std::size_t r = 0; r < train.num_rows(); ++r) {
    const double d = train.labels()[r] - ref.Sum(train.Row(r));  // Unclamped, as in Train.
    se += d * d;
  }
  EXPECT_EQ(model.final_train_rmse(), std::sqrt(se / static_cast<double>(train.num_rows())));
}

/// A valid hand-made model: one feature with cuts {0.5, 1.5}, one depth-2
/// tree.
ReferenceGbdt SmallSpec() {
  ReferenceGbdt spec;
  spec.max_depth = 3;
  spec.num_features = 1;
  spec.base_score = 0.25;
  spec.cuts = {{0.5f, 1.5f}};
  spec.trees = {{{0, 0, 1, 2, 0.0f},
                 {-1, 0, -1, -1, 0.125f},
                 {0, 1, 3, 4, 0.0f},
                 {-1, 0, -1, -1, 0.25f},
                 {-1, 0, -1, -1, 0.5f}}};
  return spec;
}

TEST(GbdtHostileBlobTest, HandMadeSpecLoadsAndMatchesReference) {
  const ReferenceGbdt spec = SmallSpec();
  const auto model = GbdtModel::FromPayload(spec.Serialize());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  for (const float x : {0.0f, 0.5f, 1.0f, 1.5f, 9.0f}) {
    EXPECT_EQ((*model)->Score(&x), spec.Score(&x)) << x;
  }
  EXPECT_EQ((*model)->Score(std::vector<float>{1.0f}.data()), 0.5);
  ExpectBitExact(**model, "hand-made");
}

TEST(GbdtHostileBlobTest, RejectsSplitFeatureOutOfRange) {
  for (const int32_t feature : {1'000'000, 1, -2}) {
    ReferenceGbdt spec = SmallSpec();
    spec.trees[0][0].feature = feature;
    EXPECT_TRUE(GbdtModel::FromPayload(spec.Serialize()).status().IsCorruption()) << feature;
  }
}

TEST(GbdtHostileBlobTest, RejectsChildNotAfterItsParent) {
  ReferenceGbdt own = SmallSpec();
  own.trees[0][0].left = 0;  // The root is its own child: a walk never ends.
  EXPECT_TRUE(GbdtModel::FromPayload(own.Serialize()).status().IsCorruption());
  ReferenceGbdt back = SmallSpec();
  back.trees[0][2].right = 1;  // Points to an earlier node.
  EXPECT_TRUE(GbdtModel::FromPayload(back.Serialize()).status().IsCorruption());
  ReferenceGbdt past = SmallSpec();
  past.trees[0][2].right = 5;  // Past the last node.
  EXPECT_TRUE(GbdtModel::FromPayload(past.Serialize()).status().IsCorruption());
}

TEST(GbdtHostileBlobTest, RejectsTreeDeeperThanMaxDepth) {
  ReferenceGbdt spec = SmallSpec();
  spec.max_depth = 1;  // The tree is depth 2.
  EXPECT_TRUE(GbdtModel::FromPayload(spec.Serialize()).status().IsCorruption());
  spec.max_depth = 2;
  EXPECT_TRUE(GbdtModel::FromPayload(spec.Serialize()).ok());
}

TEST(GbdtHostileBlobTest, RejectsBinThresholdOutsideTheCuts) {
  for (const int32_t threshold : {2, -1, 1 << 20}) {  // NumBins(0) = 3: valid are 0 and 1.
    ReferenceGbdt spec = SmallSpec();
    spec.trees[0][2].bin_threshold = threshold;
    EXPECT_TRUE(GbdtModel::FromPayload(spec.Serialize()).status().IsCorruption()) << threshold;
  }
}

TEST(GbdtHostileBlobTest, RejectsDiscretizerWiderThanTheHeader) {
  // A 5,000-feature discretizer behind a header of 1, and of 84.
  for (const int32_t header_width : {1, 84}) {
    ReferenceGbdt spec = SmallSpec();
    spec.cuts.resize(5000, {0.5f, 1.5f});
    spec.num_features = header_width;
    EXPECT_TRUE(GbdtModel::FromPayload(spec.Serialize()).status().IsCorruption())
        << header_width;
  }
  ReferenceGbdt narrow = SmallSpec();
  narrow.num_features = 2;
  EXPECT_TRUE(GbdtModel::FromPayload(narrow.Serialize()).status().IsCorruption());
}

TEST(GbdtHostileBlobTest, RejectsCutsThatDoNotStrictlyIncrease) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::vector<float>& cuts : std::vector<std::vector<float>>{
           {0.5f, 0.5f}, {1.5f, 0.5f}, {nan, 1.5f}, {0.5f, nan}}) {
    ReferenceGbdt spec = SmallSpec();
    spec.cuts[0] = cuts;
    EXPECT_TRUE(GbdtModel::FromPayload(spec.Serialize()).status().IsCorruption());
  }
  ReferenceGbdt single = SmallSpec();
  single.cuts[0] = {nan};
  single.trees = {{{-1, 0, -1, -1, 0.5f}}};
  EXPECT_TRUE(GbdtModel::FromPayload(single.Serialize()).status().IsCorruption());
}

TEST(GbdtHostileBlobTest, EveryPrefixOfATrainedBlobFails) {
  GbdtOptions o;
  o.num_trees = 12;
  GbdtModel model(o);
  ASSERT_TRUE(model.Train(MakeTask(400, 84)).ok());
  const std::string blob = model.SerializePayload();
  ASSERT_TRUE(GbdtModel::FromPayload(blob).ok());
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(GbdtModel::FromPayload(blob.substr(0, len)).ok()) << len;
  }
}

TEST(GbdtHostileBlobTest, BitFlippedBlobsFailToLoadOrScoreLikeTheReference) {
  GbdtOptions o;
  o.num_trees = 12;
  GbdtModel model(o);
  ASSERT_TRUE(model.Train(MakeTask(400, 85)).ok());
  const std::string blob = model.SerializePayload();
  Rng rng(86);
  int loaded = 0;
  int rejected = 0;
  for (int mutant = 0; mutant < 3000; ++mutant) {
    std::string bad = blob;
    const int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < flips; ++i) {
      const uint64_t bit = rng.Uniform(bad.size() * 8);
      bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    }
    const auto parsed = GbdtModel::FromPayload(bad);
    if (!parsed.ok()) {
      ++rejected;
      continue;
    }
    ++loaded;
    // A model that loads is a valid one, so the reference applies to it.
    ExpectBitExact(**parsed, "mutant " + std::to_string(mutant), {1, 16});
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Hostile ID3 / C5.0 / Isolation Forest model files
// ---------------------------------------------------------------------------

/// Byte offset of the first tree's root node in a decision-tree payload:
/// six int32 options, a double, a float, the discretizer's length and
/// bytes, the tree count, then the first tree's alpha and node count.
std::size_t DtreeRootOffset(const std::string& payload) {
  std::size_t at = 6 * sizeof(int32_t) + sizeof(double) + sizeof(float);
  uint64_t disc_len = 0;
  std::memcpy(&disc_len, payload.data() + at, sizeof(disc_len));
  return at + sizeof(disc_len) + disc_len + sizeof(uint32_t) + sizeof(double) + sizeof(uint64_t);
}

/// The same for an Isolation Forest payload: four int32s, the normalizer,
/// the tree count and the first tree's node count.
constexpr std::size_t kIforestRootOffset =
    4 * sizeof(int32_t) + sizeof(double) + sizeof(uint32_t) + sizeof(uint64_t);

/// Both tree node layouts start with int32 feature, a 4-byte test, int32
/// left and int32 right.
void PatchNode(std::string* payload, std::size_t at, int32_t feature, int32_t left,
               int32_t right) {
  std::memcpy(payload->data() + at, &feature, sizeof(feature));
  std::memcpy(payload->data() + at + 8, &left, sizeof(left));
  std::memcpy(payload->data() + at + 12, &right, sizeof(right));
}

int32_t NodeFeature(const std::string& payload, std::size_t at) {
  int32_t feature = 0;
  std::memcpy(&feature, payload.data() + at, sizeof(feature));
  return feature;
}

std::unique_ptr<Model> TrainedTreeModel(const std::string& kind, uint64_t seed) {
  std::unique_ptr<Model> model;
  if (kind == "id3") model = MakeId3();
  if (kind == "c50") model = MakeC50(12, 3);
  if (kind == "iforest") {
    IsolationForestOptions o;
    o.num_trees = 6;
    o.subsample_size = 64;
    model = std::make_unique<IsolationForestModel>(o);
  }
  EXPECT_TRUE(model->Train(MakeTask(300, seed)).ok()) << kind;
  return model;
}

StatusOr<std::unique_ptr<Model>> LoadPayload(const std::string& kind, const std::string& payload) {
  if (kind == "iforest") {
    TITANT_ASSIGN_OR_RETURN(auto model, IsolationForestModel::FromPayload(payload));
    return std::unique_ptr<Model>(std::move(model));
  }
  TITANT_ASSIGN_OR_RETURN(auto model, DecisionTreeModel::FromPayload(payload));
  return std::unique_ptr<Model>(std::move(model));
}

/// Scores rows of hostile values (NaN, ±inf, ±0, huge, in-range) through
/// Score, ScoreBatch and, for decision trees, DumpRules. A model that
/// loaded must answer all of them, without a hang or a sanitizer report.
void ScoreHostileRows(const Model& model) {
  ASSERT_GE(model.num_features(), 0);
  const std::size_t width = static_cast<std::size_t>(model.num_features());
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> values = {std::numeric_limits<float>::quiet_NaN(), inf, -inf, 0.0f,
                                     -0.0f, 0.3f, 0.61f, 0.95f, 1e30f, -1e30f};
  std::vector<float> rows(values.size() * width);
  for (std::size_t r = 0; r < values.size(); ++r) {
    for (std::size_t f = 0; f < width; ++f) {
      rows[r * width + f] = values[(r + 3 * f) % values.size()];
    }
  }
  std::vector<double> out(values.size());
  model.ScoreBatch(rows.data(), static_cast<int>(values.size()), out.data());
  for (std::size_t r = 0; r < values.size(); ++r) {
    const double score = model.Score(rows.data() + r * width);
    EXPECT_TRUE(std::memcmp(&score, &out[r], sizeof(score)) == 0 || std::isnan(score));
  }
  if (const auto* tree = dynamic_cast<const DecisionTreeModel*>(&model)) {
    tree->DumpRules(std::vector<std::string>(width, "x"), 0.0);
  }
}

TEST(TreeModelHostileBlobTest, Id3RootThatIsItsOwnChildIsRejected) {
  // It used to load, and Score never returned.
  const auto model = TrainedTreeModel("id3", 87);
  std::string blob = model->SerializePayload();
  const std::size_t root = DtreeRootOffset(blob);
  ASSERT_GE(NodeFeature(blob, root), 0);
  PatchNode(&blob, root, NodeFeature(blob, root), 0, 0);
  EXPECT_TRUE(DecisionTreeModel::FromPayload(blob).status().IsCorruption());
}

TEST(TreeModelHostileBlobTest, Id3HeaderNarrowerThanItsDiscretizerIsRejected) {
  // A header of 2 features over the 5-feature discretizer used to load,
  // and Score binned 5 features into 2 slots.
  const auto model = TrainedTreeModel("id3", 88);
  for (const int32_t width : {2, 6, -1}) {
    std::string blob = model->SerializePayload();
    std::memcpy(blob.data() + 5 * sizeof(int32_t), &width, sizeof(width));
    EXPECT_TRUE(DecisionTreeModel::FromPayload(blob).status().IsCorruption()) << width;
  }
}

TEST(TreeModelHostileBlobTest, SplitsAndChildrenOutOfRangeAreRejected) {
  for (const std::string kind : {"id3", "iforest"}) {
    const auto model = TrainedTreeModel(kind, 89);
    const std::string blob = model->SerializePayload();
    const std::size_t root = kind == "iforest" ? kIforestRootOffset : DtreeRootOffset(blob);
    const int32_t feature = NodeFeature(blob, root);
    ASSERT_GE(feature, 0) << kind;
    int32_t left = 0, right = 0;
    std::memcpy(&left, blob.data() + root + 8, sizeof(left));
    std::memcpy(&right, blob.data() + root + 12, sizeof(right));
    for (const auto& [f, l, r] : std::vector<std::tuple<int32_t, int32_t, int32_t>>{
             {5, left, right},            // Past the 5 features.
             {-2, left, right},           // Negative, and not the leaf mark.
             {feature, 0, right},         // The root is its own child.
             {feature, left, 1 << 20}}) {  // Past the tree's last node.
      std::string bad = blob;
      PatchNode(&bad, root, f, l, r);
      EXPECT_TRUE(LoadPayload(kind, bad).status().IsCorruption())
          << kind << " " << f << " " << l << " " << r;
    }
  }
}

TEST(TreeModelHostileBlobTest, CountsTheBlobCannotHoldAreRejected) {
  for (const std::string kind : {"id3", "iforest"}) {
    const auto model = TrainedTreeModel(kind, 90);
    const std::string blob = model->SerializePayload();
    const std::size_t root = kind == "iforest" ? kIforestRootOffset : DtreeRootOffset(blob);
    const std::size_t trees_at = root - sizeof(uint64_t) -
                                 (kind == "iforest" ? 0 : sizeof(double)) - sizeof(uint32_t);
    for (const uint32_t trees : {1u << 20, ~0u}) {
      std::string bad = blob;
      std::memcpy(bad.data() + trees_at, &trees, sizeof(trees));
      EXPECT_TRUE(LoadPayload(kind, bad).status().IsCorruption()) << kind << " " << trees;
    }
    for (const uint64_t nodes : {uint64_t{1} << 32, ~uint64_t{0}}) {
      std::string bad = blob;
      std::memcpy(bad.data() + root - sizeof(uint64_t), &nodes, sizeof(nodes));
      EXPECT_TRUE(LoadPayload(kind, bad).status().IsCorruption()) << kind << " " << nodes;
    }
  }
}

TEST(TreeModelHostileBlobTest, EveryPrefixOfATrainedBlobFails) {
  for (const std::string kind : {"id3", "c50", "iforest"}) {
    const auto model = TrainedTreeModel(kind, 91);
    const std::string blob = model->SerializePayload();
    ASSERT_TRUE(LoadPayload(kind, blob).ok()) << kind;
    for (std::size_t len = 0; len < blob.size(); ++len) {
      EXPECT_FALSE(LoadPayload(kind, blob.substr(0, len)).ok()) << kind << " " << len;
    }
  }
}

TEST(TreeModelHostileBlobTest, BitFlippedBlobsFailToLoadOrScoreSafely) {
  for (const std::string kind : {"id3", "c50", "iforest"}) {
    const auto model = TrainedTreeModel(kind, 92);
    const std::string blob = model->SerializePayload();
    Rng rng(93);
    int loaded = 0;
    int rejected = 0;
    for (int mutant = 0; mutant < 3000; ++mutant) {
      std::string bad = blob;
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < flips; ++i) {
        const uint64_t bit = rng.Uniform(bad.size() * 8);
        bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
      }
      const auto parsed = LoadPayload(kind, bad);
      if (!parsed.ok()) {
        ++rejected;
        continue;
      }
      ++loaded;
      // An Isolation Forest's width comes from its header alone; a width
      // no serving layout has is never scored.
      if ((*parsed)->num_features() < 0 || (*parsed)->num_features() > 4096) continue;
      ScoreHostileRows(**parsed);
    }
    EXPECT_GT(loaded, 0) << kind;
    EXPECT_GT(rejected, 0) << kind;
  }
}

TEST(DecisionTreeTest, DumpRulesDescribesHighRiskLeaves) {
  const DataMatrix train = MakeTask(3000, 72, /*label_noise=*/0.0);
  auto model = MakeId3(16);
  ASSERT_TRUE(model->Train(train).ok());
  const std::vector<std::string> names = {"x0", "x1", "x2", "x3", "x4"};
  const auto rules = model->DumpRules(names, 0.6);
  ASSERT_FALSE(rules.empty());
  // Rules are IF/THEN, reference real feature names, sorted by confidence.
  for (const auto& rule : rules) {
    EXPECT_EQ(rule.rfind("IF ", 0), 0u) << rule;
    EXPECT_NE(rule.find("THEN fraud"), std::string::npos) << rule;
  }
  bool mentions_signal = false;
  for (const auto& rule : rules) {
    if (rule.find("x0") != std::string::npos || rule.find("x4") != std::string::npos) {
      mentions_signal = true;
    }
  }
  EXPECT_TRUE(mentions_signal);
  // Mismatched name table -> empty, not UB.
  EXPECT_TRUE(model->DumpRules({"only_one"}).empty());
}


TEST(DataMatrixTest, BasicAccessorsAndPositiveRate) {
  DataMatrix m(4, 2);
  m.Set(1, 0, 3.5f);
  m.Set(3, 1, -2.0f);
  EXPECT_EQ(m.At(1, 0), 3.5f);
  EXPECT_EQ(m.Row(3)[1], -2.0f);
  EXPECT_FALSE(m.has_labels());
  EXPECT_EQ(m.PositiveRate(), 0.0);
  m.mutable_labels() = {1, 0, 0, 1};
  EXPECT_TRUE(m.has_labels());
  EXPECT_DOUBLE_EQ(m.PositiveRate(), 0.5);
  m.mutable_column_names() = {"a", "b"};
  EXPECT_EQ(m.column_names()[1], "b");
}

TEST(RegistryTest, RejectsCorruptBlobs) {
  EXPECT_FALSE(DeserializeModel("").ok());
  EXPECT_FALSE(DeserializeModel("junk").ok());
  auto model = MakeId3();
  ASSERT_TRUE(model->Train(MakeTask(200, 61)).ok());
  std::string blob = SerializeModel(*model);
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(DeserializeModel(blob).ok());
}

}  // namespace
}  // namespace titant::ml
