// Tests for the network representation learning stack: embedding storage,
// skip-gram training and Structure2Vec.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/alias_table.h"
#include "common/random.h"
#include "graph/random_walk.h"
#include "nrl/deepwalk.h"
#include "nrl/embedding.h"
#include "nrl/line.h"
#include "nrl/struct2vec.h"
#include "nrl/word2vec.h"

namespace titant::nrl {
namespace {

TEST(EmbeddingTest, SerializeRoundTrip) {
  EmbeddingMatrix m(3, 4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) m.Row(r)[c] = static_cast<float>(r * 10 + c);
  }
  const auto parsed = EmbeddingMatrix::Deserialize(m.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows(), 3u);
  EXPECT_EQ(parsed->dim(), 4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(parsed->Row(r)[c], m.Row(r)[c]);
  }
}

TEST(EmbeddingTest, RejectsCorruptBlobs) {
  EmbeddingMatrix m(2, 2);
  std::string blob = m.Serialize();
  EXPECT_FALSE(EmbeddingMatrix::Deserialize(blob.substr(0, 5)).ok());
  blob[0] = 'X';
  EXPECT_FALSE(EmbeddingMatrix::Deserialize(blob).ok());
  EXPECT_FALSE(EmbeddingMatrix::Deserialize(m.Serialize() + "junk").ok());

  // A header-only blob whose shape product wraps: rows = 2^40 passes the
  // plausibility cap, and 2^40 * 2^22 * 4 is 0 mod 2^64. It must be
  // refused, not sized into a matrix.
  std::string wrapped = m.Serialize().substr(0, 4);  // The magic.
  const uint64_t rows = uint64_t{1} << 40;
  const int32_t dim = 1 << 22;
  wrapped.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
  wrapped.append(reinterpret_cast<const char*>(&dim), sizeof(dim));
  ASSERT_EQ(wrapped.size(), 16u);
  const auto parsed = EmbeddingMatrix::Deserialize(wrapped);
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
}

EmbeddingMatrix SmallMatrix() {
  EmbeddingMatrix m(3, 5);
  for (std::size_t r = 0; r < 3; ++r) {
    for (int c = 0; c < 5; ++c) m.Row(r)[c] = static_cast<float>(r) - 0.25f * static_cast<float>(c);
  }
  return m;
}

// Embedding files are loaded from a path the user gives, so the decoder
// sees hostile bytes: every truncation fails as Corruption.
TEST(EmbeddingTest, EveryTruncationIsCorruption) {
  const std::string blob = SmallMatrix().Serialize();
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    const auto parsed = EmbeddingMatrix::Deserialize(std::string_view(blob).substr(0, cut));
    EXPECT_TRUE(parsed.status().IsCorruption()) << "prefix of " << cut << " bytes";
  }
}

// A flipped bit either fails as Corruption or yields a matrix whose data
// matches its header; a flip inside the float data is a valid blob.
TEST(EmbeddingTest, BitFlipsFailCleanlyOrDecodeConsistently) {
  const std::string blob = SmallMatrix().Serialize();
  Rng rng(20260417);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string flipped = blob;
    const std::size_t bit = rng.Uniform(flipped.size() * 8);
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    const auto parsed = EmbeddingMatrix::Deserialize(flipped);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsCorruption()) << "bit " << bit;
      continue;
    }
    EXPECT_EQ(parsed->rows() * static_cast<std::size_t>(parsed->dim()) * sizeof(float) + 16,
              flipped.size())
        << "bit " << bit;
  }
}

TEST(EmbeddingTest, FileRoundTrip) {
  EmbeddingMatrix m(5, 3);
  m.Row(2)[1] = 7.5f;
  const std::string path = "/tmp/titant_test_embedding.bin";
  ASSERT_TRUE(m.SaveTo(path).ok());
  const auto loaded = EmbeddingMatrix::LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Row(2)[1], 7.5f);
  std::filesystem::remove(path);
  EXPECT_FALSE(EmbeddingMatrix::LoadFrom(path).ok());
}

TEST(EmbeddingTest, CosineAndNormalize) {
  EmbeddingMatrix m(3, 2);
  m.Row(0)[0] = 3.0f;  // (3, 0)
  m.Row(1)[0] = 10.0f; // (10, 0) - same direction
  m.Row(2)[1] = 2.0f;  // (0, 2) - orthogonal
  EXPECT_NEAR(m.Cosine(0, 1), 1.0f, 1e-6);
  EXPECT_NEAR(m.Cosine(0, 2), 0.0f, 1e-6);
  m.NormalizeRows();
  EXPECT_NEAR(m.Row(1)[0], 1.0f, 1e-6);
}

// Two dense communities joined by one bridge edge: embeddings must place
// intra-community pairs closer than cross-community pairs.
graph::TransactionNetwork TwoCommunities(int size_per_side, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  auto add_clique_edges = [&](int base) {
    for (int i = 0; i < size_per_side * 6; ++i) {
      const auto a = static_cast<graph::NodeId>(
          base + static_cast<int>(rng.Uniform(static_cast<uint64_t>(size_per_side))));
      const auto b = static_cast<graph::NodeId>(
          base + static_cast<int>(rng.Uniform(static_cast<uint64_t>(size_per_side))));
      if (a != b) edges.emplace_back(a, b);
    }
  };
  add_clique_edges(0);
  add_clique_edges(size_per_side);
  edges.emplace_back(0, static_cast<graph::NodeId>(size_per_side));
  auto g = graph::TransactionNetwork::FromEdges(
      edges, static_cast<std::size_t>(2 * size_per_side));
  return std::move(g).value();
}

TEST(Word2VecTest, SeparatesCommunities) {
  const int half = 20;
  const auto g = TwoCommunities(half, 3);
  DeepWalkOptions options;
  options.walk.walk_length = 20;
  options.walk.walks_per_node = 30;
  options.w2v.dim = 16;
  options.w2v.epochs = 2;
  const auto embeddings = DeepWalk(g, options);
  ASSERT_TRUE(embeddings.ok());

  double intra = 0.0, inter = 0.0;
  int intra_n = 0, inter_n = 0;
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const auto a = static_cast<std::size_t>(rng.Uniform(2 * half));
    const auto b = static_cast<std::size_t>(rng.Uniform(2 * half));
    if (a == b) continue;
    const bool same = (a < static_cast<std::size_t>(half)) == (b < static_cast<std::size_t>(half));
    const double cos = embeddings->Cosine(a, b);
    if (same) {
      intra += cos;
      ++intra_n;
    } else {
      inter += cos;
      ++inter_n;
    }
  }
  ASSERT_GT(intra_n, 50);
  ASSERT_GT(inter_n, 50);
  EXPECT_GT(intra / intra_n, inter / inter_n + 0.2)
      << "intra=" << intra / intra_n << " inter=" << inter / inter_n;
}

TEST(Word2VecTest, DeterministicSingleThread) {
  const auto g = TwoCommunities(10, 4);
  graph::RandomWalkOptions walk_options;
  walk_options.walk_length = 10;
  walk_options.walks_per_node = 5;
  const auto corpus = graph::GenerateWalks(g, walk_options);
  ASSERT_TRUE(corpus.ok());
  Word2VecOptions options;
  options.dim = 8;
  const auto a = TrainSkipGram(*corpus, g.num_nodes(), options);
  const auto b = TrainSkipGram(*corpus, g.num_nodes(), options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::size_t r = 0; r < a->rows(); ++r) {
    for (int c = 0; c < a->dim(); ++c) EXPECT_EQ(a->Row(r)[c], b->Row(r)[c]);
  }
}

// The one-target-at-a-time SGNS loop, kept verbatim as the reference that
// TrainSkipGram's batched pair kernel must match bit for bit. Everything
// around the pair loop (initialization, negative table, learning-rate
// schedule, RNG order) is TrainSkipGram's, single-threaded.
class ReferenceSigmoid {
 public:
  ReferenceSigmoid() {
    for (int i = 0; i < kSize; ++i) {
      const double x = (static_cast<double>(i) / kSize * 2.0 - 1.0) * kMaxExp;
      table_[i] = static_cast<float>(1.0 / (1.0 + std::exp(-x)));
    }
  }

  float operator()(float x) const {
    if (x >= kMaxExp) return 1.0f;
    if (x <= -kMaxExp) return 0.0f;
    const int idx = static_cast<int>((x + kMaxExp) * (kSize / (2.0f * kMaxExp)));
    return table_[std::clamp(idx, 0, kSize - 1)];
  }

 private:
  static constexpr int kSize = 1024;
  static constexpr float kMaxExp = 6.0f;
  float table_[kSize];
};

EmbeddingMatrix ReferenceSkipGram(const graph::WalkCorpus& corpus, std::size_t num_nodes,
                                  const Word2VecOptions& options) {
  const int dim = options.dim;
  EmbeddingMatrix syn0(num_nodes, dim);
  EmbeddingMatrix syn1(num_nodes, dim);
  Rng init_rng(options.seed);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    float* row = syn0.Row(v);
    for (int j = 0; j < dim; ++j) {
      row[j] = static_cast<float>((init_rng.NextDouble() - 0.5) / dim);
    }
  }
  std::vector<double> freq(num_nodes, 0.0);
  for (const auto& walk : corpus.walks) {
    for (auto node : walk) freq[node] += 1.0;
  }
  std::vector<double> neg_weight(num_nodes, 0.0);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    if (freq[v] > 0.0) neg_weight[v] = std::pow(freq[v], options.neg_power);
  }
  const AliasTable neg_table(neg_weight);
  const ReferenceSigmoid sigmoid;

  const double total_tokens =
      static_cast<double>(corpus.TotalTokens()) * options.epochs + 1.0;
  uint64_t tokens_done = 0;
  Rng rng(options.seed ^ 0x9E3779B9ULL);
  std::vector<float> grad_center(static_cast<std::size_t>(dim));
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    for (const auto& walk : corpus.walks) {
      const uint64_t done = tokens_done;
      tokens_done += walk.size();
      const float progress = static_cast<float>(done / total_tokens);
      const float alpha = std::max(options.min_alpha, options.alpha * (1.0f - progress));
      for (std::size_t i = 0; i < walk.size(); ++i) {
        const auto center = walk[i];
        const int reduced =
            1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(options.window)));
        const std::size_t lo = i >= static_cast<std::size_t>(reduced) ? i - reduced : 0;
        const std::size_t hi = std::min(walk.size() - 1, i + reduced);
        for (std::size_t j = lo; j <= hi; ++j) {
          if (j == i) continue;
          const auto context = walk[j];
          float* v_center = syn0.Row(center);
          std::fill(grad_center.begin(), grad_center.end(), 0.0f);
          for (int s = 0; s < options.negatives + 1; ++s) {
            std::size_t target;
            float label;
            if (s == 0) {
              target = context;
              label = 1.0f;
            } else {
              target = neg_table.Sample(rng);
              if (target == context) continue;
              label = 0.0f;
            }
            float* v_target = syn1.Row(target);
            float dot = 0.0f;
            for (int d = 0; d < dim; ++d) dot += v_center[d] * v_target[d];
            const float g = (label - sigmoid(dot)) * alpha;
            for (int d = 0; d < dim; ++d) {
              grad_center[d] += g * v_target[d];
              v_target[d] += g * v_center[d];
            }
          }
          for (int d = 0; d < dim; ++d) v_center[d] += grad_center[d];
        }
      }
    }
  }
  return syn0;
}

// Dims below, at and across the 4-lane width; negatives none, one, one
// 8-lane group of targets and two groups; both window and epoch settings.
void ExpectMatchesReferenceOverSweep(const graph::WalkCorpus& corpus, std::size_t num_nodes) {
  for (int dim : {1, 3, 4, 7, 32, 33}) {
    for (int negatives : {0, 1, 5, 9}) {
      for (int window : {1, 5}) {
        for (int epochs : {1, 2}) {
          Word2VecOptions options;
          options.dim = dim;
          options.negatives = negatives;
          options.window = window;
          options.epochs = epochs;
          const auto batched = TrainSkipGram(corpus, num_nodes, options);
          ASSERT_TRUE(batched.ok()) << batched.status().ToString();
          const EmbeddingMatrix reference = ReferenceSkipGram(corpus, num_nodes, options);
          std::size_t differing_rows = 0;
          for (std::size_t r = 0; r < num_nodes; ++r) {
            if (std::memcmp(batched->Row(r), reference.Row(r), sizeof(float) * dim) != 0) {
              ++differing_rows;
            }
          }
          EXPECT_EQ(differing_rows, 0u) << "dim " << dim << " negatives " << negatives
                                        << " window " << window << " epochs " << epochs;
        }
      }
    }
  }
}

// A dot product's rounding reaches the embeddings only when it moves the
// sigmoid to another table bucket, so the corpus is large enough (20 walks
// of 20 per node) for a reordered sum to show.
TEST(Word2VecTest, BatchedKernelMatchesScalarReferenceBitForBit) {
  const auto g = TwoCommunities(10, 4);
  graph::RandomWalkOptions walk_options;
  walk_options.walk_length = 20;
  walk_options.walks_per_node = 20;
  const auto corpus = graph::GenerateWalks(g, walk_options);
  ASSERT_TRUE(corpus.ok());
  ExpectMatchesReferenceOverSweep(*corpus, g.num_nodes());
}

// On three nodes most pairs draw a negative equal to the context (skipped)
// or draw one negative twice (its second dot product sees the first update).
TEST(Word2VecTest, BatchedKernelMatchesScalarReferenceOnThreeNodes) {
  Rng rng(11);
  graph::WalkCorpus corpus;
  for (int w = 0; w < 40; ++w) {
    std::vector<graph::NodeId> walk(1 + rng.Uniform(12));
    for (auto& node : walk) node = static_cast<graph::NodeId>(rng.Uniform(3));
    corpus.walks.push_back(std::move(walk));
  }
  ExpectMatchesReferenceOverSweep(corpus, 3);
}

TEST(Word2VecTest, MultiThreadStillSeparates) {
  const int half = 16;
  const auto g = TwoCommunities(half, 6);
  graph::RandomWalkOptions walk_options;
  walk_options.walk_length = 20;
  walk_options.walks_per_node = 30;
  const auto corpus = graph::GenerateWalks(g, walk_options);
  ASSERT_TRUE(corpus.ok());
  Word2VecOptions options;
  options.dim = 16;
  options.num_threads = 4;
  options.epochs = 2;
  const auto embeddings = TrainSkipGram(*corpus, g.num_nodes(), options);
  ASSERT_TRUE(embeddings.ok());
  // Same community ends up closer on average (Hogwild is nondeterministic
  // but must still learn).
  EXPECT_GT(embeddings->Cosine(1, 2), embeddings->Cosine(1, half + 2) - 0.05);
}

TEST(Word2VecTest, RejectsBadInputs) {
  graph::WalkCorpus corpus;
  corpus.walks = {{0, 1, 2}};
  Word2VecOptions options;
  options.dim = 0;
  EXPECT_FALSE(TrainSkipGram(corpus, 3, options).ok());
  options = Word2VecOptions();
  EXPECT_FALSE(TrainSkipGram(corpus, 2, options).ok());  // Token 2 out of range.
  graph::WalkCorpus empty;
  EXPECT_FALSE(TrainSkipGram(empty, 3, options).ok());
}


class LineOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(LineOrderTest, SeparatesCommunities) {
  const int half = 18;
  const auto g = TwoCommunities(half, 12);
  LineOptions options;
  options.dim = 16;
  options.order = GetParam();
  options.samples_per_edge = 400.0;
  const auto embeddings = TrainLine(g, options);
  ASSERT_TRUE(embeddings.ok()) << embeddings.status().ToString();

  double intra = 0.0, inter = 0.0;
  int n = 0;
  for (int i = 1; i < half; ++i) {
    intra += embeddings->Cosine(1, static_cast<std::size_t>(i));
    inter += embeddings->Cosine(1, static_cast<std::size_t>(half + i));
    ++n;
  }
  EXPECT_GT(intra / n, inter / n + 0.15)
      << "order " << GetParam() << " intra=" << intra / n << " inter=" << inter / n;
}

INSTANTIATE_TEST_SUITE_P(Orders, LineOrderTest, ::testing::Values(1, 2));

TEST(LineTest, ValidatesInput) {
  const auto g = TwoCommunities(5, 1);
  LineOptions options;
  options.order = 3;
  EXPECT_FALSE(TrainLine(g, options).ok());
  options = LineOptions();
  options.dim = 0;
  EXPECT_FALSE(TrainLine(g, options).ok());
  const auto empty = graph::TransactionNetwork::FromEdges({}, 4);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(TrainLine(*empty, LineOptions()).ok());
}

TEST(LineTest, DeterministicForSeed) {
  const auto g = TwoCommunities(8, 2);
  LineOptions options;
  options.dim = 8;
  options.samples_per_edge = 50.0;
  const auto a = TrainLine(g, options);
  const auto b = TrainLine(g, options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::size_t r = 0; r < a->rows(); ++r) {
    for (int c = 0; c < a->dim(); ++c) EXPECT_EQ(a->Row(r)[c], b->Row(r)[c]);
  }
}

// TrainLine's one-target-at-a-time loop from before it ran the pair
// kernel, kept verbatim except that it reads the sigmoid table instead of
// computing the exact sigmoid. TrainLine must match it bit for bit on a
// network without self-loops.
StatusOr<EmbeddingMatrix> ReferenceLine(const graph::TransactionNetwork& network,
                                        const LineOptions& options) {
  const std::size_t n = network.num_nodes();
  const int dim = options.dim;

  // Flatten the edge list (both directions) with weights for alias sampling.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  std::vector<double> edge_weights;
  edges.reserve(network.num_edges() * 2);
  for (graph::NodeId v : network.active_nodes()) {
    auto [begin, end] = network.OutNeighbors(v);
    for (const auto* e = begin; e != end; ++e) {
      edges.emplace_back(v, e->neighbor);
      edge_weights.push_back(e->weight);
      edges.emplace_back(e->neighbor, v);
      edge_weights.push_back(e->weight);
    }
  }
  AliasTable edge_table;
  if (!edge_table.Build(edge_weights)) return Status::InvalidArgument("degenerate weights");

  // Negative table over weighted degrees^0.75.
  std::vector<double> neg_weight(n, 0.0);
  for (graph::NodeId v : network.active_nodes()) {
    const double degree = static_cast<double>(network.Degree(v));
    if (degree > 0.0) neg_weight[v] = std::pow(degree, options.neg_power);
  }
  AliasTable neg_table;
  if (!neg_table.Build(neg_weight)) return Status::InvalidArgument("degenerate degrees");

  const ReferenceSigmoid sigmoid;
  EmbeddingMatrix vertex(n, dim);
  EmbeddingMatrix context(n, dim);  // Used by second-order only.
  Rng rng(options.seed);
  for (std::size_t v = 0; v < n; ++v) {
    float* row = vertex.Row(v);
    for (int j = 0; j < dim; ++j) {
      row[j] = static_cast<float>((rng.NextDouble() - 0.5) / dim);
    }
  }

  const uint64_t total_samples = static_cast<uint64_t>(
      options.samples_per_edge * static_cast<double>(network.num_edges()));
  std::vector<float> grad(static_cast<std::size_t>(dim));
  for (uint64_t step = 0; step < total_samples; ++step) {
    const float progress = static_cast<float>(static_cast<double>(step) / (total_samples + 1.0));
    const float alpha = std::max(options.min_alpha, options.alpha * (1.0f - progress));

    const auto [source, target] = edges[edge_table.Sample(rng)];
    float* v_source = vertex.Row(source);
    std::fill(grad.begin(), grad.end(), 0.0f);
    for (int s = 0; s < options.negatives + 1; ++s) {
      std::size_t other;
      float label;
      if (s == 0) {
        other = target;
        label = 1.0f;
      } else {
        other = neg_table.Sample(rng);
        if (other == target || other == source) continue;
        label = 0.0f;
      }
      // First-order trains vertex·vertex; second-order vertex·context.
      float* v_other =
          options.order == 1 ? vertex.Row(other) : context.Row(other);
      float dot = 0.0f;
      for (int d = 0; d < dim; ++d) dot += v_source[d] * v_other[d];
      const float g = (label - sigmoid(dot)) * alpha;
      for (int d = 0; d < dim; ++d) {
        grad[d] += g * v_other[d];
        v_other[d] += g * v_source[d];
      }
    }
    for (int d = 0; d < dim; ++d) v_source[d] += grad[d];
  }
  return vertex;
}

// In a triangle one node is neither end of a sampled edge, so every kept
// negative is that node and most pairs draw it more than once.
graph::TransactionNetwork Triangle() {
  return std::move(graph::TransactionNetwork::FromEdges({{0, 1}, {1, 2}, {2, 0}}, 3)).value();
}

TEST(LineTest, PairKernelMatchesScalarReferenceBitForBit) {
  const auto communities = TwoCommunities(8, 2);
  const auto triangle = Triangle();
  for (const graph::TransactionNetwork* network : {&communities, &triangle}) {
    for (int order : {1, 2}) {
      for (int dim : {3, 8, 33}) {
        for (int negatives : {0, 5, 9}) {
          LineOptions options;
          options.order = order;
          options.dim = dim;
          options.negatives = negatives;
          options.samples_per_edge = 50.0;
          const auto kernel = TrainLine(*network, options);
          ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
          const auto reference = ReferenceLine(*network, options);
          ASSERT_TRUE(reference.ok()) << reference.status().ToString();
          std::size_t differing_rows = 0;
          for (std::size_t r = 0; r < network->num_nodes(); ++r) {
            if (std::memcmp(kernel->Row(r), reference->Row(r), sizeof(float) * dim) != 0) {
              ++differing_rows;
            }
          }
          EXPECT_EQ(differing_rows, 0u) << network->num_nodes() << " nodes, order " << order
                                        << " dim " << dim << " negatives " << negatives;
        }
      }
    }
  }
}

// At first order a sampled self-loop would make a node its own positive
// target; TrainLine skips it, so a network of self-loops only trains
// nothing and returns the initial vectors.
TEST(LineTest, FirstOrderSkipsSelfLoops) {
  const auto loops = graph::TransactionNetwork::FromEdges({{0, 0}, {1, 1}}, 2);
  ASSERT_TRUE(loops.ok());
  ASSERT_GT(loops->num_edges(), 0u);
  LineOptions options;
  options.order = 1;
  options.dim = 4;
  options.samples_per_edge = 10.0;
  const auto trained = TrainLine(*loops, options);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  Rng rng(options.seed);
  for (std::size_t r = 0; r < 2; ++r) {
    for (int c = 0; c < options.dim; ++c) {
      EXPECT_EQ(trained->Row(r)[c], static_cast<float>((rng.NextDouble() - 0.5) / options.dim));
    }
  }
}

TEST(Struct2VecTest, ProducesLiveEmbeddings) {
  const auto g = TwoCommunities(15, 8);
  NodeLabels labels;
  labels.label.assign(g.num_nodes(), 0);
  labels.has_label.assign(g.num_nodes(), 1);
  for (std::size_t v = 0; v < 15; ++v) labels.label[v] = 1;  // One side positive.
  Struct2VecOptions options;
  options.dim = 8;
  const auto embeddings = Struct2Vec(g, labels, options);
  ASSERT_TRUE(embeddings.ok());
  // Not collapsed: at least half the rows must have non-trivial norm.
  std::size_t live = 0;
  for (std::size_t v = 0; v < embeddings->rows(); ++v) {
    double norm = 0.0;
    for (int c = 0; c < embeddings->dim(); ++c) {
      norm += static_cast<double>(embeddings->Row(v)[c]) * embeddings->Row(v)[c];
    }
    if (norm > 1e-6) ++live;
  }
  EXPECT_GT(live, embeddings->rows() / 2);
}

TEST(Struct2VecTest, EmbeddingsReflectDegreeStructure) {
  // A star: hub 0 with 20 spokes. The hub's embedding must differ from a
  // spoke's far more than spokes differ among themselves.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (graph::NodeId v = 1; v <= 20; ++v) edges.emplace_back(v, 0);
  auto g = graph::TransactionNetwork::FromEdges(edges, 21);
  ASSERT_TRUE(g.ok());
  NodeLabels labels;
  labels.label.assign(21, 0);
  labels.label[0] = 1;
  labels.has_label.assign(21, 1);
  Struct2VecOptions options;
  options.dim = 8;
  const auto embeddings = Struct2Vec(*g, labels, options);
  ASSERT_TRUE(embeddings.ok());
  auto distance = [&](std::size_t a, std::size_t b) {
    double d = 0.0;
    for (int c = 0; c < embeddings->dim(); ++c) {
      const double diff = embeddings->Row(a)[c] - embeddings->Row(b)[c];
      d += diff * diff;
    }
    return std::sqrt(d);
  };
  EXPECT_GT(distance(0, 1), 3.0 * distance(1, 2));
}

TEST(Struct2VecTest, RejectsBadInputs) {
  const auto g = TwoCommunities(5, 1);
  NodeLabels labels;  // Wrong sizes.
  Struct2VecOptions options;
  EXPECT_FALSE(Struct2Vec(g, labels, options).ok());
  labels.label.assign(g.num_nodes(), 0);
  labels.has_label.assign(g.num_nodes(), 0);  // Nothing labeled.
  EXPECT_FALSE(Struct2Vec(g, labels, options).ok());
}

}  // namespace
}  // namespace titant::nrl
