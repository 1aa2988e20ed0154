// Tests for the KunPeng-style parameter server: server node semantics,
// client routing, fault recovery, distributed DeepWalk, distributed GBDT
// and the Fig. 10 cluster simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/alias_table.h"
#include "common/random.h"
#include "graph/random_walk.h"
#include "ml/metrics.h"
#include "nrl/sgns.h"
#include "ps/cluster.h"
#include "ps/dw_trainer.h"
#include "ps/gbdt_trainer.h"
#include "ps/sim.h"

namespace titant::ps {
namespace {

TEST(ServerNodeTest, PushAddAndPull) {
  KunPengCluster cluster(2, 1);
  PsClient client = cluster.MakeClient();
  client.Push({1, 2}, {1.0f, 2.0f, 3.0f, 4.0f}, 2, PushOp::kAdd);
  client.Push({2}, {10.0f, 10.0f}, 2, PushOp::kAdd);
  const auto values = client.Pull({1, 2, 99}, 2);
  EXPECT_EQ(values, (std::vector<float>{1.0f, 2.0f, 13.0f, 14.0f, 0.0f, 0.0f}));
}

TEST(ServerNodeTest, PushAssignOverwrites) {
  KunPengCluster cluster(1, 1);
  PsClient client = cluster.MakeClient();
  client.Push({7}, {5.0f}, 1, PushOp::kAdd);
  client.Push({7}, {1.5f}, 1, PushOp::kAssign);
  EXPECT_EQ(client.Pull({7}, 1), std::vector<float>{1.5f});
}

TEST(ServerNodeTest, PushAverageComputesRunningMean) {
  KunPengCluster cluster(1, 1);
  PsClient client = cluster.MakeClient();
  client.Push({3}, {2.0f}, 1, PushOp::kAverage);
  client.Push({3}, {4.0f}, 1, PushOp::kAverage);
  client.Push({3}, {6.0f}, 1, PushOp::kAverage);
  EXPECT_EQ(client.Pull({3}, 1), std::vector<float>{4.0f});
}

TEST(ClusterTest, RoutesAcrossShards) {
  KunPengCluster cluster(4, 2);
  PsClient client = cluster.MakeClient();
  std::vector<Key> keys;
  std::vector<float> values;
  for (Key k = 0; k < 100; ++k) {
    keys.push_back(k);
    values.push_back(static_cast<float>(k));
  }
  client.Push(keys, values, 1, PushOp::kAssign);
  EXPECT_EQ(client.Pull(keys, 1), values);
  EXPECT_GT(cluster.TotalPushedFloats(), 0u);
  EXPECT_GT(cluster.TotalPulledFloats(), 0u);
}

TEST(ClusterTest, WorkersRunConcurrently) {
  KunPengCluster cluster(2, 4);
  std::atomic<int> ran{0};
  cluster.RunWorkers([&](int worker_id, PsClient& client) {
    client.Push({static_cast<Key>(worker_id)}, {1.0f}, 1, PushOp::kAdd);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 4);
  PsClient client = cluster.MakeClient();
  for (Key k = 0; k < 4; ++k) EXPECT_EQ(client.Pull({k}, 1)[0], 1.0f);
}

TEST(ClusterTest, CheckpointRestoreRecoversState) {
  KunPengCluster cluster(3, 1);
  PsClient client = cluster.MakeClient();
  client.Push({1, 2, 3}, {1.0f, 2.0f, 3.0f}, 1, PushOp::kAssign);
  const auto checkpoint = cluster.Checkpoint();
  // A "failure": state is clobbered.
  client.Push({1, 2, 3}, {-9.0f, -9.0f, -9.0f}, 1, PushOp::kAssign);
  cluster.Restore(checkpoint);
  EXPECT_EQ(client.Pull({1, 2, 3}, 1), (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

graph::TransactionNetwork TwoCommunities(int half, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (int side = 0; side < 2; ++side) {
    for (int i = 0; i < half * 6; ++i) {
      const auto a = static_cast<graph::NodeId>(side * half +
                                                static_cast<int>(rng.Uniform(half)));
      const auto b = static_cast<graph::NodeId>(side * half +
                                                static_cast<int>(rng.Uniform(half)));
      if (a != b) edges.emplace_back(a, b);
    }
  }
  edges.emplace_back(0, static_cast<graph::NodeId>(half));
  return std::move(graph::TransactionNetwork::FromEdges(
                       edges, static_cast<std::size_t>(2 * half)))
      .value();
}

// Mean cosine over every same-community pair minus the mean over every
// cross-community pair. The servers average pushes in arrival order, which
// the worker threads do not fix, so where any one node ends up (say the
// bridge node 0) changes from run to run; the separation of the two
// communities as a whole is what the SGNS objective drives under every
// interleaving.
double CommunityGap(const nrl::EmbeddingMatrix& embeddings, int half) {
  double intra = 0.0, inter = 0.0;
  int intra_n = 0, inter_n = 0;
  for (int a = 0; a < 2 * half; ++a) {
    for (int b = a + 1; b < 2 * half; ++b) {
      const double cos =
          embeddings.Cosine(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
      if ((a < half) == (b < half)) {
        intra += cos;
        ++intra_n;
      } else {
        inter += cos;
        ++inter_n;
      }
    }
  }
  return intra / intra_n - inter / inter_n;
}

TEST(DistributedDwTest, LearnsCommunityStructure) {
  const int half = 16;
  const auto g = TwoCommunities(half, 3);
  graph::RandomWalkOptions walk_options;
  walk_options.walk_length = 20;
  walk_options.walks_per_node = 25;
  const auto corpus = graph::GenerateWalks(g, walk_options);
  ASSERT_TRUE(corpus.ok());

  KunPengCluster cluster(2, 3);
  DistributedDwOptions options;
  options.w2v.dim = 16;
  options.w2v.epochs = 2;
  options.batch_walks = 32;
  const auto embeddings = DistributedDeepWalkTrain(cluster, *corpus, g.num_nodes(), options);
  ASSERT_TRUE(embeddings.ok()) << embeddings.status().ToString();
  EXPECT_GT(CommunityGap(*embeddings, half), 0.1);
}

TEST(ClusterTest, TrainingSurvivesServerFailureViaCheckpoint) {
  // The paper's PS fault-tolerance claim (§4.3): a failed instance is
  // restarted and recovered to the previous state while training goes on.
  const int half = 14;
  const auto g = TwoCommunities(half, 21);
  graph::RandomWalkOptions walk_options;
  walk_options.walk_length = 20;
  walk_options.walks_per_node = 20;
  const auto corpus = graph::GenerateWalks(g, walk_options);
  ASSERT_TRUE(corpus.ok());
  // Split the corpus into two halves.
  graph::WalkCorpus first, second;
  for (std::size_t i = 0; i < corpus->walks.size(); ++i) {
    (i < corpus->walks.size() / 2 ? first : second).walks.push_back(corpus->walks[i]);
  }

  KunPengCluster cluster(2, 2);
  DistributedDwOptions options;
  options.w2v.dim = 16;
  ASSERT_TRUE(DistributedDeepWalkTrain(cluster, first, g.num_nodes(), options).ok());

  // Checkpoint, crash (state wiped), recover, resume on the second half.
  const auto checkpoint = cluster.Checkpoint();
  cluster.Restore(std::vector<std::unordered_map<Key, std::vector<float>>>(2));
  cluster.Restore(checkpoint);
  options.resume = true;
  const auto embeddings = DistributedDeepWalkTrain(cluster, second, g.num_nodes(), options);
  ASSERT_TRUE(embeddings.ok());
  EXPECT_GT(CommunityGap(*embeddings, half), 0.1);
}

// DistributedDeepWalkTrain's one-target-at-a-time loop from before it ran
// the pair kernel, kept verbatim except that it reads the sigmoid table
// instead of computing the exact sigmoid. At one worker the servers see
// one push order, and the trainer must match it bit for bit.
// syn0 (input vectors, the artifact) on even keys; syn1 (output/context
// vectors) on odd keys.
Key Syn0Key(std::size_t node) { return static_cast<Key>(node) * 2; }
Key Syn1Key(std::size_t node) { return static_cast<Key>(node) * 2 + 1; }

StatusOr<nrl::EmbeddingMatrix> ReferenceDistributedDeepWalk(KunPengCluster& cluster,
                                                            const graph::WalkCorpus& corpus,
                                                            std::size_t num_nodes,
                                                            const DistributedDwOptions& options) {
  const auto& w2v = options.w2v;
  if (w2v.dim <= 0 || w2v.window <= 0 || w2v.epochs <= 0 || w2v.negatives < 0) {
    return Status::InvalidArgument("bad word2vec options");
  }
  if (options.batch_walks <= 0) return Status::InvalidArgument("batch_walks must be positive");
  if (corpus.walks.empty()) return Status::InvalidArgument("empty corpus");
  for (const auto& walk : corpus.walks) {
    for (auto node : walk) {
      if (node >= num_nodes) return Status::OutOfRange("walk token beyond num_nodes");
    }
  }
  const int dim = w2v.dim;

  // Server-side init: random syn0, zero syn1 (pushed once by worker 0's
  // coordinator-style client before training). Skipped when resuming from
  // a checkpoint after a failure.
  if (!options.resume) {
    PsClient client = cluster.MakeClient();
    Rng init_rng(w2v.seed);
    std::vector<Key> keys;
    std::vector<float> values;
    for (std::size_t v = 0; v < num_nodes; ++v) {
      keys.push_back(Syn0Key(v));
      for (int j = 0; j < dim; ++j) {
        values.push_back(static_cast<float>((init_rng.NextDouble() - 0.5) / dim));
      }
    }
    client.Push(keys, values, dim, PushOp::kAssign);
  }

  // Shared negative-sampling table (built once; read-only afterwards).
  std::vector<double> freq(num_nodes, 0.0);
  for (const auto& walk : corpus.walks) {
    for (auto node : walk) freq[node] += 1.0;
  }
  std::vector<double> neg_weight(num_nodes, 0.0);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    if (freq[v] > 0.0) neg_weight[v] = std::pow(freq[v], w2v.neg_power);
  }
  AliasTable neg_table;
  if (!neg_table.Build(neg_weight)) return Status::InvalidArgument("degenerate corpus");

  const double total_tokens =
      static_cast<double>(corpus.TotalTokens()) * w2v.epochs + 1.0;
  std::atomic<uint64_t> tokens_done{0};

  const int workers = cluster.num_workers();
  const std::size_t per_worker =
      (corpus.walks.size() + static_cast<std::size_t>(workers) - 1) /
      static_cast<std::size_t>(workers);

  cluster.RunWorkers([&](int worker_id, PsClient& client) {
    const std::size_t begin = static_cast<std::size_t>(worker_id) * per_worker;
    const std::size_t end = std::min(corpus.walks.size(), begin + per_worker);
    if (begin >= end) return;
    Rng rng(w2v.seed + 0x9E37ULL * static_cast<uint64_t>(worker_id + 1));

    const nrl::sgns::SigmoidTable& sigmoid = nrl::sgns::Sigmoid();
    std::vector<float> grad_center(static_cast<std::size_t>(dim));
    for (int epoch = 0; epoch < w2v.epochs; ++epoch) {
      for (std::size_t batch_begin = begin; batch_begin < end;
           batch_begin += static_cast<std::size_t>(options.batch_walks)) {
        const std::size_t batch_end =
            std::min(end, batch_begin + static_cast<std::size_t>(options.batch_walks));

        // 1. Generate this batch's negative list, then its vocabulary.
        std::vector<std::size_t> negatives;
        std::size_t batch_tokens = 0;
        for (std::size_t wi = batch_begin; wi < batch_end; ++wi) {
          batch_tokens += corpus.walks[wi].size();
        }
        negatives.reserve(batch_tokens * static_cast<std::size_t>(w2v.negatives));
        for (std::size_t i = 0; i < batch_tokens * static_cast<std::size_t>(w2v.negatives);
             ++i) {
          negatives.push_back(neg_table.Sample(rng));
        }

        std::unordered_map<Key, std::size_t> slot;  // key -> local row.
        std::vector<Key> keys;
        auto intern = [&](Key key) {
          auto [it, inserted] = slot.emplace(key, keys.size());
          if (inserted) keys.push_back(key);
          return it->second;
        };
        for (std::size_t wi = batch_begin; wi < batch_end; ++wi) {
          for (auto node : corpus.walks[wi]) {
            intern(Syn0Key(node));
            intern(Syn1Key(node));
          }
        }
        for (std::size_t neg : negatives) intern(Syn1Key(neg));

        // 2. Pull the working set.
        std::vector<float> local = client.Pull(keys, dim);

        // 3. Local SGNS updates.
        const uint64_t done = tokens_done.fetch_add(batch_tokens);
        const float progress = static_cast<float>(done / total_tokens);
        const float alpha = std::max(w2v.min_alpha, w2v.alpha * (1.0f - progress));
        std::size_t neg_cursor = 0;
        for (std::size_t wi = batch_begin; wi < batch_end; ++wi) {
          const auto& walk = corpus.walks[wi];
          for (std::size_t i = 0; i < walk.size(); ++i) {
            const int reduced =
                1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(w2v.window)));
            const std::size_t lo = i >= static_cast<std::size_t>(reduced) ? i - reduced : 0;
            const std::size_t hi = std::min(walk.size() - 1, i + reduced);
            float* v_center = local.data() + slot[Syn0Key(walk[i])] * dim;
            for (std::size_t j = lo; j <= hi; ++j) {
              if (j == i) continue;
              std::fill(grad_center.begin(), grad_center.end(), 0.0f);
              for (int s = 0; s < w2v.negatives + 1; ++s) {
                std::size_t target_node;
                float label;
                if (s == 0) {
                  target_node = walk[j];
                  label = 1.0f;
                } else {
                  target_node = negatives[neg_cursor++ % negatives.size()];
                  if (target_node == walk[j]) continue;
                  label = 0.0f;
                }
                float* v_target = local.data() + slot[Syn1Key(target_node)] * dim;
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

        // 4. Push the batch's result back; the servers model-average it.
        client.Push(keys, local, dim, PushOp::kAverage);
      }
    }
  });

  // Gather syn0 into the output matrix.
  PsClient client = cluster.MakeClient();
  nrl::EmbeddingMatrix result(num_nodes, dim);
  std::vector<Key> keys;
  keys.reserve(num_nodes);
  for (std::size_t v = 0; v < num_nodes; ++v) keys.push_back(Syn0Key(v));
  const std::vector<float> values = client.Pull(keys, dim);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    std::copy(values.begin() + static_cast<std::ptrdiff_t>(v * dim),
              values.begin() + static_cast<std::ptrdiff_t>((v + 1) * dim), result.Row(v));
  }
  return result;
}

void ExpectOneWorkerMatchesReference(const graph::WalkCorpus& corpus, std::size_t num_nodes) {
  for (int dim : {3, 16, 33}) {
    for (int negatives : {0, 5, 9}) {
      for (int batch_walks : {7, 32}) {
        DistributedDwOptions options;
        options.w2v.dim = dim;
        options.w2v.negatives = negatives;
        options.w2v.epochs = 2;
        options.batch_walks = batch_walks;
        KunPengCluster trained_on(2, 1);
        KunPengCluster reference_on(2, 1);
        const auto trained = DistributedDeepWalkTrain(trained_on, corpus, num_nodes, options);
        ASSERT_TRUE(trained.ok()) << trained.status().ToString();
        const auto reference =
            ReferenceDistributedDeepWalk(reference_on, corpus, num_nodes, options);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        std::size_t differing_rows = 0;
        for (std::size_t r = 0; r < num_nodes; ++r) {
          if (std::memcmp(trained->Row(r), reference->Row(r), sizeof(float) * dim) != 0) {
            ++differing_rows;
          }
        }
        EXPECT_EQ(differing_rows, 0u) << "dim " << dim << " negatives " << negatives
                                      << " batch_walks " << batch_walks;
      }
    }
  }
}

TEST(DistributedDwTest, OneWorkerMatchesScalarReferenceBitForBit) {
  const auto g = TwoCommunities(8, 4);
  graph::RandomWalkOptions walk_options;
  walk_options.walk_length = 12;
  walk_options.walks_per_node = 6;
  const auto corpus = graph::GenerateWalks(g, walk_options);
  ASSERT_TRUE(corpus.ok());
  ExpectOneWorkerMatchesReference(*corpus, g.num_nodes());
}

// On three nodes many negatives equal the context (skipped) or repeat
// within a pair (the second sees the first's update).
TEST(DistributedDwTest, OneWorkerMatchesScalarReferenceOnThreeNodes) {
  Rng rng(12);
  graph::WalkCorpus corpus;
  for (int w = 0; w < 30; ++w) {
    std::vector<graph::NodeId> walk(1 + rng.Uniform(10));
    for (auto& node : walk) node = static_cast<graph::NodeId>(rng.Uniform(3));
    corpus.walks.push_back(std::move(walk));
  }
  ExpectOneWorkerMatchesReference(corpus, 3);
}

TEST(DistributedDwTest, ValidatesInputs) {
  KunPengCluster cluster(1, 1);
  graph::WalkCorpus corpus;
  DistributedDwOptions options;
  EXPECT_FALSE(DistributedDeepWalkTrain(cluster, corpus, 5, options).ok());
  corpus.walks = {{0, 7}};
  EXPECT_FALSE(DistributedDeepWalkTrain(cluster, corpus, 5, options).ok());
}

ml::DataMatrix MakeTask(std::size_t rows, uint64_t seed) {
  Rng rng(seed);
  ml::DataMatrix data(rows, 6);
  data.mutable_labels().resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (int c = 0; c < 6; ++c) data.Set(r, c, static_cast<float>(rng.NextDouble()));
    data.mutable_labels()[r] =
        (data.At(r, 1) > 0.5f) != (data.At(r, 3) > 0.5f) ? 1 : 0;  // XOR-ish.
  }
  return data;
}

TEST(DistributedGbdtTest, MatchesSingleMachineWithoutSubsampling) {
  const ml::DataMatrix train = MakeTask(2000, 5);
  ml::GbdtOptions options;
  options.num_trees = 40;
  options.row_subsample = 1.0;
  options.feature_subsample = 1.0;

  ml::GbdtModel local(options);
  ASSERT_TRUE(local.Train(train).ok());

  KunPengCluster cluster(2, 3);
  DistributedGbdtTrainer trainer(cluster, options);
  const auto distributed = trainer.Train(train);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();

  // Same deterministic splits (float-sum ordering may flip knife-edge
  // ties, so compare predictions, not bytes).
  double max_diff = 0.0;
  for (std::size_t r = 0; r < train.num_rows(); ++r) {
    max_diff = std::max(max_diff,
                        std::fabs(local.Score(train.Row(r)) - (*distributed)->Score(train.Row(r))));
  }
  EXPECT_LT(max_diff, 0.05);
  EXPECT_NEAR(local.final_train_rmse(), (*distributed)->final_train_rmse(), 0.02);
}

TEST(DistributedGbdtTest, LearnsWithSubsampling) {
  const ml::DataMatrix train = MakeTask(3000, 6);
  const ml::DataMatrix test = MakeTask(1000, 7);
  ml::GbdtOptions options;
  options.num_trees = 80;
  KunPengCluster cluster(2, 4);
  DistributedGbdtTrainer trainer(cluster, options);
  const auto model = trainer.Train(train);
  ASSERT_TRUE(model.ok());
  const auto scores = (*model)->ScoreAll(test);
  ASSERT_TRUE(scores.ok());
  const auto auc = ml::RocAuc(*scores, test.labels());
  ASSERT_TRUE(auc.ok());
  EXPECT_GT(*auc, 0.9);
}

TEST(DistributedGbdtTest, ModelRoundTripsThroughRegistry) {
  const ml::DataMatrix train = MakeTask(800, 8);
  ml::GbdtOptions options;
  options.num_trees = 20;
  KunPengCluster cluster(1, 2);
  DistributedGbdtTrainer trainer(cluster, options);
  const auto model = trainer.Train(train);
  ASSERT_TRUE(model.ok());
  const auto restored = ml::DeserializeModel(ml::SerializeModel(**model));
  ASSERT_TRUE(restored.ok());
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_NEAR((*restored)->Score(train.Row(r)), (*model)->Score(train.Row(r)), 1e-9);
  }
}

TEST(SimTest, DwTimeDecreasesWithMachines) {
  DwWorkload workload;
  double prev = 1e30;
  for (int m : {4, 10, 20, 40}) {
    const auto result = SimulateDeepWalk(workload, m);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->seconds, prev) << "machines=" << m;
    prev = result->seconds;
  }
}

TEST(SimTest, GbdtFlattensBetween20And40) {
  GbdtWorkload workload;
  const double t4 = SimulateGbdt(workload, 4)->seconds;
  const double t10 = SimulateGbdt(workload, 10)->seconds;
  const double t20 = SimulateGbdt(workload, 20)->seconds;
  const double t40 = SimulateGbdt(workload, 40)->seconds;
  EXPECT_GT(t4, t10);
  EXPECT_GT(t10, t20);
  // 4 -> 10 improves substantially; 20 -> 40 does NOT come close to halving.
  EXPECT_LT(t10 / t4, 0.75);
  EXPECT_GT(t40 / t20, 0.7);
}

TEST(SimTest, RejectsTinyClusters) {
  EXPECT_FALSE(SimulateDeepWalk(DwWorkload{}, 1).ok());
  EXPECT_FALSE(SimulateGbdt(GbdtWorkload{}, 0).ok());
}

}  // namespace
}  // namespace titant::ps
