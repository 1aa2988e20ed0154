// Tests for the KunPeng-style parameter server: server node semantics,
// client routing, fault recovery, distributed DeepWalk, distributed GBDT
// and the Fig. 10 cluster simulation.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "graph/random_walk.h"
#include "ml/metrics.h"
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
