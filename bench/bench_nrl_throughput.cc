// Micro-benchmarks for the NRL substrate: random-walk corpus generation
// and skip-gram training throughput. The measured pair rate also documents
// the calibration basis of the Fig. 10 cluster simulation (ps/sim.h).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "bench/bench_util.h"
#include "graph/random_walk.h"
#include "nrl/struct2vec.h"
#include "nrl/word2vec.h"

namespace {

using titant::benchutil::CheckOk;

titant::graph::TransactionNetwork MakeNetwork() {
  // Static world shared by all benchmarks in this binary.
  static auto* world = new titant::datagen::World(CheckOk([] {
    titant::datagen::WorldOptions options;
    options.num_users = 2000;
    options.num_days = 90;
    return titant::datagen::GenerateWorld(options);
  }()));
  std::vector<std::size_t> all(world->log.records.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return CheckOk(titant::graph::TransactionNetwork::FromRecords(world->log, all,
                                                                world->log.num_users()));
}

void BM_RandomWalkGeneration(benchmark::State& state) {
  const auto network = MakeNetwork();
  titant::graph::RandomWalkOptions options;
  options.walk_length = 50;
  options.walks_per_node = 2;
  uint64_t tokens = 0;
  for (auto _ : state) {
    options.seed++;
    const auto corpus = CheckOk(titant::graph::GenerateWalks(network, options));
    tokens += corpus.TotalTokens();
    benchmark::DoNotOptimize(corpus.walks.size());
  }
  state.counters["tokens_per_s"] =
      benchmark::Counter(static_cast<double>(tokens), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RandomWalkGeneration)->Unit(benchmark::kMillisecond);

// Expected (center, context) pairs in one pass over `corpus`: each token
// draws r uniform in [1, window] and pairs with up to r tokens on each side,
// fewer near the ends of its walk (5.72 per token at walk length 50 and
// window 5).
double ExpectedPairsPerPass(const titant::graph::WalkCorpus& corpus, int window) {
  double pairs = 0.0;
  for (const auto& walk : corpus.walks) {
    const auto last = static_cast<int64_t>(walk.size()) - 1;
    for (int64_t i = 0; i <= last; ++i) {
      for (int64_t r = 1; r <= window; ++r) {
        pairs += static_cast<double>(std::min(i, r) + std::min(last - i, r));
      }
    }
  }
  return pairs / window;
}

void BM_SkipGramTraining(benchmark::State& state) {
  const auto network = MakeNetwork();
  titant::graph::RandomWalkOptions walk_options;
  walk_options.walk_length = 50;
  walk_options.walks_per_node = 2;
  const auto corpus = CheckOk(titant::graph::GenerateWalks(network, walk_options));

  titant::nrl::Word2VecOptions options;
  options.dim = 32;
  const double pairs_per_run = ExpectedPairsPerPass(corpus, options.window) * options.epochs;
  double pairs = 0.0;
  for (auto _ : state) {
    options.seed++;
    const auto embeddings =
        CheckOk(titant::nrl::TrainSkipGram(corpus, network.num_nodes(), options));
    pairs += pairs_per_run;
    benchmark::DoNotOptimize(embeddings.rows());
  }
  state.counters["pairs_per_s"] = benchmark::Counter(pairs, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SkipGramTraining)->Unit(benchmark::kMillisecond);

void BM_Struct2Vec(benchmark::State& state) {
  const auto network = MakeNetwork();
  titant::nrl::NodeLabels labels;
  labels.label.assign(network.num_nodes(), 0);
  labels.has_label.assign(network.num_nodes(), 1);
  for (std::size_t v = 0; v < network.num_nodes(); v += 37) labels.label[v] = 1;
  titant::nrl::Struct2VecOptions options;
  options.dim = 32;
  for (auto _ : state) {
    options.seed++;
    const auto embeddings = CheckOk(titant::nrl::Struct2Vec(network, labels, options));
    benchmark::DoNotOptimize(embeddings.rows());
  }
}
BENCHMARK(BM_Struct2Vec)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
