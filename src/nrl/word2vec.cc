#include "nrl/word2vec.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"
#include "nrl/sgns.h"

namespace titant::nrl {

StatusOr<EmbeddingMatrix> TrainSkipGram(const graph::WalkCorpus& corpus, std::size_t num_nodes,
                                        const Word2VecOptions& options) {
  if (options.dim <= 0) return Status::InvalidArgument("dim must be positive");
  if (options.window <= 0) return Status::InvalidArgument("window must be positive");
  if (options.negatives < 0) return Status::InvalidArgument("negatives must be >= 0");
  if (options.epochs <= 0) return Status::InvalidArgument("epochs must be positive");
  if (num_nodes == 0) return Status::InvalidArgument("num_nodes must be positive");
  for (const auto& walk : corpus.walks) {
    for (auto node : walk) {
      if (node >= num_nodes) return Status::OutOfRange("walk token beyond num_nodes");
    }
  }

  const int dim = options.dim;
  EmbeddingMatrix syn0(num_nodes, dim);  // Input vectors (the output artifact).
  EmbeddingMatrix syn1(num_nodes, dim);  // Output ("context") vectors, zero-init.
  Rng init_rng(options.seed);
  sgns::InitSyn0(syn0.Row(0), num_nodes * static_cast<std::size_t>(dim), dim, init_rng);

  AliasTable neg_table;
  if (!sgns::BuildNegativeTable(sgns::TokenCounts(corpus, num_nodes), options.neg_power,
                                neg_table)) {
    return Status::InvalidArgument("corpus is empty; nothing to train");
  }

  const double total_tokens = static_cast<double>(corpus.TotalTokens()) * options.epochs;
  std::atomic<uint64_t> tokens_done{0};

  // One shard of walks per thread; Hogwild updates on shared matrices.
  auto train_range = [&](std::size_t walk_begin, std::size_t walk_end, uint64_t seed) {
    Rng rng(seed);
    sgns::PairScratch scratch(options.negatives + 1);
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      for (std::size_t wi = walk_begin; wi < walk_end; ++wi) {
        const auto& walk = corpus.walks[wi];
        const uint64_t done =
            tokens_done.fetch_add(walk.size(), std::memory_order_relaxed);
        const float alpha =
            sgns::DecayedAlpha(options.alpha, options.min_alpha, done, total_tokens);
        // Negatives come from the unigram table, drawn on the window's RNG.
        sgns::TrainWalk(
            walk, options, alpha, rng, [&](std::size_t v) { return syn0.Row(v); },
            [&](std::size_t v) { return syn1.Row(v); }, [&] { return neg_table.Sample(rng); },
            scratch);
      }
    }
  };

  const int threads = std::max(1, options.num_threads);
  if (threads == 1) {
    train_range(0, corpus.walks.size(), options.seed ^ 0x9E3779B9ULL);
  } else {
    ThreadPool pool(static_cast<std::size_t>(threads));
    const std::size_t per =
        (corpus.walks.size() + static_cast<std::size_t>(threads) - 1) /
        static_cast<std::size_t>(threads);
    for (int t = 0; t < threads; ++t) {
      const std::size_t begin = static_cast<std::size_t>(t) * per;
      const std::size_t end = std::min(corpus.walks.size(), begin + per);
      if (begin >= end) break;
      pool.Submit([&train_range, begin, end, t, &options] {
        train_range(begin, end, options.seed + 0x1234ULL * static_cast<uint64_t>(t + 1));
      });
    }
    pool.Wait();
  }

  return syn0;
}

}  // namespace titant::nrl
