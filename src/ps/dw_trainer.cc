#include "ps/dw_trainer.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "nrl/sgns.h"

namespace titant::ps {

namespace {

// syn0 (input vectors, the artifact) on even keys; syn1 (output/context
// vectors) on odd keys.
Key Syn0Key(std::size_t node) { return static_cast<Key>(node) * 2; }
Key Syn1Key(std::size_t node) { return static_cast<Key>(node) * 2 + 1; }

}  // namespace

StatusOr<nrl::EmbeddingMatrix> DistributedDeepWalkTrain(KunPengCluster& cluster,
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
    for (std::size_t v = 0; v < num_nodes; ++v) keys.push_back(Syn0Key(v));
    std::vector<float> values(num_nodes * static_cast<std::size_t>(dim));
    nrl::sgns::InitSyn0(values.data(), values.size(), dim, init_rng);
    client.Push(keys, values, dim, PushOp::kAssign);
  }

  // Shared negative-sampling table (built once; read-only afterwards).
  AliasTable neg_table;
  if (!nrl::sgns::BuildNegativeTable(nrl::sgns::TokenCounts(corpus, num_nodes), w2v.neg_power,
                                     neg_table)) {
    return Status::InvalidArgument("degenerate corpus");
  }

  const double total_tokens = static_cast<double>(corpus.TotalTokens()) * w2v.epochs;
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
    nrl::sgns::PairScratch scratch(w2v.negatives + 1);
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

        // 3. Local SGNS updates on the pulled rows; the batch's negatives
        // are drawn in order, wrapping around.
        const uint64_t done = tokens_done.fetch_add(batch_tokens);
        const float alpha = nrl::sgns::DecayedAlpha(w2v.alpha, w2v.min_alpha, done, total_tokens);
        auto row = [&](Key key) { return local.data() + slot[key] * dim; };
        std::size_t neg_cursor = 0;
        for (std::size_t wi = batch_begin; wi < batch_end; ++wi) {
          nrl::sgns::TrainWalk(
              corpus.walks[wi], w2v, alpha, rng, [&](std::size_t v) { return row(Syn0Key(v)); },
              [&](std::size_t v) { return row(Syn1Key(v)); },
              [&] { return negatives[neg_cursor++ % negatives.size()]; }, scratch);
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

}  // namespace titant::ps
