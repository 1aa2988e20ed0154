#include "nrl/word2vec.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/alias_table.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace titant::nrl {

namespace {

// Precomputed sigmoid over [-kMaxExp, kMaxExp], the classic word2vec trick.
class SigmoidTable {
 public:
  SigmoidTable() {
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

// Four float lanes (GCC/Clang vector extension). Each lane operation is one
// single-precision multiply or add, the same one the scalar loop performs on
// that element, so F4 code rounds exactly as the scalar loop does as long as
// no sum is reassociated.
typedef float F4 __attribute__((vector_size(16)));

F4 Load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store4(float* p, F4 v) { std::memcpy(p, &v, sizeof(v)); }

F4 Splat4(float x) { return F4{x, x, x, x}; }

// Adds four rows' products for dims d..d+3 (p_i = center[d..d+3] * row_i)
// to `acc`, whose lane i is row i's running dot product. Transposing the
// products lets every lane add its row's products one dim at a time, in dim
// order, as the scalar `dot += center[d] * row[d]` does.
void AddTransposed(F4& acc, F4 p0, F4 p1, F4 p2, F4 p3) {
  const F4 lo01 = __builtin_shufflevector(p0, p1, 0, 4, 1, 5);
  const F4 lo23 = __builtin_shufflevector(p2, p3, 0, 4, 1, 5);
  const F4 hi01 = __builtin_shufflevector(p0, p1, 2, 6, 3, 7);
  const F4 hi23 = __builtin_shufflevector(p2, p3, 2, 6, 3, 7);
  acc += __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5);
  acc += __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7);
  acc += __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5);
  acc += __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7);
}

// dots[i] = the dot product of `center` with rows[i], for 4 * kGroups rows
// (kGroups is 1 or 2), each summed from 0 in dim order exactly as the
// scalar loop sums it.
template <int kGroups>
void BatchedDots(const float* center, float* const* rows, int dim, float* dots) {
  F4 acc0 = {};
  F4 acc1 = {};
  int d = 0;
  for (; d + 4 <= dim; d += 4) {
    const F4 c = Load4(center + d);
    AddTransposed(acc0, c * Load4(rows[0] + d), c * Load4(rows[1] + d), c * Load4(rows[2] + d),
                  c * Load4(rows[3] + d));
    if constexpr (kGroups == 2) {
      AddTransposed(acc1, c * Load4(rows[4] + d), c * Load4(rows[5] + d),
                    c * Load4(rows[6] + d), c * Load4(rows[7] + d));
    }
  }
  Store4(dots, acc0);
  if constexpr (kGroups == 2) Store4(dots + 4, acc1);
  for (int i = 0; i < 4 * kGroups; ++i) {
    for (int t = d; t < dim; ++t) dots[i] += center[t] * rows[i][t];
  }
}

// One thread's working set for TrainPair, sized for a pair's targets plus
// the padding that fills their last group of 4 dot-product lanes.
struct PairScratch {
  explicit PairScratch(int max_targets)
      : rows(max_targets + 3), dot(max_targets + 3), g(max_targets) {}

  std::vector<float*> rows;  // syn1 rows: the context, then the kept negatives.
  std::vector<float> dot;
  std::vector<float> g;
};

// One SGNS step of a (center, context) pair over its `n` targets in
// s.rows: the context (label 1), then the negatives that differ from it
// (label 0), in draw order. The result is bit-identical to the
// one-target-at-a-time loop -- for each target: dot with the center,
// g = (label - sigmoid(dot)) * alpha, grad += g * row, row += g * center;
// then center += grad -- because every element sees the same float
// operations in the same order:
//  - the center does not change until the end, and a target's first
//    occurrence sees its row as the pair found it, so the dot products
//    are independent and are summed together, one lane per target;
//  - a row drawn again within the pair sees its earlier updates, so its
//    dot product is summed again afterwards, replaying them elementwise;
//  - the updates run 4 dims at a time, every target in order adding to the
//    gradient and moving its row, so the gradient stays in registers and a
//    repeated row is reloaded after its earlier update.
void TrainPair(float* center, int n, int dim, float alpha, const SigmoidTable& sigmoid,
               PairScratch& s) {
  float** rows = s.rows.data();
  // Pad the last group of 4 lanes with the last row; padding is only read,
  // and its dot products are never used.
  std::fill(rows + n, rows + (n + 3) / 4 * 4, rows[n - 1]);
  for (int i = 0; i < n; i += 8) {
    if (n - i > 4) {
      BatchedDots<2>(center, rows + i, dim, s.dot.data() + i);
    } else {
      BatchedDots<1>(center, rows + i, dim, s.dot.data() + i);
    }
  }
  for (int k = 0; k < n; ++k) {
    if (std::find(rows, rows + k, rows[k]) != rows + k) {
      float dot = 0.0f;
      for (int d = 0; d < dim; ++d) {
        float v = rows[k][d];
        for (int j = 0; j < k; ++j) {
          if (rows[j] == rows[k]) v += s.g[j] * center[d];
        }
        dot += center[d] * v;
      }
      s.dot[k] = dot;
    }
    s.g[k] = ((k == 0 ? 1.0f : 0.0f) - sigmoid(s.dot[k])) * alpha;
  }

  int d = 0;
  for (; d + 4 <= dim; d += 4) {
    const F4 c = Load4(center + d);
    F4 grad = {};
    for (int k = 0; k < n; ++k) {
      const F4 g = Splat4(s.g[k]);
      const F4 t = Load4(rows[k] + d);
      grad += g * t;
      Store4(rows[k] + d, t + g * c);
    }
    Store4(center + d, c + grad);
  }
  for (; d < dim; ++d) {
    const float c = center[d];
    float grad = 0.0f;
    for (int k = 0; k < n; ++k) {
      const float t = rows[k][d];
      grad += s.g[k] * t;
      rows[k][d] = t + s.g[k] * c;
    }
    center[d] = c + grad;
  }
}

}  // namespace

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
  {
    Rng init_rng(options.seed);
    for (std::size_t v = 0; v < num_nodes; ++v) {
      float* row = syn0.Row(v);
      for (int j = 0; j < dim; ++j) {
        row[j] = static_cast<float>((init_rng.NextDouble() - 0.5) / dim);
      }
    }
  }

  // Unigram^0.75 negative-sampling table over corpus frequencies.
  std::vector<double> freq(num_nodes, 0.0);
  for (const auto& walk : corpus.walks) {
    for (auto node : walk) freq[node] += 1.0;
  }
  std::vector<double> neg_weight(num_nodes, 0.0);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    if (freq[v] > 0.0) neg_weight[v] = std::pow(freq[v], options.neg_power);
  }
  AliasTable neg_table;
  if (!neg_table.Build(neg_weight)) {
    return Status::InvalidArgument("corpus is empty; nothing to train");
  }

  static const SigmoidTable sigmoid;

  const double total_tokens =
      static_cast<double>(corpus.TotalTokens()) * options.epochs + 1.0;
  std::atomic<uint64_t> tokens_done{0};

  // One shard of walks per thread; Hogwild updates on shared matrices.
  auto train_range = [&](std::size_t walk_begin, std::size_t walk_end, uint64_t seed) {
    Rng rng(seed);
    PairScratch scratch(options.negatives + 1);
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      for (std::size_t wi = walk_begin; wi < walk_end; ++wi) {
        const auto& walk = corpus.walks[wi];
        const uint64_t done =
            tokens_done.fetch_add(walk.size(), std::memory_order_relaxed);
        const float progress = static_cast<float>(done / total_tokens);
        const float alpha =
            std::max(options.min_alpha, options.alpha * (1.0f - progress));
        for (std::size_t i = 0; i < walk.size(); ++i) {
          const auto center = walk[i];
          // Dynamic window: uniform in [1, window], as in word2vec.c.
          const int reduced =
              1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(options.window)));
          const std::size_t lo = i >= static_cast<std::size_t>(reduced) ? i - reduced : 0;
          const std::size_t hi = std::min(walk.size() - 1, i + reduced);
          for (std::size_t j = lo; j <= hi; ++j) {
            if (j == i) continue;
            const auto context = walk[j];
            // One positive + `negatives` sampled negatives; a negative equal
            // to the context is skipped.
            scratch.rows[0] = syn1.Row(context);
            int n = 1;
            for (int s = 0; s < options.negatives; ++s) {
              const std::size_t target = neg_table.Sample(rng);
              if (target != context) scratch.rows[n++] = syn1.Row(target);
            }
            TrainPair(syn0.Row(center), n, dim, alpha, sigmoid, scratch);
          }
        }
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
