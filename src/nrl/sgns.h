#ifndef TITANT_NRL_SGNS_H_
#define TITANT_NRL_SGNS_H_

// The skip-gram-with-negative-sampling (SGNS) step and its setup, shared
// by every SGNS trainer: TrainSkipGram (DeepWalk in the T+1 job),
// TrainLine and ps::DistributedDeepWalkTrain. Everything here is inline,
// and the pair kernel always inlines, so TrainSkipGram's loop compiles as
// it did when the kernel was private to word2vec.cc (DESIGN.md §15).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/alias_table.h"
#include "common/random.h"
#include "graph/random_walk.h"
#include "nrl/word2vec.h"

namespace titant::nrl::sgns {

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

/// The one table, built on first use.
inline const SigmoidTable& Sigmoid() {
  static const SigmoidTable table;
  return table;
}

// Four float lanes (GCC/Clang vector extension). Each lane operation is one
// single-precision multiply or add, the same one the scalar loop performs on
// that element, so F4 code rounds exactly as the scalar loop does as long as
// no sum is reassociated.
typedef float F4 __attribute__((vector_size(16)));

inline F4 Load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store4(float* p, F4 v) { std::memcpy(p, &v, sizeof(v)); }

inline F4 Splat4(float x) { return F4{x, x, x, x}; }

// Adds four rows' products for dims d..d+3 (p_i = center[d..d+3] * row_i)
// to `acc`, whose lane i is row i's running dot product. Transposing the
// products lets every lane add its row's products one dim at a time, in dim
// order, as the scalar `dot += center[d] * row[d]` does.
inline void AddTransposed(F4& acc, F4 p0, F4 p1, F4 p2, F4 p3) {
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
[[gnu::always_inline]] inline void BatchedDots(const float* center, float* const* rows, int dim,
                                               float* dots) {
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

/// One thread's working set for TrainPair, sized for a pair's targets plus
/// the padding that fills their last group of 4 dot-product lanes.
struct PairScratch {
  explicit PairScratch(int max_targets)
      : rows(max_targets + 3), dot(max_targets + 3), g(max_targets) {}

  std::vector<float*> rows;  // Output rows: the positive target, then the negatives.
  std::vector<float> dot;
  std::vector<float> g;
};

/// One SGNS step of a center row over its `n` targets in s.rows: the
/// positive (label 1), then the negatives (label 0), in draw order. No
/// target may overlap the center. The result is bit-identical to the
/// one-target-at-a-time loop -- for each target: dot with the center,
/// g = (label - sigmoid(dot)) * alpha, grad += g * row, row += g * center;
/// then center += grad -- because every element sees the same float
/// operations in the same order:
///  - the center does not change until the end, and a target's first
///    occurrence sees its row as the pair found it, so the dot products
///    are independent and are summed together, one lane per target;
///  - a row drawn again within the pair sees its earlier updates, so its
///    dot product is summed again afterwards, replaying them elementwise;
///  - the updates run 4 dims at a time, every target in order adding to the
///    gradient and moving its row, so the gradient stays in registers and a
///    repeated row is reloaded after its earlier update.
[[gnu::always_inline]] inline void TrainPair(float* center, int n, int dim, float alpha,
                                             const SigmoidTable& sigmoid, PairScratch& s) {
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

/// Trains every (center, context) pair of `walk` as word2vec.c does: at
/// each position a window drawn uniformly from [1, options.window] with
/// `rng`, then for each context in it one TrainPair step over the context
/// and options.negatives draws of next_negative(), less those equal to the
/// context. center_row(v) and target_row(v) give node v's input and output
/// rows, which must not overlap.
template <typename CenterRow, typename TargetRow, typename NextNegative>
void TrainWalk(const std::vector<graph::NodeId>& walk, const Word2VecOptions& options,
               float alpha, Rng& rng, CenterRow center_row, TargetRow target_row,
               NextNegative next_negative, PairScratch& scratch) {
  const SigmoidTable& sigmoid = Sigmoid();
  for (std::size_t i = 0; i < walk.size(); ++i) {
    float* center = center_row(walk[i]);
    // Dynamic window: uniform in [1, window], as in word2vec.c.
    const int reduced = 1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(options.window)));
    const std::size_t lo = i >= static_cast<std::size_t>(reduced) ? i - reduced : 0;
    const std::size_t hi = std::min(walk.size() - 1, i + reduced);
    for (std::size_t j = lo; j <= hi; ++j) {
      if (j == i) continue;
      const auto context = walk[j];
      scratch.rows[0] = target_row(context);
      int n = 1;
      for (int s = 0; s < options.negatives; ++s) {
        const std::size_t target = next_negative();
        if (target != context) scratch.rows[n++] = target_row(target);
      }
      TrainPair(center, n, options.dim, alpha, sigmoid, scratch);
    }
  }
}

/// word2vec's initial input vectors: each of the `count` floats at `rows`
/// (rows of `dim`, back to back) is uniform in [-0.5, 0.5) / dim, drawn
/// in order from `rng`.
inline void InitSyn0(float* rows, std::size_t count, int dim, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    rows[i] = static_cast<float>((rng.NextDouble() - 0.5) / dim);
  }
}

/// How often each of `num_nodes` nodes occurs in `corpus`.
inline std::vector<double> TokenCounts(const graph::WalkCorpus& corpus, std::size_t num_nodes) {
  std::vector<double> counts(num_nodes, 0.0);
  for (const auto& walk : corpus.walks) {
    for (auto node : walk) counts[node] += 1.0;
  }
  return counts;
}

/// Builds `table` to draw node v with probability proportional to
/// counts[v]^neg_power: word2vec's unigram^0.75 negatives. False when no
/// count is positive.
inline bool BuildNegativeTable(const std::vector<double>& counts, double neg_power,
                               AliasTable& table) {
  std::vector<double> weights(counts.size(), 0.0);
  for (std::size_t v = 0; v < counts.size(); ++v) {
    if (counts[v] > 0.0) weights[v] = std::pow(counts[v], neg_power);
  }
  return table.Build(weights);
}

/// The learning rate after `done` of `total` steps: linear from `alpha`
/// towards 0, floored at `min_alpha`.
inline float DecayedAlpha(float alpha, float min_alpha, uint64_t done, double total) {
  const float progress = static_cast<float>(done / (total + 1.0));
  return std::max(min_alpha, alpha * (1.0f - progress));
}

}  // namespace titant::nrl::sgns

#endif  // TITANT_NRL_SGNS_H_
