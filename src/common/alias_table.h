#ifndef TITANT_COMMON_ALIAS_TABLE_H_
#define TITANT_COMMON_ALIAS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace titant {

/// x % n for one fixed n by multiplications instead of a division
/// (Lemire, Kaser & Kurz, "Faster remainder by direct computation", 2019):
/// with c = ceil(2^128 / n) mod 2^128, x % n is the top 64 bits of
/// ((c * x) mod 2^128) * n, for every 64-bit x and every n >= 1.
class FixedModulus {
 public:
  FixedModulus() = default;
  explicit FixedModulus(uint64_t n) : n_(n), reciprocal_(~Uint128{0} / n + 1) {}

  uint64_t Of(uint64_t x) const {
    const Uint128 low = reciprocal_ * x;
    const Uint128 bottom = static_cast<Uint128>(static_cast<uint64_t>(low)) * n_;
    const Uint128 top = (low >> 64) * n_;
    return static_cast<uint64_t>((top + (bottom >> 64)) >> 64);
  }

 private:
  __extension__ using Uint128 = unsigned __int128;

  uint64_t n_ = 1;
  Uint128 reciprocal_ = 0;  // ceil(2^128 / n) mod 2^128 (0 for n = 1).
};

/// Walker's alias method: O(n) build, O(1) weighted sampling. Used for
/// random-walk neighbor choice and word2vec's unigram^0.75 negative table.
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table from non-negative `weights` (at least one must be
  /// positive). Invalid input leaves the table empty.
  explicit AliasTable(const std::vector<double>& weights) { Build(weights); }

  /// (Re)builds from `weights`; returns false on invalid input.
  bool Build(const std::vector<double>& weights);

  /// Samples an index with probability proportional to its weight: the
  /// cell rng.Uniform(size()) draws, then rng.NextDouble() picks the cell
  /// or its alias. The same draws as those two calls, with the rejection
  /// threshold and the remainder's reciprocal precomputed by Build, so no
  /// division. Requires a successfully built, non-empty table.
  std::size_t Sample(Rng& rng) const {
    TITANT_CHECK(!prob_.empty()) << "sampling from an empty AliasTable";
    uint64_t r = rng.NextU64();
    while (r < threshold_) r = rng.NextU64();
    const std::size_t i = static_cast<std::size_t>(mod_.Of(r));
    return rng.NextDouble() < prob_[i] ? i : alias_[i];
  }

  bool empty() const { return prob_.empty(); }
  std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  uint64_t threshold_ = 0;  // 2^64 mod size(): Uniform's rejection threshold.
  FixedModulus mod_;        // % size().
};

}  // namespace titant

#endif  // TITANT_COMMON_ALIAS_TABLE_H_
