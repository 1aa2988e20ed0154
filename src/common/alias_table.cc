#include "common/alias_table.h"

namespace titant {

bool AliasTable::Build(const std::vector<double>& weights) {
  prob_.clear();
  alias_.clear();
  if (weights.empty()) return false;
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) return false;
    total += w;
  }
  if (total <= 0.0) return false;

  const std::size_t n = weights.size();
  prob_.resize(n);
  alias_.resize(n);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = scaled[l] + scaled[s] - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Numerical leftovers: both stacks hold cells with probability ~1.
  for (uint32_t s : small) {
    prob_[s] = 1.0;
    alias_[s] = s;
  }
  for (uint32_t l : large) {
    prob_[l] = 1.0;
    alias_[l] = l;
  }
  threshold_ = -static_cast<uint64_t>(n) % n;
  mod_ = FixedModulus(n);
  return true;
}

}  // namespace titant
