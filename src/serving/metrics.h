#ifndef TITANT_SERVING_METRICS_H_
#define TITANT_SERVING_METRICS_H_

#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/store.h"
#include "net/wire.h"

namespace titant::serving {

/// One registry for every stats source behind the gateway's kStats frame.
///
/// The serving stack grew observability piecemeal — server admission
/// counters, the wire histogram, router breaker stats, dispatch tallies,
/// and now the streaming ingestor — each read by hand in one ever-growing
/// snapshot function. The registry inverts that: each subsystem registers
/// a named provider that fills its own slice of net::GatewayStats, and
/// Collect() runs them in registration order over one zeroed snapshot.
/// Adding a stats source is now a Register call next to the subsystem's
/// construction, not an edit to a central switchboard.
///
/// Thread-safe. Providers must tolerate concurrent invocation and outlive
/// the registry (the gateway registers lambdas over members it owns).
class MetricsRegistry {
 public:
  using Provider = std::function<void(net::GatewayStats*)>;

  /// Registers a provider; `name` is diagnostic (sources()).
  void Register(std::string name, Provider provider) {
    std::lock_guard<std::mutex> lock(mu_);
    providers_.emplace_back(std::move(name), std::move(provider));
  }

  /// Runs every provider, in registration order, over a fresh snapshot.
  net::GatewayStats Collect() const {
    net::GatewayStats stats;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, provider] : providers_) provider(&stats);
    return stats;
  }

  /// Registered source names, in registration order.
  std::vector<std::string> sources() const {
    std::vector<std::string> names;
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(providers_.size());
    for (const auto& [name, provider] : providers_) names.push_back(name);
    return names;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Provider>> providers_;
};

/// Fills the kv_* slice of a GatewayStats snapshot from a store counter
/// snapshot.
inline void FillKvStats(const kvstore::KvStoreStats& s, net::GatewayStats* out) {
  out->kv_cache_hits = s.cache_hits;
  out->kv_cache_misses = s.cache_misses;
  out->kv_cache_bytes = s.cache_bytes;
  out->kv_flushes = s.flushes;
  out->kv_compactions = s.compactions;
  out->kv_compaction_backlog = s.compaction_backlog;
  out->kv_maintenance_bytes_written = s.maintenance_bytes_written;
  out->kv_stall_us = s.stall_us;
}

/// A provider bound to `store`, for registration under the conventional
/// name "kvstore":
///
///   gateway.metrics().Register("kvstore", KvStatsProvider(&store));
///
/// `store` must outlive the registry (or at least every Collect call).
inline MetricsRegistry::Provider KvStatsProvider(const kvstore::AliHBase* store) {
  return [store](net::GatewayStats* out) { FillKvStats(store->kv_stats(), out); };
}

}  // namespace titant::serving

#endif  // TITANT_SERVING_METRICS_H_
