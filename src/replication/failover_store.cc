#include "replication/failover_store.h"

#include <string_view>
#include <utility>

namespace titant::replication {

FailoverStore::FailoverStore(kvstore::KvTable* primary, kvstore::KvTable* standby)
    : primary_(primary), standby_(standby) {}

bool FailoverStore::AnyInfraFailure(const StatusOr<std::string_view>* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Status& status = out[i].status();
    if (!status.ok() && (status.IsRetryable() || status.IsIOError())) return true;
  }
  return false;
}

void FailoverStore::PrimaryAnswered() const {
  if (breaker_.Close()) failbacks_.fetch_add(1, std::memory_order_relaxed);
}

void FailoverStore::MultiGetView(const kvstore::ColumnProbeView* probes, std::size_t n,
                                 kvstore::ReadPin* pin, StatusOr<std::string_view>* out,
                                 uint64_t snapshot) const {
  if (!breaker_.open()) {
    primary_->MultiGetView(probes, n, pin, out, snapshot);
    if (!AnyInfraFailure(out, n)) {
      PrimaryAnswered();
      return;
    }
    breaker_.Fail();
    if (!breaker_.open()) return;
    // Fall through: re-fetch the batch that tripped the breaker from the
    // standby, so this caller gets stale-but-real features instead of a
    // degraded miss at the moment of the flip.
  } else if (MaybeProbePrimary(probes, n, snapshot)) {
    // Probe succeeded and the store failed back; serve from the primary.
    primary_->MultiGetView(probes, n, pin, out, snapshot);
    if (!AnyInfraFailure(out, n)) return;
    // The primary flapped between probe and fetch: flip straight back.
    breaker_.Trip();
  }
  standby_->MultiGetView(probes, n, pin, out, snapshot);
}

bool FailoverStore::MaybeProbePrimary(const kvstore::ColumnProbeView* probes, std::size_t n,
                                      uint64_t snapshot) const {
  if (n == 0 || !breaker_.ProbeDue()) return false;
  std::unique_lock<std::mutex> lock(probe_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;  // Another thread is mid-probe.
  probes_.fetch_add(1, std::memory_order_relaxed);
  probe_pin_.Reset();
  probe_out_.assign(n, StatusOr<std::string_view>(std::string_view()));
  primary_->MultiGetView(probes, n, &probe_pin_, probe_out_.data(), snapshot);
  if (AnyInfraFailure(probe_out_.data(), n)) return false;
  PrimaryAnswered();
  return true;
}

Status FailoverStore::PutBatch(const std::vector<kvstore::Cell>& cells) {
  if (!breaker_.open()) {
    const Status status = primary_->PutBatch(cells);
    if (status.ok() || (!status.IsRetryable() && !status.IsIOError())) {
      PrimaryAnswered();
      return status;
    }
    breaker_.Fail();
    if (!breaker_.open()) return status;
    // Fall through: apply the tripping batch on the standby so the write
    // (a counter publish, typically) survives the flip. The standby's
    // copy outranks whatever the dead primary held — the ingestor's
    // publish versions are monotonic — so failback converges.
  }
  return standby_->PutBatch(cells);
}

void FailoverStore::ForceFailover() { breaker_.Trip(); }

void FailoverStore::ForceFailback() { PrimaryAnswered(); }

FailoverStoreStats FailoverStore::stats() const {
  FailoverStoreStats stats;
  stats.on_standby = breaker_.open();
  stats.failovers = breaker_.trips();
  stats.failbacks = failbacks_.load(std::memory_order_relaxed);
  stats.probes = probes_.load(std::memory_order_relaxed);
  return stats;
}

void FailoverStore::FillStats(net::GatewayStats* stats) const {
  stats->repl_failovers = breaker_.trips();
}

}  // namespace titant::replication
