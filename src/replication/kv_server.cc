#include "replication/kv_server.h"

#include <string>
#include <utility>
#include <vector>

namespace titant::replication {

KvStoreServer::KvStoreServer(kvstore::AliHBase* store, net::ServerOptions options)
    : store_(store),
      server_(std::make_unique<net::Server>(
          std::move(options),
          [this](const net::Frame& request, std::string* body) { return Handle(request, body); })) {}

KvStoreServer::~KvStoreServer() { (void)Shutdown(); }

Status KvStoreServer::Start() { return server_->Start(); }

Status KvStoreServer::Shutdown() { return server_->Shutdown(); }

uint16_t KvStoreServer::port() const { return server_->port(); }

Status KvStoreServer::Handle(const net::Frame& request, std::string* body) {
  switch (request.method) {
    case net::kPutBatch:
      return HandlePut(request);
    case net::kReplAppend:
      return HandleReplAppend(request, body);
    case net::kReplCatchup:
      return HandleReplCatchup(request, body);
    case net::kHealth: {
      // model_version doubles as the replication watermark: a probing
      // shipper (or operator) reads how far this node has applied.
      net::HealthInfo info;
      info.num_instances = 1;
      info.healthy_instances = 1;
      info.model_version = watermark();
      net::EncodeHealthInfoTo(body, info);
      return Status::OK();
    }
    case net::kStats: {
      net::GatewayStats stats;
      FillStats(&stats);
      stats.puts_applied = puts_applied_.load(std::memory_order_relaxed);
      net::EncodeGatewayStatsTo(body, stats);
      return Status::OK();
    }
    default:
      return Status::Unimplemented("kvstore node does not serve method " +
                                   std::to_string(request.method));
  }
}

Status KvStoreServer::HandlePut(const net::Frame& request) {
  // Per-reactor scratch; the decoder reuses its slots.
  thread_local std::vector<kvstore::Cell> cells;
  TITANT_RETURN_IF_ERROR(net::DecodePutBatchRequest(request.payload, &cells));
  const std::size_t n = cells.size();
  TITANT_RETURN_IF_ERROR(store_->PutBatch(cells));
  puts_applied_.fetch_add(n, std::memory_order_relaxed);
  return Status::OK();
}

Status KvStoreServer::HandleReplAppend(const net::Frame& request, std::string* body) {
  uint64_t first_seq = 0;
  std::vector<net::ReplRecord> records;
  TITANT_RETURN_IF_ERROR(net::DecodeReplAppend(request.payload, &first_seq, &records));

  std::lock_guard<std::mutex> lock(apply_mu_);
  const uint64_t mark = watermark_.load(std::memory_order_relaxed);
  const uint64_t last_seq = first_seq + records.size() - 1;
  if (last_seq <= mark) {
    // Full replay of records already applied (shipper retry after a lost
    // ack). Applying cells again would be harmless — they are keyed by
    // row/family/qualifier/version — but skipping is free.
    net::EncodeReplAckTo(body, mark);
    return Status::OK();
  }
  if (first_seq > mark + 1) {
    gaps_detected_.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition(
        "replication gap: watermark " + std::to_string(mark) + ", batch starts at seq " +
        std::to_string(first_seq) + "; snapshot catch-up required");
  }
  // Apply the suffix past the watermark; the prefix is replayed overlap.
  uint64_t applied_records = 0;
  uint64_t applied_cells = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const uint64_t seq = first_seq + static_cast<uint64_t>(i);
    if (seq <= mark) continue;
    TITANT_RETURN_IF_ERROR(store_->PutBatch(records[i].cells));
    // Advance per record, not per batch: a mid-batch apply failure leaves
    // the watermark on the last record that actually landed, and the
    // shipper's re-send skips the applied prefix.
    watermark_.store(seq, std::memory_order_release);
    ++applied_records;
    applied_cells += records[i].cells.size();
  }
  repl_records_applied_.fetch_add(applied_records, std::memory_order_relaxed);
  repl_cells_applied_.fetch_add(applied_cells, std::memory_order_relaxed);
  net::EncodeReplAckTo(body, last_seq);
  return Status::OK();
}

Status KvStoreServer::HandleReplCatchup(const net::Frame& request, std::string* body) {
  uint64_t snapshot_watermark = 0;
  bool done = false;
  std::vector<kvstore::Cell> cells;
  TITANT_RETURN_IF_ERROR(
      net::DecodeReplCatchup(request.payload, &snapshot_watermark, &done, &cells));

  std::lock_guard<std::mutex> lock(apply_mu_);
  if (!cells.empty()) {
    TITANT_RETURN_IF_ERROR(store_->PutBatch(cells));
    catchup_cells_.fetch_add(cells.size(), std::memory_order_relaxed);
  }
  catchup_bytes_.fetch_add(request.payload.size(), std::memory_order_relaxed);
  if (done && snapshot_watermark > watermark_.load(std::memory_order_relaxed)) {
    // Adopt only on the final chunk: a half-delivered catch-up leaves the
    // old watermark, so the next kReplAppend re-detects the gap and the
    // whole snapshot is simply retried (applies are idempotent).
    watermark_.store(snapshot_watermark, std::memory_order_release);
  }
  net::EncodeReplAckTo(body, watermark_.load(std::memory_order_relaxed));
  return Status::OK();
}

KvServerStats KvStoreServer::stats() const {
  KvServerStats stats;
  stats.puts_applied = puts_applied_.load(std::memory_order_relaxed);
  stats.repl_records_applied = repl_records_applied_.load(std::memory_order_relaxed);
  stats.repl_cells_applied = repl_cells_applied_.load(std::memory_order_relaxed);
  stats.catchup_cells = catchup_cells_.load(std::memory_order_relaxed);
  stats.catchup_bytes = catchup_bytes_.load(std::memory_order_relaxed);
  stats.gaps_detected = gaps_detected_.load(std::memory_order_relaxed);
  stats.watermark = watermark();
  return stats;
}

void KvStoreServer::FillStats(net::GatewayStats* stats) const {
  // On a replica the acked seq IS its own watermark; shipped/lag belong to
  // the primary's shipper and stay zero here.
  stats->repl_acked_seq = watermark();
  stats->repl_catchup_cells = catchup_cells_.load(std::memory_order_relaxed);
  stats->repl_catchup_bytes = catchup_bytes_.load(std::memory_order_relaxed);
  // The node's storage engine: cache traffic and maintenance health.
  const kvstore::KvStoreStats kv = store_->kv_stats();
  stats->kv_cache_hits = kv.cache_hits;
  stats->kv_cache_misses = kv.cache_misses;
  stats->kv_cache_bytes = kv.cache_bytes;
  stats->kv_flushes = kv.flushes;
  stats->kv_compactions = kv.compactions;
  stats->kv_compaction_backlog = kv.compaction_backlog;
  stats->kv_maintenance_bytes_written = kv.maintenance_bytes_written;
  stats->kv_stall_us = kv.stall_us;
}

}  // namespace titant::replication
