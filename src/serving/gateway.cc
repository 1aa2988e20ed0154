#include "serving/gateway.h"

namespace titant::serving {

Gateway::Gateway(ModelServerRouter* router, GatewayOptions options)
    : router_(router), options_(std::move(options)) {
  // Every stats source behind kStats registers here once; StatsSnapshot
  // is just Collect(). Providers read members guarded the same way the
  // old hand-rolled snapshot did, so they are safe before Start() and
  // after Shutdown().
  metrics_.Register("server", [this](net::GatewayStats* stats) {
    stats->requests_served = requests_served();
    stats->requests_shed =
        server_ == nullptr ? shed_before_shutdown_ : server_->requests_shed();
    stats->requests_expired =
        server_ == nullptr ? expired_before_shutdown_ : server_->requests_expired();
  });
  metrics_.Register("wire", [this](net::GatewayStats* stats) {
    const Histogram wire = WireLatencySnapshot();
    stats->wire_p50_us = wire.P50();
    stats->wire_p95_us = wire.P95();
    stats->wire_p99_us = wire.P99();
    stats->wire_p999_us = wire.P999();
    stats->wire_max_us = wire.max();
  });
  metrics_.Register("router", [this](net::GatewayStats* stats) {
    const Histogram inproc = router_->AggregateLatency();
    stats->inproc_p50_us = inproc.P50();
    stats->inproc_p99_us = inproc.P99();
    stats->degraded_verdicts = router_->degraded_total();
    stats->breaker_trips = router_->breaker_trips();
    stats->open_instances = static_cast<uint64_t>(router_->open_instances());
  });
  metrics_.Register("dispatch", [this](net::GatewayStats* stats) {
    // A kScore frame is one single-row router dispatch.
    stats->coalesced_batches = score_dispatches_.load();
    stats->coalesced_rows = stats->coalesced_batches;
  });
  metrics_.Register("streaming", [this](net::GatewayStats* stats) {
    if (options_.ingestor == nullptr) return;
    const streaming::IngestorStats ingest = options_.ingestor->stats();
    stats->puts_applied = ingest.put_cells;
    stats->ingest_enqueued = ingest.enqueued;
    stats->ingest_shed = ingest.shed;
    stats->ingest_applied = ingest.applied;
    stats->ingest_dropped = ingest.dropped;
    stats->counter_cells_published = ingest.counter_cells_published;
    stats->aggregator_users = options_.ingestor->aggregator().stats().active_users;
  });
}

Gateway::~Gateway() {
  const Status status = Shutdown();
  (void)status;  // Destructor shutdown is best-effort; Shutdown() logs.
}

Status Gateway::Start() {
  if (server_ != nullptr) return Status::FailedPrecondition("gateway already started");
  auto server = std::make_unique<net::Server>(
      options_.server,
      [this](const net::Frame& frame, std::string* body) { return Handle(frame, body); });
  TITANT_RETURN_IF_ERROR(server->Start());
  server_ = std::move(server);
  return Status::OK();
}

Status Gateway::Shutdown() {
  if (server_ == nullptr) return Status::OK();
  const Status status = server_->Shutdown();
  served_before_shutdown_ = server_->frames_dispatched();
  shed_before_shutdown_ = server_->requests_shed();
  expired_before_shutdown_ = server_->requests_expired();
  server_.reset();
  return status;
}

uint16_t Gateway::port() const { return server_ == nullptr ? 0 : server_->port(); }

uint64_t Gateway::requests_served() const {
  return server_ == nullptr ? served_before_shutdown_ : server_->frames_dispatched();
}

Histogram Gateway::WireLatencySnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wire_latency_us_;
}

net::GatewayStats Gateway::StatsSnapshot() const { return metrics_.Collect(); }

Status Gateway::Handle(const net::Frame& frame, std::string* body) {
  Status status = Status::OK();
  switch (frame.method) {
    case net::kScore: {
      TransferRequest request;
      const Status decoded = net::DecodeTransferRequest(frame.payload, &request);
      if (!decoded.ok()) {
        status = decoded;
        break;
      }
      // Propagate the caller's remaining budget so the instance can shed
      // fetch work (degraded mode) instead of blowing the deadline.
      StatusOr<Verdict> verdict =
          router_->Score(request, frame.has_deadline() ? frame.deadline_us() : 0);
      score_dispatches_.fetch_add(1);
      if (verdict.ok()) {
        net::EncodeVerdictTo(body, *verdict);
        // Close the loop: the scored transaction feeds the streaming
        // aggregator (bounded queue — never blocks this handler).
        if (options_.ingestor != nullptr) options_.ingestor->Submit(request);
      } else {
        status = verdict.status();
      }
      break;
    }
    case net::kScoreBatch: {
      // Decode/result scratch reused across requests on this reactor
      // thread; the router's ScoreSpan writes into it directly and the
      // response encodes from it, so a warm batch allocates nothing.
      thread_local std::vector<TransferRequest> requests;
      thread_local std::vector<StatusOr<Verdict>> items;
      const Status decoded = net::DecodeScoreBatchRequest(frame.payload, &requests);
      if (!decoded.ok()) {
        status = decoded;
        break;
      }
      // An explicit batch goes to the router as one dispatch under the
      // frame's single deadline.
      items.assign(requests.size(), StatusOr<Verdict>(Status::Internal("unscored")));
      const Status scored =
          router_->ScoreSpan(requests.data(), requests.size(),
                             frame.has_deadline() ? frame.deadline_us() : 0, items.data());
      if (scored.ok()) {
        net::EncodeScoreBatchResponseTo(body, items.data(), items.size());
        if (options_.ingestor != nullptr) {
          for (std::size_t i = 0; i < items.size(); ++i) {
            // Per-item-failed rows (unknown user, corrupt blob) carry no
            // usable verdict and are not ingested; degraded rows are —
            // the transaction happened either way.
            if (items[i].ok()) options_.ingestor->Submit(requests[i]);
          }
        }
      } else {
        status = scored;
      }
      break;
    }
    case net::kPutBatch: {
      // Per-reactor scratch; the decoder reuses its slots.
      thread_local std::vector<kvstore::Cell> cells;
      const Status decoded = net::DecodePutBatchRequest(frame.payload, &cells);
      if (!decoded.ok()) {
        status = decoded;
        break;
      }
      if (options_.ingestor == nullptr) {
        status = Status::FailedPrecondition("gateway has no ingestor (streaming writes disabled)");
        break;
      }
      status = options_.ingestor->PutCells(cells);
      break;
    }
    case net::kLoadModel: {
      uint64_t version = 0;
      std::string blob;
      const Status decoded = net::DecodeLoadModel(frame.payload, &version, &blob);
      if (!decoded.ok()) {
        status = decoded;
        break;
      }
      status = router_->LoadModel(blob, version);
      break;
    }
    case net::kHealth: {
      net::HealthInfo info;
      info.num_instances = static_cast<uint32_t>(router_->num_instances());
      for (int i = 0; i < router_->num_instances(); ++i) {
        info.healthy_instances += router_->instance_healthy(i) ? 1 : 0;
      }
      info.model_version = router_->model_version();
      net::EncodeHealthInfoTo(body, info);
      break;
    }
    case net::kStats: {
      net::EncodeGatewayStatsTo(body, StatsSnapshot());
      break;
    }
    default:
      status = Status::Unimplemented("unknown wire method " + std::to_string(frame.method));
      break;
  }
  const double wire_us = static_cast<double>(net::MonotonicMicros() - frame.received_at_us);
  {
    std::lock_guard<std::mutex> lock(mu_);
    wire_latency_us_.Add(wire_us);
  }
  return status;
}

// ---------------------------------------------------------------------------
// GatewayClient.

GatewayClient::GatewayClient(std::string host, uint16_t port, net::ClientOptions options)
    : client_(std::move(host), port, options) {}

StatusOr<Verdict> GatewayClient::Score(const TransferRequest& request, int timeout_ms) {
  payload_scratch_.clear();
  net::EncodeTransferRequestTo(&payload_scratch_, request);
  TITANT_ASSIGN_OR_RETURN(std::string_view body,
                          client_.CallRetryingView(net::kScore, payload_scratch_, timeout_ms));
  Verdict verdict;
  TITANT_RETURN_IF_ERROR(net::DecodeVerdict(body, &verdict));
  return verdict;
}

StatusOr<std::vector<StatusOr<Verdict>>> GatewayClient::ScoreBatch(
    const std::vector<TransferRequest>& requests, int timeout_ms) {
  payload_scratch_.clear();
  net::EncodeScoreBatchRequestTo(&payload_scratch_, requests);
  TITANT_ASSIGN_OR_RETURN(std::string_view body,
                          client_.CallRetryingView(net::kScoreBatch, payload_scratch_, timeout_ms));
  std::vector<StatusOr<Verdict>> items;
  TITANT_RETURN_IF_ERROR(net::DecodeScoreBatchResponse(body, &items));
  if (items.size() != requests.size()) {
    return Status::Internal("score batch response carries " + std::to_string(items.size()) +
                            " items for " + std::to_string(requests.size()) + " requests");
  }
  return items;
}

Status GatewayClient::PutBatch(const std::vector<kvstore::Cell>& cells, int timeout_ms) {
  payload_scratch_.clear();
  net::EncodePutBatchRequestTo(&payload_scratch_, cells);
  return client_.CallRetryingView(net::kPutBatch, payload_scratch_, timeout_ms).status();
}

Status GatewayClient::LoadModel(const std::string& blob, uint64_t version, int timeout_ms) {
  std::string payload;
  net::EncodeLoadModelTo(&payload, version, blob);
  return client_.Call(net::kLoadModel, payload, timeout_ms).status();
}

StatusOr<net::HealthInfo> GatewayClient::Health(int timeout_ms) {
  TITANT_ASSIGN_OR_RETURN(std::string_view body,
                          client_.CallRetryingView(net::kHealth, "", timeout_ms));
  net::HealthInfo info;
  TITANT_RETURN_IF_ERROR(net::DecodeHealthInfo(body, &info));
  return info;
}

StatusOr<net::GatewayStats> GatewayClient::Stats(int timeout_ms) {
  TITANT_ASSIGN_OR_RETURN(std::string body, client_.Call(net::kStats, "", timeout_ms));
  net::GatewayStats stats;
  TITANT_RETURN_IF_ERROR(net::DecodeGatewayStats(body, &stats));
  return stats;
}

}  // namespace titant::serving
