#ifndef TITANT_SERVING_GATEWAY_H_
#define TITANT_SERVING_GATEWAY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/histogram.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serving/metrics.h"
#include "serving/router.h"
#include "streaming/ingestor.h"

namespace titant::serving {

/// Gateway configuration.
struct GatewayOptions {
  /// The TCP listener: bind address, port (0 picks an ephemeral one, read
  /// back via port()), reactors that each score their own connections'
  /// requests to completion, and admission control.
  net::ServerOptions server;
  /// Streaming ingestion engine (not owned; must outlive the gateway).
  /// When set, every successfully scored transaction is submitted to it
  /// after the verdict is produced (closing the feature loop), and the
  /// kPutBatch wire method writes through its PutCells. Null — the
  /// default — keeps the gateway read-only: puts are refused with
  /// FailedPrecondition and scored events are not folded back.
  streaming::Ingestor* ingestor = nullptr;
};

/// The TCP front door of the Model Server fleet (§4.4, Fig. 5: the Alipay
/// server reaches the distributed MS over the network). Maps wire methods
/// onto a ModelServerRouter — kScore -> Score, kLoadModel -> broadcast
/// rollout, kHealth/kStats -> fleet introspection — and tracks a gateway
/// histogram of on-the-wire latency (kernel receive -> response encoded,
/// including the wait behind earlier requests on the same reactor)
/// alongside the router's in-process one, so the network tax is measured,
/// not guessed. Each kScore frame is one router dispatch, scored on the
/// reactor that read it.
class Gateway {
 public:
  /// `router` must outlive the gateway.
  Gateway(ModelServerRouter* router, GatewayOptions options = GatewayOptions());
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Binds and starts serving. FailedPrecondition when already started.
  Status Start();

  /// Graceful shutdown: stop accepting, drain in-flight requests, flush
  /// replies, close. Idempotent.
  Status Shutdown();

  /// The bound port.
  uint16_t port() const;

  /// Requests dispatched to a handler since Start().
  uint64_t requests_served() const;

  /// On-the-wire latency distribution (microseconds): kernel receive to
  /// response encode, including the wait behind earlier requests.
  Histogram WireLatencySnapshot() const;

  /// The current stats payload (same data kStats serves remotely):
  /// MetricsRegistry::Collect over every registered source.
  net::GatewayStats StatsSnapshot() const;

  /// The stats registry behind StatsSnapshot/kStats. The gateway
  /// registers its built-in sources (server, wire, router, dispatch,
  /// streaming) at construction; embedders may Register more.
  MetricsRegistry& metrics() { return metrics_; }

 private:
  /// Fills `*body` (a server-owned reused buffer) and returns the handler
  /// status transported in-band; the scoring paths encode straight into
  /// the buffer so a warm steady state allocates nothing here.
  Status Handle(const net::Frame& frame, std::string* body);

  ModelServerRouter* router_;
  GatewayOptions options_;
  std::unique_ptr<net::Server> server_;
  /// Router dispatches made for kScore frames, one row each.
  std::atomic<uint64_t> score_dispatches_{0};
  // Final tallies once server_ is gone.
  uint64_t served_before_shutdown_ = 0;
  uint64_t shed_before_shutdown_ = 0;
  uint64_t expired_before_shutdown_ = 0;
  mutable std::mutex mu_;
  Histogram wire_latency_us_;
  MetricsRegistry metrics_;
};

/// Typed client for the gateway protocol: the piece the Alipay server (or
/// titant_cli) links to score transfers remotely. Thin wrapper over
/// net::Client, so it inherits connection reuse, per-call deadlines, and
/// Status-typed transport errors. Not thread-safe; one per thread.
class GatewayClient {
 public:
  GatewayClient(std::string host, uint16_t port, net::ClientOptions options = net::ClientOptions());

  /// Scores one transfer remotely. Retryable transport failures
  /// (Unavailable/Timeout/ResourceExhausted) are retried under the call's
  /// overall deadline budget per options.retry — Score is idempotent
  /// server-side, so re-sending is safe.
  StatusOr<Verdict> Score(const TransferRequest& request, int timeout_ms = 0);

  /// Scores a batch of transfers in one wire round trip (kScoreBatch).
  /// The outer StatusOr covers the transport and the gateway handler;
  /// per-item outcomes — a degraded verdict, an unknown user — ride
  /// inside the vector, which matches `requests` element for element.
  /// Retried like Score (idempotent server-side).
  StatusOr<std::vector<StatusOr<Verdict>>> ScoreBatch(
      const std::vector<TransferRequest>& requests, int timeout_ms = 0);

  /// Writes a batch of feature cells in one round trip (kPutBatch; a
  /// single put is a batch of one). Idempotent server-side (a cell is
  /// keyed by row/family/qualifier/version), so transport failures are
  /// retried like Score.
  Status PutBatch(const std::vector<kvstore::Cell>& cells, int timeout_ms = 0);

  /// Rolls a serialized model out to every instance behind the gateway.
  Status LoadModel(const std::string& blob, uint64_t version, int timeout_ms = 0);

  /// Fleet health: instance counts and the installed model version.
  StatusOr<net::HealthInfo> Health(int timeout_ms = 0);

  /// Gateway latency statistics (wire vs in-process).
  StatusOr<net::GatewayStats> Stats(int timeout_ms = 0);

  /// The underlying transport (deadline knobs, explicit Connect/Close).
  net::Client& transport() { return client_; }

 private:
  net::Client client_;
  /// Request-payload encode buffer, reused across calls (the class is
  /// single-threaded by contract, so no locking).
  std::string payload_scratch_;
};

}  // namespace titant::serving

#endif  // TITANT_SERVING_GATEWAY_H_
