#ifndef TITANT_SERVING_MODEL_SERVER_H_
#define TITANT_SERVING_MODEL_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/statusor.h"
#include "kvstore/store.h"
#include "ml/model.h"
#include "serving/feature_store.h"
#include "serving/request.h"
#include "txn/types.h"

namespace titant::serving {

/// Reusable buffers behind the zero-allocation score path. Every vector
/// grows to its high-water capacity during warm-up and is then reused
/// verbatim; the pin's arena recycles the fetched value bytes the same
/// way. One scratch serves one caller at a time (not thread-safe) — the
/// typical owners are a thread_local (default, one per gateway reactor) or
/// a bench loop. After warm-up, ModelServer::ScoreSpan with a reused
/// scratch performs zero heap allocations on the all-hits path (proven by
/// tests/zeroalloc_test.cc against the counting allocator).
class ScoreScratch {
 public:
  ScoreScratch() = default;
  ScoreScratch(const ScoreScratch&) = delete;
  ScoreScratch& operator=(const ScoreScratch&) = delete;

  /// The feature rows the last ScoreSpan assembled, row-major.
  const std::vector<float>& feature_rows() const { return features; }

 private:
  friend class ModelServer;
  std::vector<char> keys;  // Row-key bytes the probe views point into.
  std::vector<kvstore::ColumnProbeView> probes;
  kvstore::ReadPin pin;
  std::vector<StatusOr<std::string_view>> fetched;
  std::vector<float> features;
  std::vector<uint8_t> degraded;
  std::vector<Status> item_error;
  std::vector<double> scores;
};

/// Model Server configuration.
struct ModelServerOptions {
  /// Transactions scoring at or above this probability are interrupted
  /// and the transferor is notified.
  double interrupt_threshold = 0.9;
  /// Width of the transferee embedding the model consumes after the 52
  /// basic features (a Basic+DW-style model); 0 serves a basic-only model
  /// and skips the embedding probe.
  int embedding_dim = 32;
};

/// Online real-time predictor (§4.4). Loads versioned model files produced
/// by offline training, fetches the caller's feature snapshot and the
/// transferee's embedding from Ali-HBase, assembles the same feature
/// layout the model was trained on, and scores in microseconds.
///
/// Every row also probes the streaming live-counter cell ("rt"/"win",
/// written by the ingestion worker) and overwrites the same-day velocity
/// slots (cnt_today, log_amt_today and log_secs_since_prev) with
/// sliding-window values fresh to seconds instead of the T+1 cold
/// defaults. Strictly best-effort: a missing cell, a store that never
/// declared the family, or a fetch fault all silently keep the defaults
/// — live counters can improve a verdict but never degrade or fail one.
///
/// Thread-safe: concurrent Score calls share the store's read path; model
/// swaps (LoadModel) are exclusive.
class ModelServer {
 public:
  /// `store` must outlive the server. Any KvTable serves: a plain
  /// AliHBase, or a replication::FailoverStore — whose degraded_reads()
  /// marks every verdict degraded while reads come from the standby.
  ModelServer(kvstore::KvTable* store, ModelServerOptions options);

  /// Installs a model from a serialized blob (the "model file" uploaded by
  /// offline training), tagged with its version (training day).
  Status LoadModel(const std::string& blob, uint64_t version);

  /// Scores one transfer request. Returns FailedPrecondition before the
  /// first LoadModel, NotFound when the store has no snapshot for the
  /// transferor.
  ///
  /// `deadline_us` is an absolute steady-clock stamp (net::MonotonicMicros
  /// domain); <= 0 means no deadline. Infrastructure-class store failures
  /// (Unavailable/Timeout/IOError/ResourceExhausted) and deadline overruns
  /// do NOT fail the call: the server falls back to cold-default features
  /// for whatever it could not fetch and returns a verdict flagged
  /// `degraded` (§4.4: an answer inside the latency budget beats a failed
  /// transaction). Data-level errors (NotFound, corrupt blobs) still fail —
  /// they are authoritative answers, not outages.
  StatusOr<Verdict> Score(const TransferRequest& request, int64_t deadline_us = 0);

  /// Scores a batch of requests with ONE feature-store round trip
  /// (KvTable::MultiGetView over every row's probes) and ONE vectorized model
  /// invocation (ml::Model::ScoreBatch). Score is the batch-of-1 special
  /// case of this path.
  ///
  /// The outer Status covers instance-level failures only (no model
  /// loaded, injected serving.score faults) — the router keys failover
  /// and circuit breaking off it. Everything request-scoped is per item:
  /// an infra-failed or budget-starved fetch degrades *that* row (cold
  /// defaults + degraded flag), a data error (unknown user, corrupt blob)
  /// fails *that* row, and the siblings score clean either way.
  StatusOr<std::vector<StatusOr<Verdict>>> ScoreBatch(
      const std::vector<TransferRequest>& requests, int64_t deadline_us = 0);

  /// The batch engine behind Score and ScoreBatch, exposed for callers
  /// that own their buffers: fills `out[0..n)` with per-item results
  /// unless the whole call fails at instance level. `scratch` holds every
  /// intermediate buffer and is reused across calls (nullptr selects a
  /// per-thread default); with a warm scratch the all-hits steady state
  /// allocates nothing.
  Status ScoreSpan(const TransferRequest* requests, std::size_t n, int64_t deadline_us,
                   StatusOr<Verdict>* out, ScoreScratch* scratch = nullptr);

  /// End-to-end latency distribution (microseconds) across Score calls.
  Histogram LatencySnapshot() const;

  uint64_t model_version() const;

  /// Verdicts produced from cold-default features (store outage or
  /// deadline overrun mid-fetch).
  uint64_t degraded_scores() const { return degraded_scores_.load(); }

 private:
  kvstore::KvTable* store_;
  ModelServerOptions options_;
  std::size_t embedding_dim_;  // options_.embedding_dim, 0 when not positive.
  mutable std::mutex mu_;
  std::unique_ptr<ml::Model> model_;
  uint64_t model_version_ = 0;
  Histogram latency_us_;
  std::atomic<uint64_t> degraded_scores_{0};
};

}  // namespace titant::serving

#endif  // TITANT_SERVING_MODEL_SERVER_H_
