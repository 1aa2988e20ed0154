#include "serving/model_server.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "net/wire.h"
#include "streaming/aggregator.h"

namespace titant::serving {

namespace {

using core::SlotOf;

/// Infrastructure-class failure: the store could not answer, as opposed to
/// answering "no such row". Only these degrade; data errors propagate.
bool InfraFailure(const Status& status) {
  return status.IsRetryable() || status.code() == StatusCode::kIOError;
}

}  // namespace

ModelServer::ModelServer(kvstore::KvTable* store, ModelServerOptions options)
    : store_(store),
      options_(options),
      embedding_dim_(static_cast<std::size_t>(std::max(0, options.embedding_dim))) {}

Status ModelServer::LoadModel(const std::string& blob, uint64_t version) {
  // Chaos hook: one instance of a fleet rollout fails (disk full, torn
  // upload) — the router must hold the stale instance out of rotation.
  TITANT_FAILPOINT("serving.load_model");
  TITANT_ASSIGN_OR_RETURN(std::unique_ptr<ml::Model> model, ml::DeserializeModel(blob));
  const int expected =
      core::FeatureExtractor::kNumBasicFeatures + static_cast<int>(embedding_dim_);
  if (model->num_features() != expected) {
    return Status::InvalidArgument(
        "model width " + std::to_string(model->num_features()) + " does not match serving layout " +
        std::to_string(expected));
  }
  std::lock_guard<std::mutex> lock(mu_);
  model_ = std::move(model);
  model_version_ = version;
  return Status::OK();
}

StatusOr<Verdict> ModelServer::Score(const TransferRequest& request, int64_t deadline_us) {
  // The single-request path is the batch-of-1 special case of ScoreSpan.
  StatusOr<Verdict> verdict = Status::Internal("unscored");
  TITANT_RETURN_IF_ERROR(ScoreSpan(&request, 1, deadline_us, &verdict));
  return verdict;
}

StatusOr<std::vector<StatusOr<Verdict>>> ModelServer::ScoreBatch(
    const std::vector<TransferRequest>& requests, int64_t deadline_us) {
  std::vector<StatusOr<Verdict>> out(requests.size(),
                                     StatusOr<Verdict>(Status::Internal("unscored")));
  TITANT_RETURN_IF_ERROR(ScoreSpan(requests.data(), requests.size(), deadline_us, out.data()));
  return out;
}

Status ModelServer::ScoreSpan(const TransferRequest* requests, std::size_t n,
                              int64_t deadline_us, StatusOr<Verdict>* out,
                              ScoreScratch* scratch) {
  Stopwatch timer;
  TITANT_FAILPOINT("serving.score");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (model_ == nullptr) return Status::FailedPrecondition("no model loaded");
  }
  if (n == 0) return Status::OK();
  if (scratch == nullptr) {
    // Callers without their own buffers share a per-thread scratch: the
    // gateway's reactor threads each warm one up and then run
    // allocation-free.
    thread_local ScoreScratch tls_scratch;
    scratch = &tls_scratch;
  }
  ScoreScratch& s = *scratch;

  constexpr int kBasic = core::FeatureExtractor::kNumBasicFeatures;
  const std::size_t width = kBasic + embedding_dim_;
  // One contiguous row-major block: zero-filled so degraded rows fall back
  // to the cold defaults, and laid out exactly as ml::Model::ScoreBatch
  // consumes it. assign() over warm capacity does not allocate.
  s.features.assign(n * width, 0.0f);

  // The whole batch shares one fetch round trip, so the budget is checked
  // once up front: an already-overrun batch skips the store entirely and
  // every row degrades (an answer inside the latency budget beats a failed
  // transaction — same rule as the single path, amortized).
  const bool out_of_budget = deadline_us > 0 && net::MonotonicMicros() > deadline_us;

  // One MultiGetView round trip for every row's probes: transferor
  // snapshot, transferor aux, city stats, transferee embedding (unless
  // the model is basic-only) and transferor live counters. Inside that
  // one call the store groups the probes by shard and takes each shard's
  // read lock once, so concurrent ScoreSpans on other threads only
  // contend where their rows actually collide.
  // The probe keys are formatted into the scratch key block (sized up
  // front — the probe views point into it, so it must never reallocate
  // underneath them), and the fetched values live in the scratch pin's
  // arena until the next ScoreSpan call resets it.
  const bool use_embeddings = embedding_dim_ > 0;
  const std::size_t per_row = use_embeddings ? 5 : 4;
  const std::size_t rt_off = per_row - 1;  // Live counters come last.
  constexpr std::size_t kKeysPerRow = 2 * kUserRowKeyLen + kCityRowKeyLen;
  if (!out_of_budget) {
    s.keys.resize(n * kKeysPerRow);
    s.probes.clear();
    s.probes.reserve(n * per_row);
    for (std::size_t i = 0; i < n; ++i) {
      const TransferRequest& request = requests[i];
      char* key_base = s.keys.data() + i * kKeysPerRow;
      const std::string_view from = UserRowKeyTo(key_base, request.from_user);
      const std::string_view city = CityRowKeyTo(key_base + kUserRowKeyLen, request.trans_city);
      s.probes.push_back({from, kFamilyBasic, kQualSnapshot});
      s.probes.push_back({from, kFamilyBasic, kQualAux});
      s.probes.push_back({city, kFamilyCity, kQualStats});
      if (use_embeddings) {
        const std::string_view to =
            UserRowKeyTo(key_base + kUserRowKeyLen + kCityRowKeyLen, request.to_user);
        s.probes.push_back({to, kFamilyEmbedding, kQualVector});
      }
      // Streaming live counters for the transferor (same row key as the
      // snapshot probes, so no extra key formatting).
      s.probes.push_back({from, streaming::kFamilyRealtime, streaming::kQualWindow});
    }
    s.pin.Reset();
    s.fetched.assign(n * per_row, StatusOr<std::string_view>(std::string_view()));
    store_->MultiGetView(s.probes.data(), s.probes.size(), &s.pin, s.fetched.data());
  }

  // Per-row feature assembly; failures stay per row.
  s.degraded.assign(n, out_of_budget ? 1 : 0);
  s.item_error.assign(n, Status::OK());
  std::vector<float>& features = s.features;
  std::vector<StatusOr<std::string_view>>& fetched = s.fetched;
  std::vector<uint8_t>& degraded = s.degraded;
  std::vector<Status>& item_error = s.item_error;
  for (std::size_t i = 0; i < n; ++i) {
    const TransferRequest& request = requests[i];
    float* f = features.data() + i * width;
    float aux[2] = {14.0f, 0.0f};

    // 1. Transferor snapshot + aux from the feature store.
    if (!out_of_budget) {
      const StatusOr<std::string_view>& snapshot_blob = fetched[i * per_row];
      if (snapshot_blob.ok()) {
        const Status decoded =
            DecodeFloats(*snapshot_blob, static_cast<std::size_t>(kBasic), f);
        if (!decoded.ok()) {
          item_error[i] = decoded;
          continue;
        }
      } else if (InfraFailure(snapshot_blob.status())) {
        degraded[i] = 1;  // History slots stay at cold zero defaults.
      } else {
        item_error[i] = snapshot_blob.status();
        continue;
      }
      if (!degraded[i]) {
        if (const StatusOr<std::string_view>& aux_blob = fetched[i * per_row + 1];
            aux_blob.ok()) {
          const Status decoded = DecodeFloats(*aux_blob, 2, aux);
          if (!decoded.ok()) {
            item_error[i] = decoded;
            continue;
          }
        }
      }
    }

    // 2. The request and ratio slots, by the writers offline Extract uses
    // (the ratio against the snapshot's float32 aux means). The rest are
    // serving's own values (DESIGN.md §17): the payee relationship is not
    // materialized online, so it keeps the cold defaults; the same-day
    // count, amount and recency start from defaults that the live-counter
    // step below overwrites whenever a counter is published for the user.
    core::WriteRequestSlots(request, f);
    core::WriteRatioSlots(request, aux[0], aux[1], f);
    f[SlotOf("payee_txn_cnt_30d")] = 0.0f;
    f[SlotOf("is_new_payee")] = 1.0f;
    f[SlotOf("cnt_today")] = 0.0f;
    f[SlotOf("log_amt_today")] = 0.0f;
    f[SlotOf("log_secs_since_prev")] = std::log1p(f[SlotOf("days_since_last_out")] * 86400.0f +
                                                  static_cast<float>(request.second_of_day));
    // City statistics from the store.
    if (!out_of_budget && !degraded[i]) {
      if (const StatusOr<std::string_view>& city_blob = fetched[i * per_row + 2];
          city_blob.ok()) {
        const Status decoded = DecodeFloats(*city_blob, 3, f + SlotOf("city_fraud_rate_hist"));
        if (!decoded.ok()) {
          item_error[i] = decoded;
          continue;
        }
      }
    }

    // 3. Transferee's user node embedding (zero vector when degraded).
    if (use_embeddings && !out_of_budget && !degraded[i]) {
      const StatusOr<std::string_view>& emb_blob = fetched[i * per_row + 3];
      if (emb_blob.ok()) {
        const Status decoded = DecodeFloats(*emb_blob, embedding_dim_, f + kBasic);
        if (!decoded.ok()) {
          item_error[i] = decoded;
          continue;
        }
      } else if (InfraFailure(emb_blob.status())) {
        degraded[i] = 1;
      } else {
        item_error[i] = emb_blob.status();
      }
    }

    // 4. Streaming live counters ("rt"/"win", published by the ingest
    // worker within seconds of each scored transfer) overwrite the
    // same-day velocity slots that the T+1 store can't materialize.
    // Deliberately fault-blind in every direction — a miss (user not yet
    // seen by the aggregator, or no ingestor running), an undeclared
    // family, an outage, or a short blob all just keep the cold
    // defaults. Live counters sharpen a verdict; they never degrade or
    // fail one, and stores predating the "rt" family keep serving.
    if (!out_of_budget && !degraded[i] && item_error[i].ok()) {
      const StatusOr<std::string_view>& rt_blob = fetched[i * per_row + rt_off];
      float counters[streaming::kCounterFloats];
      if (rt_blob.ok() &&
          DecodeFloats(*rt_blob, streaming::kCounterFloats, counters).ok()) {
        f[SlotOf("cnt_today")] = counters[streaming::kCounter24hCount];
        f[SlotOf("log_amt_today")] = std::log1p(counters[streaming::kCounter24hAmount]);
        if (const int64_t last_s = streaming::LastEventSeconds(counters); last_s >= 0) {
          const int64_t since = streaming::EventSeconds(request) - last_s;
          f[SlotOf("log_secs_since_prev")] =
              std::log1p(static_cast<float>(std::max<int64_t>(0, since)));
        }
      }
    }
  }

  // 4. Score the whole block in one model invocation and decide per row.
  // Rows that already failed with a data error still occupy their (zeroed)
  // slot — scoring them is harmless and cheaper than compacting the block.
  std::vector<double>& scores = s.scores;
  scores.assign(n, 0.0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    model_->ScoreBatch(features.data(), static_cast<int>(n), scores.data());
    const int64_t elapsed = timer.ElapsedMicros();
    // A store serving possibly-stale reads (a failover tier on its warm
    // standby) degrades every verdict it fed: the features are real but
    // may trail the dead primary by the shipping lag, and the caller
    // deserves to know (§4.4 fail-open — a stale answer inside the
    // budget beats a refused transaction). Checked after the fetch so
    // the flag covers the store that actually answered.
    const bool stale_store = !out_of_budget && store_->degraded_reads();
    for (std::size_t i = 0; i < n; ++i) {
      if (!item_error[i].ok()) {
        out[i] = item_error[i];
        continue;
      }
      Verdict verdict;
      verdict.degraded = degraded[i] != 0 || stale_store;
      verdict.fraud_probability = scores[i];
      verdict.model_version = model_version_;
      verdict.interrupt = verdict.fraud_probability >= options_.interrupt_threshold;
      verdict.latency_us = elapsed;
      latency_us_.Add(static_cast<double>(verdict.latency_us));
      out[i] = verdict;
      if (verdict.degraded) degraded_scores_.fetch_add(1);
    }
  }
  return Status::OK();
}

Histogram ModelServer::LatencySnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latency_us_;
}

uint64_t ModelServer::model_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_version_;
}

}  // namespace titant::serving
