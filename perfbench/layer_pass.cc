#include "layer_pass.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "serving/feature_store.h"
#include "serving/model_server.h"
#include "streaming/aggregator.h"

namespace perfbench {

namespace {

using titant::Status;
using titant::StatusOr;
using titant::serving::TransferRequest;
using titant::serving::Verdict;

constexpr std::size_t kBatch = 16;

/// Calls `call(position)` — which returns the rows it handled — until
/// `seconds` elapse, recording one span per call; returns the rows
/// handled.
template <typename Call>
uint64_t RunFor(double seconds, SpanBuffer* trace, const char* span_name, Call&& call) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t rows = 0;
  int64_t now = NowNs();
  while (now < end) {
    const int64_t call_start = now;
    const std::size_t n = call(rows);
    now = NowNs();
    if (trace != nullptr) trace->Add(span_name, 0, 0, call_start, now);
    rows += n;
  }
  return rows;
}

/// RunFor, reported as microseconds per row.
template <typename Call>
double UsPerRow(double seconds, SpanBuffer* trace, const char* span_name, Call&& call) {
  const int64_t start = NowNs();
  const uint64_t rows = RunFor(seconds, trace, span_name, std::forward<Call>(call));
  return rows == 0 ? 0.0 : static_cast<double>(NowNs() - start) / 1e3 / static_cast<double>(rows);
}

/// Copies `n` requests starting at `position` (cyclic) into `out`.
void Window(const std::vector<TransferRequest>& requests, uint64_t position, std::size_t n,
            std::vector<TransferRequest>* out) {
  out->resize(n);
  for (std::size_t i = 0; i < n; ++i) (*out)[i] = requests[(position + i) % requests.size()];
}

}  // namespace

StatusOr<LayerNumbers> RunLayerPass(const LayerInputs& in, double seconds, Tracer* tracer) {
  LayerNumbers out;
  SpanBuffer* trace = tracer->NewBuffer();
  const std::vector<TransferRequest>& requests = *in.requests;
  std::vector<TransferRequest> batch;
  std::vector<titant::StatusOr<Verdict>> verdicts(kBatch, Status::Internal("unscored"));
  Status failure = Status::OK();

  if (in.router != nullptr) {
    out.router_us_per_row = UsPerRow(seconds, trace, "layer.router.ScoreSpan.b1", [&](uint64_t pos) {
      Window(requests, pos, 1, &batch);
      const Status s = in.router->ScoreSpan(batch.data(), 1, 0, verdicts.data());
      if (!s.ok()) failure = s;
      return std::size_t{1};
    });
  }

  titant::serving::ModelServer server(in.store, titant::serving::ModelServerOptions());
  TITANT_RETURN_IF_ERROR(server.LoadModel(in.blob, in.version));
  titant::serving::ScoreScratch scratch;
  for (const std::size_t n : {std::size_t{1}, kBatch}) {
    const double us = UsPerRow(
        seconds, trace, n == 1 ? "layer.model_server.ScoreSpan.b1" : "layer.model_server.ScoreSpan.b16",
        [&](uint64_t pos) {
          Window(requests, pos, n, &batch);
          const Status s = server.ScoreSpan(batch.data(), n, 0, verdicts.data(), &scratch);
          if (!s.ok()) failure = s;
          return n;
        });
    (n == 1 ? out.score_span_us_per_row_b1 : out.score_span_us_per_row_b16) = us;
  }

  // nproc callers on ONE instance: rows/s against the single caller's.
  {
    std::atomic<uint64_t> rows{0};
    std::vector<std::thread> callers;
    std::vector<SpanBuffer*> buffers;
    for (int t = 0; t < in.threads; ++t) buffers.push_back(tracer->NewBuffer());
    const int64_t start = NowNs();
    for (int t = 0; t < in.threads; ++t) {
      callers.emplace_back([&, t] {
        titant::serving::ScoreScratch own;
        std::vector<TransferRequest> local;
        std::vector<titant::StatusOr<Verdict>> results(kBatch, Status::Internal("unscored"));
        rows.fetch_add(RunFor(seconds, buffers[static_cast<std::size_t>(t)],
                              "layer.model_server.ScoreSpan.b16.concurrent", [&](uint64_t pos) {
                                Window(requests, pos + static_cast<uint64_t>(t) * 97, kBatch,
                                       &local);
                                (void)server.ScoreSpan(local.data(), kBatch, 0, results.data(),
                                                       &own);
                                return kBatch;
                              }));
      });
    }
    for (auto& c : callers) c.join();
    const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    const double single_rows_per_s =
        out.score_span_us_per_row_b16 > 0.0 ? 1e6 / out.score_span_us_per_row_b16 : 0.0;
    out.score_span_scaling =
        single_rows_per_s > 0.0 && elapsed_s > 0.0
            ? static_cast<double>(rows.load()) / elapsed_s / single_rows_per_s
            : 0.0;
  }

  // One row's five probes, as the scorer issues them.
  {
    titant::kvstore::ReadPin pin;
    titant::StatusOr<std::string_view> fetched[5] = {
        std::string_view(), std::string_view(), std::string_view(), std::string_view(),
        std::string_view()};
    char keys[2 * titant::serving::kUserRowKeyLen + titant::serving::kCityRowKeyLen];
    out.multiget_us_per_row =
        UsPerRow(seconds, trace, "layer.kvstore.MultiGetView.row", [&](uint64_t pos) {
          const TransferRequest& r = requests[pos % requests.size()];
          const std::string_view from = titant::serving::UserRowKeyTo(keys, r.from_user);
          const std::string_view city = titant::serving::CityRowKeyTo(
              keys + titant::serving::kUserRowKeyLen, r.trans_city);
          const std::string_view to = titant::serving::UserRowKeyTo(
              keys + titant::serving::kUserRowKeyLen + titant::serving::kCityRowKeyLen, r.to_user);
          const titant::kvstore::ColumnProbeView probes[5] = {
              {from, titant::serving::kFamilyBasic, titant::serving::kQualSnapshot},
              {from, titant::serving::kFamilyBasic, titant::serving::kQualAux},
              {city, titant::serving::kFamilyCity, titant::serving::kQualStats},
              {to, titant::serving::kFamilyEmbedding, titant::serving::kQualVector},
              {from, titant::streaming::kFamilyRealtime, titant::streaming::kQualWindow}};
          pin.Reset();
          in.store->MultiGetView(probes, 5, &pin, fetched);
          return std::size_t{1};
        });
  }

  // The model alone, over the offline test rows.
  {
    const titant::ml::DataMatrix& m = *in.test_matrix;
    std::vector<double> scores(kBatch);
    for (const std::size_t n : {std::size_t{1}, kBatch}) {
      const double us = UsPerRow(
          seconds, trace, n == 1 ? "layer.ml.ScoreBatch.b1" : "layer.ml.ScoreBatch.b16",
          [&](uint64_t pos) {
            const std::size_t first = (pos % m.num_rows());
            const std::size_t rows = std::min(n, m.num_rows() - first);
            in.model->ScoreBatch(m.Row(first), static_cast<int>(rows), scores.data());
            return rows;
          });
      (n == 1 ? out.gbdt_us_per_row_b1 : out.gbdt_us_per_row_b16) = us;
    }
  }
  TITANT_RETURN_IF_ERROR(failure);
  return out;
}

}  // namespace perfbench
