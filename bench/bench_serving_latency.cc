// Micro-benchmarks for the online serving path (§1/§4.5: "predict online
// real-time transaction fraud within only milliseconds"). Measures the
// Model Server end to end — Ali-HBase feature fetch, request featurization
// and GBDT scoring — plus its parts, and the same request over the TCP
// gateway so the socket overhead is measured, not guessed.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "core/experiment.h"
#include "serving/feature_store.h"
#include "serving/gateway.h"
#include "serving/model_server.h"
#include "serving/router.h"

namespace {

using titant::benchutil::CheckOk;

struct ServingFixture {
  titant::datagen::World world;
  std::unique_ptr<titant::kvstore::AliHBase> store;
  std::unique_ptr<titant::serving::ModelServer> server;
  std::vector<titant::serving::TransferRequest> requests;
  std::vector<float> sample_row;  // Pre-assembled feature row.
  std::unique_ptr<titant::ml::Model> model;

  static ServingFixture& Get() {
    static ServingFixture* fixture = [] {
      auto* f = new ServingFixture;
      // A compact world keeps setup time sane; latency per request is
      // scale-free (point lookups + fixed-size model).
      titant::datagen::WorldOptions world_options;
      world_options.num_users = 1500;
      world_options.num_days = 112;
      world_options.first_day = titant::benchutil::FirstTestDay() - 104;
      f->world = CheckOk(titant::datagen::GenerateWorld(world_options));
      auto windows = CheckOk(
          titant::txn::SliceWeek(f->world.log, titant::benchutil::FirstTestDay(), 1));

      titant::core::PipelineOptions pipeline;
      titant::core::OfflineTrainer trainer(f->world.log, windows[0], pipeline);
      CheckOk(trainer.Prepare(titant::core::FeatureSet::kBasicDW));
      auto train = CheckOk(
          trainer.BuildMatrix(windows[0].train_records, titant::core::FeatureSet::kBasicDW));
      f->model = titant::core::MakeModel(titant::core::ModelKind::kGbdt, pipeline);
      CheckOk(f->model->Train(train));
      f->sample_row.assign(train.Row(0), train.Row(0) + train.num_cols());

      // In-memory feature table isolates serving CPU cost from disk.
      auto store_options = titant::serving::FeatureTableOptions();
      store_options.durable = false;
      f->store = CheckOk(titant::kvstore::AliHBase::Open(store_options));
      CheckOk(titant::serving::UploadDailyArtifacts(
          f->store.get(), f->world.log, trainer.extractor(), *trainer.dw_embeddings(),
          windows[0].spec.test_day, 20170410, 50));

      titant::serving::ModelServerOptions ms_options;
      f->server = std::make_unique<titant::serving::ModelServer>(f->store.get(), ms_options);
      CheckOk(f->server->LoadModel(titant::ml::SerializeModel(*f->model), 20170410));

      for (std::size_t idx : windows[0].test_records) {
        f->requests.push_back(titant::serving::RequestOf(f->world.log.records[idx]));
      }
      return f;
    }();
    return *fixture;
  }
};

// End-to-end MS request: feature fetch + assembly + GBDT scoring.
void BM_ModelServerScore(benchmark::State& state) {
  auto& fixture = ServingFixture::Get();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto verdict =
        CheckOk(fixture.server->Score(fixture.requests[i++ % fixture.requests.size()]));
    benchmark::DoNotOptimize(verdict.fraud_probability);
  }
  const auto latency = fixture.server->LatencySnapshot();
  state.counters["p99_us"] = latency.P99();
  state.counters["p50_us"] = latency.P50();
}
BENCHMARK(BM_ModelServerScore)->Unit(benchmark::kMicrosecond);

// The Ali-HBase point read alone.
void BM_FeatureStoreGet(benchmark::State& state) {
  auto& fixture = ServingFixture::Get();
  uint32_t user = 0;
  for (auto _ : state) {
    const auto value = fixture.store->Get(titant::serving::UserRowKey(user++ % 1500),
                                          titant::serving::kFamilyBasic,
                                          titant::serving::kQualSnapshot);
    benchmark::DoNotOptimize(value.ok());
  }
}
BENCHMARK(BM_FeatureStoreGet)->Unit(benchmark::kMicrosecond);

// The 400-tree GBDT evaluation alone.
void BM_GbdtScoreOnly(benchmark::State& state) {
  auto& fixture = ServingFixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.model->Score(fixture.sample_row.data()));
  }
}
BENCHMARK(BM_GbdtScoreOnly)->Unit(benchmark::kMicrosecond);

// The same end-to-end request over the TCP gateway on loopback: what
// BM_ModelServerScore costs once a real socket, framing and an epoll
// reactor sit between caller and model.
void BM_GatewayScoreOverLoopback(benchmark::State& state) {
  auto& fixture = ServingFixture::Get();
  static auto* router = [] {
    auto* r = new titant::serving::ModelServerRouter(
        ServingFixture::Get().store.get(), titant::serving::ModelServerOptions(), 1);
    CheckOk(r->LoadModel(titant::ml::SerializeModel(*ServingFixture::Get().model), 20170410));
    return r;
  }();
  static auto* gateway = [] {
    auto* g = new titant::serving::Gateway(router);
    CheckOk(g->Start());
    return g;
  }();
  titant::serving::GatewayClient client("127.0.0.1", gateway->port());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto verdict =
        CheckOk(client.Score(fixture.requests[i++ % fixture.requests.size()]));
    benchmark::DoNotOptimize(verdict.fraud_probability);
  }
  const auto wire = gateway->WireLatencySnapshot();
  state.counters["srv_p50_us"] = wire.P50();
  state.counters["srv_p99_us"] = wire.P99();
}
BENCHMARK(BM_GatewayScoreOverLoopback)->Unit(benchmark::kMicrosecond);

// The batched MS path at various batch sizes: per-ROW time, so the curve
// shows how much of the single-request cost the batch amortizes (one
// MultiGetView round trip + one vectorized model call).
void BM_ModelServerScoreBatch(benchmark::State& state) {
  auto& fixture = ServingFixture::Get();
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    std::vector<titant::serving::TransferRequest> rows;
    rows.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      rows.push_back(fixture.requests[i++ % fixture.requests.size()]);
    }
    const auto items = CheckOk(fixture.server->ScoreBatch(rows));
    benchmark::DoNotOptimize(items.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_ModelServerScoreBatch)->Arg(1)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

// Same batch with an already-expired deadline: the fetch + decode stage is
// skipped (every row degrades), leaving assembly + model + bookkeeping.
// The delta against BM_ModelServerScoreBatch is the store-side cost.
void BM_ModelServerScoreBatchDegraded(benchmark::State& state) {
  auto& fixture = ServingFixture::Get();
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    std::vector<titant::serving::TransferRequest> rows;
    rows.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      rows.push_back(fixture.requests[i++ % fixture.requests.size()]);
    }
    const auto items = CheckOk(fixture.server->ScoreBatch(rows, /*deadline_us=*/1));
    benchmark::DoNotOptimize(items.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_ModelServerScoreBatchDegraded)->Arg(8)->Unit(benchmark::kMicrosecond);

// The vectorized model invocation alone (contiguous rows, no store).
void BM_GbdtScoreBatchOnly(benchmark::State& state) {
  auto& fixture = ServingFixture::Get();
  const int batch = static_cast<int>(state.range(0));
  std::vector<float> rows;
  for (int b = 0; b < batch; ++b) {
    rows.insert(rows.end(), fixture.sample_row.begin(), fixture.sample_row.end());
  }
  std::vector<double> out(static_cast<std::size_t>(batch));
  for (auto _ : state) {
    fixture.model->ScoreBatch(rows.data(), batch, out.data());
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_GbdtScoreBatchOnly)->Arg(1)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

// Sorted multi-probe KV read through MultiGetView with a reused pin, as
// ScoreSpan issues it: per-probe cost against the point-Get bar.
void BM_FeatureStoreMultiGet(benchmark::State& state) {
  using titant::serving::kUserRowKeyLen;
  auto& fixture = ServingFixture::Get();
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<char> keys(batch * kUserRowKeyLen);
  std::vector<titant::kvstore::ColumnProbeView> probes(batch);
  std::vector<titant::StatusOr<std::string_view>> values(
      batch, titant::StatusOr<std::string_view>(std::string_view()));
  titant::kvstore::ReadPin pin;
  uint32_t user = 0;
  for (auto _ : state) {
    for (std::size_t b = 0; b < batch; ++b) {
      probes[b] = {titant::serving::UserRowKeyTo(&keys[b * kUserRowKeyLen], user++ % 1500),
                   titant::serving::kFamilyBasic, titant::serving::kQualSnapshot};
    }
    pin.Reset();
    fixture.store->MultiGetView(probes.data(), batch, &pin, values.data());
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_FeatureStoreMultiGet)->Arg(4)->Arg(32)->Unit(benchmark::kMicrosecond);

// The exact probe mix ScoreSpan issues for a batch of 8: snapshot + aux +
// city stats + transferee embedding per row.
void BM_FeatureStoreMultiGetServingMix(benchmark::State& state) {
  using titant::serving::kCityRowKeyLen;
  using titant::serving::kUserRowKeyLen;
  auto& fixture = ServingFixture::Get();
  char keys[8][2 * kUserRowKeyLen + kCityRowKeyLen];
  titant::kvstore::ColumnProbeView probes[32];
  std::vector<titant::StatusOr<std::string_view>> values(
      32, titant::StatusOr<std::string_view>(std::string_view()));
  titant::kvstore::ReadPin pin;
  std::size_t i = 0;
  for (auto _ : state) {
    for (std::size_t b = 0; b < 8; ++b) {
      const auto& req = fixture.requests[i++ % fixture.requests.size()];
      const std::string_view from = titant::serving::UserRowKeyTo(keys[b], req.from_user);
      const std::string_view city =
          titant::serving::CityRowKeyTo(keys[b] + kUserRowKeyLen, req.trans_city);
      const std::string_view to = titant::serving::UserRowKeyTo(
          keys[b] + kUserRowKeyLen + kCityRowKeyLen, req.to_user);
      probes[4 * b] = {from, titant::serving::kFamilyBasic, titant::serving::kQualSnapshot};
      probes[4 * b + 1] = {from, titant::serving::kFamilyBasic, titant::serving::kQualAux};
      probes[4 * b + 2] = {city, titant::serving::kFamilyCity, titant::serving::kQualStats};
      probes[4 * b + 3] = {to, titant::serving::kFamilyEmbedding, titant::serving::kQualVector};
    }
    pin.Reset();
    fixture.store->MultiGetView(probes, 32, &pin, values.data());
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_FeatureStoreMultiGetServingMix)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
