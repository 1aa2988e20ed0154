// Tests for the online serving path: feature-store codec/upload and the
// Model Server request flow.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "common/failpoint.h"
#include "core/experiment.h"
#include "datagen/world.h"
#include "ml/metrics.h"
#include "serving/feature_store.h"
#include "serving/model_server.h"
#include "serving/router.h"
#include "streaming/aggregator.h"
#include "txn/window.h"

namespace titant::serving {
namespace {

TEST(FeatureStoreTest, RowKeysPreserveNumericOrder) {
  EXPECT_LT(UserRowKey(5), UserRowKey(40));
  EXPECT_LT(UserRowKey(999), UserRowKey(1000));
  EXPECT_LT(CityRowKey(9), CityRowKey(10));
}

TEST(FeatureStoreTest, FloatCodecRoundTrip) {
  const float values[4] = {1.5f, -2.25f, 0.0f, 1e9f};
  const std::string blob = EncodeFloats(values, 4);
  float out[4] = {};
  ASSERT_TRUE(DecodeFloats(blob, 4, out).ok());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], values[i]);
  EXPECT_FALSE(DecodeFloats(blob, 3, out).ok());
  EXPECT_FALSE(DecodeFloats("xy", 4, out).ok());
}

// ModelServer::ScoreSpan's per-row slot assembly as it stood before the
// slot table, kept verbatim as the bit-exact reference for served rows.
// `fetched` holds one row's probe results in ScoreSpan's order (snapshot,
// aux, city, embedding, live counters); the locals above the loop stand in
// for ScoreSpan's batch state under the default options.
void ReferenceRow(const TransferRequest& request, const StatusOr<std::string_view>* fetched,
                  bool out_of_budget, float* f) {
  constexpr double kTwoPi = 6.283185307179586;
  constexpr int kBasic = 52;
  // ModelServerOptions' fields at the time, at their defaults.
  const struct {
    int embedding_dim = 32;
    bool use_embeddings = true;
    bool use_live_counters = true;
  } options_;
  const auto InfraFailure = [](const Status& status) {
    return status.IsRetryable() || status.code() == StatusCode::kIOError;
  };
  const std::size_t per_row = 5;
  std::vector<uint8_t> degraded(1, out_of_budget ? 1 : 0);
  std::vector<Status> item_error(1, Status::OK());
  std::fill(f, f + kBasic + options_.embedding_dim, 0.0f);
  for (std::size_t i = 0; i < 1; ++i) {
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

    // 2. Request-derived (context) slots — same layout as offline Extract.
    const double hour = request.second_of_day / 3600.0;
    f[8] = static_cast<float>(request.amount);
    f[9] = std::log1p(static_cast<float>(request.amount));
    f[10] = (request.amount >= 100.0 && std::fmod(request.amount, 100.0) == 0.0) ? 1.0f : 0.0f;
    f[11] = request.amount >= 500.0 ? 1.0f : 0.0f;
    f[12] = request.amount >= 2000.0 ? 1.0f : 0.0f;
    f[13] = static_cast<float>(hour);
    f[14] = static_cast<float>(std::sin(kTwoPi * hour / 24.0));
    f[15] = static_cast<float>(std::cos(kTwoPi * hour / 24.0));
    f[16] = hour < 6.0 ? 1.0f : 0.0f;
    f[17] = (hour >= 19.0 && hour < 23.0) ? 1.0f : 0.0f;
    const int dow = ((request.day % 7) + 7) % 7;
    f[18] = static_cast<float>(dow);
    f[19] = dow >= 5 ? 1.0f : 0.0f;
    f[20] = request.channel == txn::Channel::kApp ? 1.0f : 0.0f;
    f[21] = request.channel == txn::Channel::kWeb ? 1.0f : 0.0f;
    f[22] = request.channel == txn::Channel::kQrCode ? 1.0f : 0.0f;
    f[23] = request.channel == txn::Channel::kApi ? 1.0f : 0.0f;
    f[24] = request.trans_city;
    f[25] = request.trans_city != static_cast<uint16_t>(f[3]) ? 1.0f : 0.0f;
    f[26] = request.is_new_device ? 1.0f : 0.0f;
    // The payee relationship (34/35) is not materialized anywhere online:
    // serving always uses these cold defaults, unlike offline Extract. The
    // same-day count and amount (43/44) and the recency in 45 start from
    // defaults here; the live-counter step below overwrites them, so the
    // defaults stay only when no counter is published for the user (no
    // ingestor, a user the aggregator has not seen, live counters off, or
    // a degraded row).
    f[34] = 0.0f;
    f[35] = 1.0f;
    f[43] = 0.0f;
    f[44] = 0.0f;
    f[45] = std::log1p(f[42] * 86400.0f + static_cast<float>(request.second_of_day));
    f[46] = static_cast<float>(request.amount / (1.0 + aux[1]));
    f[47] = static_cast<float>(std::fabs(hour - aux[0]));
    // City statistics from the store.
    if (!out_of_budget && !degraded[i]) {
      if (const StatusOr<std::string_view>& city_blob = fetched[i * per_row + 2];
          city_blob.ok()) {
        const Status decoded = DecodeFloats(*city_blob, 3, &f[48]);
        if (!decoded.ok()) {
          item_error[i] = decoded;
          continue;
        }
      }
    }

    // 3. Transferee's user node embedding (zero vector when degraded).
    if (options_.use_embeddings && !out_of_budget && !degraded[i]) {
      const StatusOr<std::string_view>& emb_blob = fetched[i * per_row + 3];
      if (emb_blob.ok()) {
        const Status decoded = DecodeFloats(
            *emb_blob, static_cast<std::size_t>(options_.embedding_dim), f + kBasic);
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
    if (options_.use_live_counters && !out_of_budget && !degraded[i] && item_error[i].ok()) {
      const std::size_t rt_off = options_.use_embeddings ? 4 : 3;
      const StatusOr<std::string_view>& rt_blob = fetched[i * per_row + rt_off];
      float counters[streaming::kCounterFloats];
      if (rt_blob.ok() &&
          DecodeFloats(*rt_blob, streaming::kCounterFloats, counters).ok()) {
        f[43] = counters[6];                // 24h sliding txn count.
        f[44] = std::log1p(counters[7]);    // 24h sliding amount sum.
        if (counters[9] >= 0.0f) {          // Last event day/second stamps.
          const int64_t last_s = static_cast<int64_t>(counters[9]) * 86400 +
                                 static_cast<int64_t>(counters[10]);
          const int64_t now_s =
              static_cast<int64_t>(request.day) * 86400 + request.second_of_day;
          f[45] = std::log1p(static_cast<float>(std::max<int64_t>(0, now_s - last_s)));
        }
      }
    }
  }
}

// Shared end-to-end fixture: a tiny world, a trained Basic+DW GBDT, a
// populated feature store, and a Model Server.
class ModelServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions world_options;
    world_options.num_users = 1600;
    world_options.num_days = 126;
    world_options.first_day = -104;
    world_options.seed = 99;
    world_ = new datagen::World(std::move(datagen::GenerateWorld(world_options)).value());
    // Pick a test day that actually carries fraud (tiny worlds have quiet
    // days); the log covers days [-104, 21].
    txn::DatasetWindow chosen;
    bool found = false;
    for (txn::Day candidate = 0; candidate <= 21 && !found; ++candidate) {
      auto windows = txn::SliceWeek(world_->log, candidate, 1);
      if (!windows.ok()) continue;
      int fraud = 0;
      for (std::size_t idx : (*windows)[0].test_records) {
        fraud += world_->log.records[idx].is_fraud;
      }
      if (fraud >= 5) {
        chosen = (*windows)[0];
        found = true;
      }
    }
    ASSERT_TRUE(found) << "no test day with enough fraud in the fixture world";
    window_ = new txn::DatasetWindow(chosen);

    core::PipelineOptions pipeline;
    pipeline.walks_per_node = 20;  // Keep the fixture fast.
    trainer_ = new core::OfflineTrainer(world_->log, *window_, pipeline);
    ASSERT_TRUE(trainer_->Prepare(core::FeatureSet::kBasicDW).ok());
    auto train = trainer_->BuildMatrix(window_->train_records, core::FeatureSet::kBasicDW);
    ASSERT_TRUE(train.ok());
    model_ = core::MakeModel(core::ModelKind::kGbdt, pipeline).release();
    ASSERT_TRUE(model_->Train(*train).ok());

    auto options = FeatureTableOptions();
    options.durable = false;
    store_ = AliHBaseOrDie(std::move(options));
    ASSERT_TRUE(UploadDailyArtifacts(store_, world_->log, trainer_->extractor(),
                                     *trainer_->dw_embeddings(), window_->spec.test_day,
                                     20170410, 50)
                    .ok());
    server_ = new ModelServer(store_, ModelServerOptions());
    ASSERT_TRUE(server_->LoadModel(ml::SerializeModel(*model_), 20170410).ok());
  }

  static kvstore::AliHBase* AliHBaseOrDie(kvstore::StoreOptions options) {
    auto store = kvstore::AliHBase::Open(std::move(options));
    EXPECT_TRUE(store.ok());
    return store->release();
  }

  /// A fresh in-memory store holding only the test day's upload (a test
  /// below adds the next day's upload to the shared store_).
  static std::unique_ptr<kvstore::AliHBase> TestDayStore() {
    auto options = FeatureTableOptions();
    options.durable = false;
    std::unique_ptr<kvstore::AliHBase> store(AliHBaseOrDie(std::move(options)));
    EXPECT_TRUE(UploadDailyArtifacts(store.get(), world_->log, trainer_->extractor(),
                                     *trainer_->dw_embeddings(), window_->spec.test_day,
                                     20170410, 50)
                    .ok());
    return store;
  }

  /// Whether the transferor of record `idx` has no earlier transfer that
  /// day, in or out. Only then does the T+1 snapshot hold the same history
  /// as Extract.
  static bool IsClean(std::size_t idx) {
    const auto& records = world_->log.records;
    const txn::UserId user = records[idx].from_user;
    for (std::size_t j = idx; j-- > 0 && records[j].day == records[idx].day;) {
      if (records[j].from_user == user || records[j].to_user == user) return false;
    }
    return true;
  }

  static datagen::World* world_;
  static txn::DatasetWindow* window_;
  static core::OfflineTrainer* trainer_;
  static ml::Model* model_;
  static kvstore::AliHBase* store_;
  static ModelServer* server_;
};

datagen::World* ModelServerTest::world_ = nullptr;
txn::DatasetWindow* ModelServerTest::window_ = nullptr;
core::OfflineTrainer* ModelServerTest::trainer_ = nullptr;
ml::Model* ModelServerTest::model_ = nullptr;
kvstore::AliHBase* ModelServerTest::store_ = nullptr;
ModelServer* ModelServerTest::server_ = nullptr;

TEST_F(ModelServerTest, ScoresEveryTestTransaction) {
  for (std::size_t idx : window_->test_records) {
    const auto verdict = server_->Score(RequestOf(world_->log.records[idx]));
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_GE(verdict->fraud_probability, 0.0);
    EXPECT_LE(verdict->fraud_probability, 1.0);
    EXPECT_EQ(verdict->model_version, 20170410u);
    EXPECT_GE(verdict->latency_us, 0);
  }
  const auto latency = server_->LatencySnapshot();
  EXPECT_EQ(latency.count(), window_->test_records.size());
  // "Within milliseconds": generous bound of 50ms even for debug builds.
  EXPECT_LT(latency.P99(), 50'000.0);
}

TEST_F(ModelServerTest, ServedScoresDiscriminate) {
  // The serving path uses T+1 snapshots with cold payee defaults, so its
  // scores differ from offline evaluation — but must still rank fraud
  // meaningfully above benign traffic.
  std::vector<double> scores;
  std::vector<uint8_t> labels;
  for (std::size_t idx : window_->test_records) {
    const auto& rec = world_->log.records[idx];
    const auto verdict = server_->Score(RequestOf(rec));
    ASSERT_TRUE(verdict.ok());
    scores.push_back(verdict->fraud_probability);
    labels.push_back(rec.is_fraud ? 1 : 0);
  }
  const auto auc = ml::RocAuc(scores, labels);
  ASSERT_TRUE(auc.ok());
  EXPECT_GT(*auc, 0.70) << "served AUC collapsed";
}

TEST_F(ModelServerTest, HighScoresInterruptTheTransaction) {
  // Craft a request that mimics a fraud pattern toward a known fraudster.
  txn::UserId fraudster = world_->truth.fraudsters.front();
  TransferRequest req;
  req.from_user = 1;
  req.to_user = fraudster;
  req.amount = 2000.0;
  req.day = window_->spec.test_day;
  req.second_of_day = 3 * 3600;
  req.channel = txn::Channel::kQrCode;
  req.trans_city = 49;
  req.is_new_device = true;
  const auto verdict = server_->Score(req);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->interrupt, verdict->fraud_probability >= 0.9);
}

TEST_F(ModelServerTest, UnknownUserIsNotFound) {
  TransferRequest req;
  req.from_user = 5'000'000;  // Not uploaded.
  req.to_user = 1;
  req.day = window_->spec.test_day;
  EXPECT_TRUE(server_->Score(req).status().IsNotFound());
}



TEST_F(ModelServerTest, DailyUploadsAreVersionedInTheStore) {
  // A second daily upload under a newer version must not disturb reads
  // pinned to the older version (HBase version semantics, Fig. 7).
  const uint64_t old_version = 20170410;
  const uint64_t new_version = 20170411;
  ASSERT_TRUE(UploadDailyArtifacts(store_, world_->log, trainer_->extractor(),
                                   *trainer_->dw_embeddings(),
                                   window_->spec.test_day + 1, new_version, 50)
                  .ok());
  const std::string row = UserRowKey(1);
  const auto pinned = store_->Get(row, kFamilyBasic, kQualSnapshot, old_version);
  const auto latest = store_->Get(row, kFamilyBasic, kQualSnapshot);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(latest.ok());
  // Snapshots differ because the as-of day moved (history advanced).
  EXPECT_EQ(pinned->size(), latest->size());
}

TEST_F(ModelServerTest, RouterBalancesAndFailsOver) {
  ModelServerRouter router(store_, ModelServerOptions(), 3);
  ASSERT_TRUE(router.LoadModel(ml::SerializeModel(*model_), 20170411).ok());

  // Round-robin spreads load evenly.
  const auto& sample = world_->log.records[window_->test_records.front()];
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(router.Score(RequestOf(sample)).ok());
  }
  for (int i = 0; i < 3; ++i) EXPECT_EQ(router.requests_served(i), 10u);

  // Take an instance down: traffic reroutes, nothing fails.
  ASSERT_TRUE(router.SetInstanceHealthy(1, false).ok());
  EXPECT_FALSE(router.instance_healthy(1));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(router.Score(RequestOf(sample)).ok());
  }
  EXPECT_EQ(router.requests_served(1), 10u);  // Unchanged while down.

  // All down -> Unavailable.
  ASSERT_TRUE(router.SetInstanceHealthy(0, false).ok());
  ASSERT_TRUE(router.SetInstanceHealthy(2, false).ok());
  EXPECT_EQ(router.Score(RequestOf(sample)).status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(router.SetInstanceHealthy(0, true).ok());
  ASSERT_TRUE(router.Score(RequestOf(sample)).ok());

  // Aggregated latency counts every served request.
  EXPECT_EQ(router.AggregateLatency().count(), 51u);
  EXPECT_EQ(router.SetInstanceHealthy(9, true).code(), StatusCode::kOutOfRange);
}


TEST_F(ModelServerTest, RouterSurvivesConcurrentTrafficAndHealthFlaps) {
  ModelServerRouter router(store_, ModelServerOptions(), 4);
  ASSERT_TRUE(router.LoadModel(ml::SerializeModel(*model_), 42).ok());
  const auto& sample = world_->log.records[window_->test_records.front()];

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        const auto verdict = router.Score(RequestOf(sample));
        if (verdict.ok()) {
          served.fetch_add(1);
        } else if (verdict.status().code() != StatusCode::kUnavailable) {
          errors.fetch_add(1);  // Only all-down may fail, and only as Unavailable.
        }
      }
    });
  }
  // Flap instance health while traffic flows (never all down). Each round
  // first waits for the clients to serve a few more requests, so every flap
  // lands mid-traffic however the threads are scheduled.
  constexpr int kRounds = 50;
  constexpr int kServedPerRound = 3;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool flaps_ok = true;
  for (int round = 0; round < kRounds && flaps_ok; ++round) {
    while (served.load() < (round + 1) * kServedPerRound &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    flaps_ok = router.SetInstanceHealthy(round % 4, false).ok();
    std::this_thread::yield();
    flaps_ok = router.SetInstanceHealthy(round % 4, true).ok() && flaps_ok;
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_TRUE(flaps_ok);
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GE(served.load(), kRounds * kServedPerRound);
  EXPECT_EQ(router.AggregateLatency().count(), static_cast<uint64_t>(served.load()));
}

// Satellite of the flap test above, aimed at the breaker's atomics: N
// threads hammer Score while injected instance failures trip and
// (via probes) re-close breakers, and ops concurrently flips health.
// TSan (the build-tsan lane) checks the interleavings; the assertions
// check the serving invariants hold through them.
TEST_F(ModelServerTest, ConcurrentTrafficSurvivesBreakerTripsAndRecoveries) {
  ModelServerRouter router(store_, ModelServerOptions(), 3);
  ASSERT_TRUE(router.LoadModel(ml::SerializeModel(*model_), 42).ok());
  const auto& sample = world_->log.records[window_->test_records.front()];

  // Half the scores fail as an instance-level outage, often enough that
  // streaks of 5 form: breakers trip, probes recover them — all under
  // concurrent load.
  Failpoints::ArmFromSpec("serving.score,error:Unavailable,p:0.5,seed:7");

  std::atomic<int> hard_errors{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        const auto verdict = router.Score(RequestOf(sample));
        if (verdict.ok()) {
          served.fetch_add(1);
        } else if (verdict.status().code() != StatusCode::kUnavailable) {
          hard_errors.fetch_add(1);  // Injection may surface only as Unavailable.
        }
      }
    });
  }
  // Ops flips health under the same load the breaker is reacting to.
  for (int round = 0; round < 60; ++round) {
    ASSERT_TRUE(router.SetInstanceHealthy(round % 3, false).ok());
    std::this_thread::yield();
    ASSERT_TRUE(router.SetInstanceHealthy(round % 3, true).ok());
  }
  for (auto& t : clients) t.join();
  Failpoints::DisarmAll();

  EXPECT_EQ(hard_errors.load(), 0);
  EXPECT_GT(served.load(), 400);
  EXPECT_GT(router.breaker_trips(), 0u);

  // With injections off, probes re-close any breaker left open.
  for (int i = 0; i < 500 && router.open_instances() > 0; ++i) {
    (void)router.Score(RequestOf(sample));
  }
  EXPECT_EQ(router.open_instances(), 0);
  EXPECT_TRUE(router.Score(RequestOf(sample)).ok());
}

TEST_F(ModelServerTest, BreakerTripsOnFailureStreakAndRecoversViaProbes) {
  Failpoints::DisarmAll();
  ModelServerRouter router(store_, ModelServerOptions(), 2);
  ASSERT_TRUE(router.LoadModel(ml::SerializeModel(*model_), 1).ok());
  const auto& sample = world_->log.records[window_->test_records.front()];

  // Inject a bounded outage: the first 14 instance-level Scores fail —
  // 5 per instance to trip its breaker, then its first 2 probes.
  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.max_hits = 14;
  Failpoints::Arm("serving.score", spec);

  // Each router call burns through both instances; after the streak hits
  // the threshold (5) both breakers are open and calls fail fast (no
  // probes consumed yet, so no further failpoint hits are needed to stay
  // open).
  int failures = 0;
  for (int i = 0; i < 10 && Failpoints::hits("serving.score") < 10; ++i) {
    failures += router.Score(RequestOf(sample)).ok() ? 0 : 1;
  }
  EXPECT_EQ(failures, 5);
  EXPECT_TRUE(router.breaker_open(0));
  EXPECT_TRUE(router.breaker_open(1));
  EXPECT_FALSE(router.instance_healthy(0));
  EXPECT_EQ(router.breaker_trips(), 2u);
  EXPECT_EQ(router.open_instances(), 2);

  // Keep calling: skipped requests fail fast until probe slots (every
  // 16th) come up; probes burn the remaining injected failures, and once
  // the outage schedule is exhausted a probe succeeds and closes each
  // breaker.
  int recovered_at = -1;
  for (int i = 0; i < 200; ++i) {
    const auto verdict = router.Score(RequestOf(sample));
    if (verdict.ok() && !router.breaker_open(0) && !router.breaker_open(1)) {
      recovered_at = i;
      break;
    }
  }
  ASSERT_GE(recovered_at, 0) << "breakers never closed after the outage ended";
  EXPECT_EQ(router.open_instances(), 0);
  // Closed breakers serve normally again.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(router.Score(RequestOf(sample)).ok());
  Failpoints::DisarmAll();
}

TEST_F(ModelServerTest, PartialRolloutHoldsStaleInstanceOutOfRotation) {
  Failpoints::DisarmAll();
  ModelServerRouter router(store_, ModelServerOptions(), 3);
  ASSERT_TRUE(router.LoadModel(ml::SerializeModel(*model_), 100).ok());
  const auto& sample = world_->log.records[window_->test_records.front()];

  // v200 rollout fails on exactly the first instance (fleet order is
  // deterministic), leaving it on v100 while the fleet moves to v200.
  FailpointSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "disk full during model install";
  spec.max_hits = 1;
  Failpoints::Arm("serving.load_model", spec);
  const Status rollout = router.LoadModel(ml::SerializeModel(*model_), 200);
  EXPECT_EQ(rollout.code(), StatusCode::kInternal);  // Surfaced to the operator.
  EXPECT_EQ(router.model_version(), 200u);

  // The stale instance is held down: no mixed-version verdicts.
  EXPECT_TRUE(router.rollout_held(0));
  EXPECT_FALSE(router.instance_healthy(0));
  EXPECT_EQ(router.open_instances(), 1);
  for (int i = 0; i < 20; ++i) {
    const auto verdict = router.Score(RequestOf(sample));
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(verdict->model_version, 200u) << "stale instance served a request";
  }
  EXPECT_EQ(router.requests_served(0), 0u);

  // Retrying the rollout (outage over) re-validates the held instance.
  ASSERT_TRUE(router.LoadModel(ml::SerializeModel(*model_), 200).ok());
  EXPECT_FALSE(router.rollout_held(0));
  EXPECT_TRUE(router.instance_healthy(0));
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(router.Score(RequestOf(sample)).ok());
  EXPECT_GT(router.requests_served(0), 0u);
  Failpoints::DisarmAll();
}

TEST_F(ModelServerTest, AllInstanceRolloutFailureKeepsFleetOnOldVersion) {
  ModelServerRouter router(store_, ModelServerOptions(), 2);
  ASSERT_TRUE(router.LoadModel(ml::SerializeModel(*model_), 7).ok());
  const auto& sample = world_->log.records[window_->test_records.front()];

  // A bad blob fails everywhere: the fleet stays uniform on v7 and keeps
  // serving — holding every instance down would turn a bad upload into a
  // total outage.
  EXPECT_FALSE(router.LoadModel("corrupt-model-blob", 8).ok());
  EXPECT_EQ(router.model_version(), 7u);
  EXPECT_EQ(router.open_instances(), 0);
  const auto verdict = router.Score(RequestOf(sample));
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->model_version, 7u);
}

TEST_F(ModelServerTest, DegradedScoringSurvivesStoreOutage) {
  Failpoints::DisarmAll();
  ModelServer server(store_, ModelServerOptions());
  ASSERT_TRUE(server.LoadModel(ml::SerializeModel(*model_), 5).ok());
  const auto& sample = world_->log.records[window_->test_records.front()];

  // Baseline: a healthy store yields a full-quality verdict.
  const auto healthy = server.Score(RequestOf(sample));
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy->degraded);

  // Store outage: every Get fails Unavailable. The server still answers,
  // flagged degraded, from request-context features alone.
  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  Failpoints::Arm("kvstore.get", spec);
  const auto degraded = server.Score(RequestOf(sample));
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_GE(degraded->fraud_probability, 0.0);
  EXPECT_LE(degraded->fraud_probability, 1.0);
  EXPECT_EQ(server.degraded_scores(), 1u);
  Failpoints::DisarmAll();

  // Outage over: verdicts go back to full quality.
  const auto recovered = server.Score(RequestOf(sample));
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->degraded);
  EXPECT_EQ(server.degraded_scores(), 1u);

  // NotFound is NOT an outage: unknown users still fail loudly.
  TransferRequest unknown;
  unknown.from_user = 5'000'001;
  unknown.to_user = 1;
  unknown.day = window_->spec.test_day;
  EXPECT_TRUE(server.Score(unknown).status().IsNotFound());
}

TEST_F(ModelServerTest, ExpiredDeadlineSkipsFetchesAndDegrades) {
  ModelServer server(store_, ModelServerOptions());
  ASSERT_TRUE(server.LoadModel(ml::SerializeModel(*model_), 5).ok());
  const auto& sample = world_->log.records[window_->test_records.front()];

  // A deadline 1h in the past: no time for any fetch, but the caller
  // still gets a (degraded) verdict instead of a timeout. Clamped to
  // stay positive — steady_clock counts from boot, and on a host up for
  // less than an hour a negative stamp would read as "no deadline".
  const int64_t past = std::max<int64_t>(
      1, std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
                 .count() -
             3'600'000'000LL);
  const auto verdict = server.Score(RequestOf(sample), past);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(verdict->degraded);

  // A generous deadline changes nothing about the happy path.
  const auto fresh = server.Score(RequestOf(sample),
                                  std::chrono::duration_cast<std::chrono::microseconds>(
                                      std::chrono::steady_clock::now().time_since_epoch())
                                          .count() +
                                      10'000'000LL);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->degraded);
}

TEST_F(ModelServerTest, RouterPropagatesRequestLevelErrors) {
  ModelServerRouter router(store_, ModelServerOptions(), 2);
  ASSERT_TRUE(router.LoadModel(ml::SerializeModel(*model_), 1).ok());
  TransferRequest req;
  req.from_user = 5'000'000;  // Unknown user: NOT a failover case.
  req.to_user = 1;
  EXPECT_TRUE(router.Score(req).status().IsNotFound());
}

TEST_F(ModelServerTest, ScoreBatchMatchesSingleRequestScores) {
  // The batch path (one MultiGetView + one vectorized model call) must produce
  // the same verdicts, in request order, as N single Scores.
  std::vector<TransferRequest> batch;
  for (std::size_t i = 0; i < 16 && i < window_->test_records.size(); ++i) {
    batch.push_back(RequestOf(world_->log.records[window_->test_records[i]]));
  }
  const auto items = server_->ScoreBatch(batch);
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  ASSERT_EQ(items->size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto single = server_->Score(batch[i]);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE((*items)[i].ok()) << (*items)[i].status().ToString();
    EXPECT_EQ((*items)[i]->fraud_probability, single->fraud_probability) << "row " << i;
    EXPECT_EQ((*items)[i]->interrupt, single->interrupt);
    EXPECT_EQ((*items)[i]->model_version, single->model_version);
    EXPECT_FALSE((*items)[i]->degraded);
  }
  EXPECT_TRUE(server_->ScoreBatch({})->empty());
}

TEST_F(ModelServerTest, ScoreBatchIsolatesPerRowOutcomes) {
  Failpoints::DisarmAll();
  ModelServer server(store_, ModelServerOptions());
  ASSERT_TRUE(server.LoadModel(ml::SerializeModel(*model_), 5).ok());

  std::vector<TransferRequest> batch;
  for (std::size_t i = 0; i < 4; ++i) {
    batch.push_back(RequestOf(world_->log.records[window_->test_records[i]]));
  }

  // A data error in one row (unknown transferor) fails that item alone.
  std::vector<TransferRequest> mixed = batch;
  mixed[1].from_user = 5'000'000;
  auto items = server.ScoreBatch(mixed);
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  EXPECT_TRUE((*items)[0].ok());
  EXPECT_TRUE((*items)[1].status().IsNotFound());
  EXPECT_TRUE((*items)[2].ok());
  EXPECT_TRUE((*items)[3].ok());
  EXPECT_FALSE((*items)[0]->degraded);

  // An infra failure on exactly one row's snapshot fetch degrades that row
  // and leaves its batch siblings at full quality. ScoreSpan issues five
  // probes per row (snapshot, aux, city, embedding, live counters) in
  // request order, so row 2's snapshot probe is evaluation 10 of the
  // batch's kvstore.get failpoint.
  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.skip = 10;
  spec.max_hits = 1;
  Failpoints::Arm("kvstore.get", spec);
  items = server.ScoreBatch(batch);
  Failpoints::DisarmAll();
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  ASSERT_EQ(items->size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE((*items)[i].ok()) << "row " << i << ": " << (*items)[i].status().ToString();
    EXPECT_EQ((*items)[i]->degraded, i == 2) << "row " << i;
  }
  EXPECT_EQ(server.degraded_scores(), 1u);
}

TEST_F(ModelServerTest, RouterScoreBatchFailsOverAsAUnit) {
  Failpoints::DisarmAll();
  ModelServerRouter router(store_, ModelServerOptions(), 2);
  ASSERT_TRUE(router.LoadModel(ml::SerializeModel(*model_), 1).ok());

  std::vector<TransferRequest> batch;
  for (std::size_t i = 0; i < 3; ++i) {
    batch.push_back(RequestOf(world_->log.records[window_->test_records[i]]));
  }

  // First dispatch hits an instance-level outage: the whole batch fails
  // over to the second instance and every item still succeeds.
  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.max_hits = 1;
  Failpoints::Arm("serving.score", spec);
  const auto items = router.ScoreBatch(batch);
  Failpoints::DisarmAll();
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  ASSERT_EQ(items->size(), 3u);
  for (const auto& item : *items) ASSERT_TRUE(item.ok());
  // One instance served all three rows; the failed dispatch served none.
  EXPECT_EQ(router.requests_served(0) + router.requests_served(1), 3u);
}

TEST_F(ModelServerTest, ParallelUploadMatchesSequentialUpload) {
  // The pool-fanned daily upload must produce a byte-identical table:
  // same cells, same versions, same values as the sequential path.
  auto options = FeatureTableOptions();
  options.durable = false;
  std::unique_ptr<kvstore::AliHBase> sequential(AliHBaseOrDie(options));
  std::unique_ptr<kvstore::AliHBase> parallel(AliHBaseOrDie(options));

  const uint64_t version = 20170412;
  ASSERT_TRUE(UploadDailyArtifacts(sequential.get(), world_->log, trainer_->extractor(),
                                   *trainer_->dw_embeddings(), window_->spec.test_day,
                                   version, 50)
                  .ok());
  ThreadPool pool(4);
  ASSERT_TRUE(UploadDailyArtifacts(parallel.get(), world_->log, trainer_->extractor(),
                                   *trainer_->dw_embeddings(), window_->spec.test_day,
                                   version, 50, &pool)
                  .ok());

  for (txn::UserId user = 0; user < world_->log.num_users(); user += 17) {
    const std::string row = UserRowKey(user);
    for (const char* qual : {kQualSnapshot, kQualAux}) {
      const auto a = sequential->Get(row, kFamilyBasic, qual, version);
      const auto b = parallel->Get(row, kFamilyBasic, qual, version);
      ASSERT_TRUE(a.ok() && b.ok()) << row << " " << qual;
      EXPECT_EQ(*a, *b) << row << " " << qual;
    }
    const auto ea = sequential->Get(row, kFamilyEmbedding, kQualVector, version);
    const auto eb = parallel->Get(row, kFamilyEmbedding, kQualVector, version);
    ASSERT_TRUE(ea.ok() && eb.ok());
    EXPECT_EQ(*ea, *eb);
  }
  for (uint16_t city = 0; city < 50; city += 7) {
    const auto ca = sequential->Get(CityRowKey(city), kFamilyCity, kQualStats, version);
    const auto cb = parallel->Get(CityRowKey(city), kFamilyCity, kQualStats, version);
    ASSERT_TRUE(ca.ok() && cb.ok());
    EXPECT_EQ(*ca, *cb);
  }
}

TEST_F(ModelServerTest, ServedRowsMatchTheReferenceBitForBit) {
  std::unique_ptr<kvstore::AliHBase> store = TestDayStore();
  std::vector<TransferRequest> requests;
  for (std::size_t idx : window_->test_records) {
    requests.push_back(RequestOf(world_->log.records[idx]));
  }
  // Live counters: the day's traffic folded for a third of the transferors,
  // a cell with no event yet for another third, and no cell for the rest.
  streaming::Aggregator aggregator;
  for (const TransferRequest& request : requests) aggregator.Apply(request);
  const int64_t day_end = static_cast<int64_t>(window_->spec.test_day + 1) * 86400;
  for (const TransferRequest& request : requests) {
    streaming::LiveCounters counters;
    if (request.from_user % 3 == 2) continue;
    if (request.from_user % 3 == 0) {
      ASSERT_TRUE(aggregator.Query(request.from_user, day_end, &counters));
    }
    float cell[streaming::kCounterFloats];
    streaming::Aggregator::EncodeCounters(counters, cell);
    ASSERT_TRUE(store
                    ->Put(UserRowKey(request.from_user), streaming::kFamilyRealtime,
                          streaming::kQualWindow, EncodeFloats(cell, streaming::kCounterFloats),
                          20170410)
                    .ok());
  }
  ModelServer server(store.get(), ModelServerOptions());
  ASSERT_TRUE(server.LoadModel(ml::SerializeModel(*model_), 20170410).ok());

  const std::size_t width = core::FeatureExtractor::kNumBasicFeatures + 32;
  constexpr std::size_t kBatch = 16;
  ScoreScratch scratch;
  std::vector<StatusOr<Verdict>> verdicts(kBatch, Status::Internal("unscored"));
  std::vector<float> want(width);
  int live_rows = 0;
  // Deadline 0 scores from the store; 1 (long past) degrades every row.
  for (const int64_t deadline : {int64_t{0}, int64_t{1}}) {
    for (std::size_t begin = 0; begin < requests.size(); begin += kBatch) {
      const std::size_t n = std::min(kBatch, requests.size() - begin);
      ASSERT_TRUE(server.ScoreSpan(&requests[begin], n, deadline, verdicts.data(), &scratch).ok());
      for (std::size_t k = 0; k < n; ++k) {
        const TransferRequest& request = requests[begin + k];
        const std::string from = UserRowKey(request.from_user);
        const StatusOr<std::string> cells[] = {
            store->Get(from, kFamilyBasic, kQualSnapshot),
            store->Get(from, kFamilyBasic, kQualAux),
            store->Get(CityRowKey(request.trans_city), kFamilyCity, kQualStats),
            store->Get(UserRowKey(request.to_user), kFamilyEmbedding, kQualVector),
            store->Get(from, streaming::kFamilyRealtime, streaming::kQualWindow)};
        std::vector<StatusOr<std::string_view>> fetched;
        for (const StatusOr<std::string>& cell : cells) {
          fetched.push_back(cell.ok() ? StatusOr<std::string_view>(std::string_view(*cell))
                                      : StatusOr<std::string_view>(cell.status()));
        }
        ReferenceRow(request, fetched.data(), deadline > 0, want.data());
        const float* got = scratch.feature_rows().data() + k * width;
        ASSERT_EQ(std::memcmp(got, want.data(), width * sizeof(float)), 0)
            << "row " << begin + k << ", deadline " << deadline;
        ASSERT_TRUE(verdicts[k].ok()) << verdicts[k].status().ToString();
        EXPECT_EQ(verdicts[k]->degraded, deadline > 0);
        EXPECT_EQ(verdicts[k]->fraud_probability, model_->Score(want.data()));
        live_rows += deadline == 0 && fetched[4].ok();
      }
    }
  }
  EXPECT_GT(live_rows, 0);
}

TEST_F(ModelServerTest, ServedRowsDifferFromTrainingRowsOnlyWhereTheTableDeclares) {
  // Scores the test day with no ingestor and compares every served row
  // with its training-time row, slot by slot, by the rule of the slot's
  // source (DESIGN.md §17).
  using core::SlotOf;
  using core::SlotSource;
  std::unique_ptr<kvstore::AliHBase> store = TestDayStore();
  ModelServer server(store.get(), ModelServerOptions());
  ASSERT_TRUE(server.LoadModel(ml::SerializeModel(*model_), 20170410).ok());
  const std::vector<std::size_t>& records = window_->test_records;
  const auto offline = trainer_->BuildMatrix(records, core::FeatureSet::kBasicDW);
  ASSERT_TRUE(offline.ok());
  constexpr int kBasic = core::FeatureExtractor::kNumBasicFeatures;
  const std::size_t width = static_cast<std::size_t>(offline->num_cols());
  ASSERT_EQ(width, kBasic + 32u);

  std::vector<float> served;
  std::vector<double> served_scores;
  std::vector<uint8_t> labels;
  ScoreScratch scratch;
  constexpr std::size_t kBatch = 16;
  std::vector<TransferRequest> batch;
  std::vector<StatusOr<Verdict>> verdicts(kBatch, Status::Internal("unscored"));
  for (std::size_t begin = 0; begin < records.size(); begin += kBatch) {
    batch.clear();
    for (std::size_t k = begin; k < std::min(records.size(), begin + kBatch); ++k) {
      batch.push_back(RequestOf(world_->log.records[records[k]]));
      labels.push_back(world_->log.records[records[k]].is_fraud ? 1 : 0);
    }
    ASSERT_TRUE(server.ScoreSpan(batch.data(), batch.size(), 0, verdicts.data(), &scratch).ok());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      ASSERT_TRUE(verdicts[k].ok()) << verdicts[k].status().ToString();
      served_scores.push_back(verdicts[k]->fraud_probability);
    }
    served.insert(served.end(), scratch.feature_rows().begin(),
                  scratch.feature_rows().begin() + static_cast<std::ptrdiff_t>(batch.size() * width));
  }

  const auto same = [](float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; };
  std::vector<int> differ(width, 0);        // Served != offline, bitwise.
  std::vector<int> differ_clean(width, 0);  // The same, on clean rows.
  std::vector<int> broken(width, 0);        // Violations of the source's rule.
  int clean_rows = 0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const bool clean = IsClean(records[r]);
    clean_rows += clean;
    const float* got = &served[r * width];
    const float cold_recency =
        std::log1p(got[SlotOf("days_since_last_out")] * 86400.0f +
                   static_cast<float>(world_->log.records[records[r]].second_of_day));
    for (std::size_t j = 0; j < width; ++j) {
      const float want = offline->At(r, static_cast<int>(j));
      const bool equal = same(got[j], want);
      differ[j] += !equal;
      differ_clean[j] += clean && !equal;
      bool ok = equal;  // Embedding columns and the bit-equal sources.
      if (j < static_cast<std::size_t>(kBasic)) {
        switch (core::kFeatureSlots[j].source) {
          case SlotSource::kProfile:
          case SlotSource::kRequest:
          case SlotSource::kCity:
            break;
          case SlotSource::kHistory:
            ok = equal || !clean;
            break;
          case SlotSource::kPayee:
            ok = got[j] == (j == SlotOf("is_new_payee") ? 1.0f : 0.0f);
            break;
          case SlotSource::kToday:
            ok = got[j] == (j == SlotOf("log_secs_since_prev") ? cold_recency : 0.0f);
            break;
          case SlotSource::kRatio:
            // The aux cell carries the 30-day means as float32.
            ok = !clean || (j == SlotOf("amount_over_avg")
                                ? std::fabs(got[j] - want) <= 1e-6 * std::fabs(want)
                                : std::fabs(got[j] - want) <= 1e-5);
            break;
        }
      }
      broken[j] += !ok;
    }
  }
  EXPECT_GT(clean_rows, 0);

  const auto served_auc = ml::RocAuc(served_scores, labels);
  const auto offline_scores = model_->ScoreAll(*offline);
  ASSERT_TRUE(served_auc.ok() && offline_scores.ok());
  const auto offline_auc = ml::RocAuc(*offline_scores, labels);
  ASSERT_TRUE(offline_auc.ok());
  std::printf("skew over %zu test-day rows (%d clean), served vs training rows:\n",
              records.size(), clean_rows);
  for (int j = 0; j < kBasic; ++j) {
    if (differ[j] == 0) continue;
    std::printf("  slot %2d %-22s %6.1f%% of rows, %6.1f%% of clean rows\n", j,
                std::string(core::kFeatureSlots[j].name).c_str(),
                100.0 * differ[j] / static_cast<double>(records.size()),
                100.0 * differ_clean[j] / std::max(1, clean_rows));
  }
  std::printf("AUC %.10f served vs %.10f offline\n", *served_auc, *offline_auc);
  for (std::size_t j = 0; j < width; ++j) {
    EXPECT_EQ(broken[j], 0) << (j < static_cast<std::size_t>(kBasic)
                                    ? std::string(core::kFeatureSlots[j].name)
                                    : "embedding column " + std::to_string(j - kBasic));
  }
}

TEST_F(ModelServerTest, HostileStoreCellsKeepTheSlotAssemblyDefined) {
  // With an ingestor attached, any gateway client may put any declared
  // family, so a snapshot or live-counter cell can hold any float. The
  // served row must stay well defined (the UBSan lane checks float-to-int
  // casts): a home city that is no city reads as cross-city, and a counter
  // stamp off the calendar reads as "no stamp", keeping the cold recency.
  using core::SlotOf;
  constexpr int kBasic = core::FeatureExtractor::kNumBasicFeatures;
  std::unique_ptr<kvstore::AliHBase> store = TestDayStore();
  ModelServer server(store.get(), ModelServerOptions());
  ASSERT_TRUE(server.LoadModel(ml::SerializeModel(*model_), 20170410).ok());
  TransferRequest request;
  for (std::size_t idx : window_->test_records) {
    request = RequestOf(world_->log.records[idx]);
    if (request.second_of_day >= 10) break;
  }
  const std::string row = UserRowKey(request.from_user);
  const auto genuine = store->Get(row, kFamilyBasic, kQualSnapshot);
  ASSERT_TRUE(genuine.ok());
  float snapshot[kBasic];
  ASSERT_TRUE(DecodeFloats(*genuine, kBasic, snapshot).ok());
  const float home_city = snapshot[SlotOf("home_city")];

  uint64_t version = 20170411;
  ScoreScratch scratch;
  const auto serve = [&](float home, float last_day, float last_second) {
    float cell[kBasic];
    std::copy(snapshot, snapshot + kBasic, cell);
    cell[SlotOf("home_city")] = home;
    float counters[streaming::kCounterFloats] = {};
    counters[streaming::kCounter24hCount] = 3.0f;
    counters[streaming::kCounterLastDay] = last_day;
    counters[streaming::kCounterLastSecond] = last_second;
    EXPECT_TRUE(store->Put(row, kFamilyBasic, kQualSnapshot, EncodeFloats(cell, kBasic), version)
                    .ok());
    EXPECT_TRUE(store
                    ->Put(row, streaming::kFamilyRealtime, streaming::kQualWindow,
                          EncodeFloats(counters, streaming::kCounterFloats), version)
                    .ok());
    ++version;
    StatusOr<Verdict> verdict = Status::Internal("unscored");
    EXPECT_TRUE(server.ScoreSpan(&request, 1, 0, &verdict, &scratch).ok());
    EXPECT_TRUE(verdict.ok() && !verdict->degraded);
    return scratch.feature_rows().data();
  };
  const float cold_recency = std::log1p(snapshot[SlotOf("days_since_last_out")] * 86400.0f +
                                        static_cast<float>(request.second_of_day));
  const float cross_city = static_cast<float>(request.trans_city) != home_city ? 1.0f : 0.0f;
  const float day = static_cast<float>(request.day);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const float hostile :
       {std::numeric_limits<float>::quiet_NaN(), kInf, -kInf, 1e15f, -1.0f}) {
    const float* f = serve(hostile, hostile, 0.0f);
    EXPECT_EQ(f[SlotOf("is_cross_city")], 1.0f) << hostile;
    EXPECT_EQ(f[SlotOf("cnt_today")], 3.0f) << hostile;
    EXPECT_EQ(f[SlotOf("log_secs_since_prev")], cold_recency) << hostile;
    f = serve(home_city, day, hostile);
    EXPECT_EQ(f[SlotOf("is_cross_city")], cross_city) << hostile;
    EXPECT_EQ(f[SlotOf("log_secs_since_prev")], cold_recency) << hostile;
  }
  // A stamp on the calendar is read: the last event ten seconds back.
  const float* f = serve(home_city, day, static_cast<float>(request.second_of_day - 10));
  EXPECT_EQ(f[SlotOf("log_secs_since_prev")], std::log1p(10.0f));
}

TEST(ModelServerLifecycleTest, RequiresModelBeforeScoring) {
  auto options = FeatureTableOptions();
  options.durable = false;
  auto store = kvstore::AliHBase::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  ModelServer server(store->get(), ModelServerOptions());
  TransferRequest req;
  EXPECT_EQ(server.Score(req).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(server.LoadModel("corrupt-blob", 1).ok());
}

TEST(ModelServerLifecycleTest, RejectsModelWithWrongWidth) {
  auto options = FeatureTableOptions();
  options.durable = false;
  auto store = kvstore::AliHBase::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  ModelServer server(store->get(), ModelServerOptions());  // Expects 52+32.

  // Train a 5-feature model: width mismatch must be rejected at load time.
  ml::DataMatrix tiny(10, 5);
  tiny.mutable_labels().assign(10, 0);
  tiny.mutable_labels()[0] = 1;
  auto model = ml::MakeId3();
  ASSERT_TRUE(model->Train(tiny).ok());
  EXPECT_TRUE(server.LoadModel(ml::SerializeModel(*model), 1).IsInvalidArgument());
}

}  // namespace
}  // namespace titant::serving
