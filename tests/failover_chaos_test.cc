// Node-kill chaos harness for the replicated feature-store tier: the
// kReplAppend/kReplCatchup/ReplAck codecs under truncation fuzz, the
// KvStoreServer's watermark protocol (idempotent replay, gap refusal,
// snapshot adoption) over real TCP, WAL shipping primary -> standby, and
// the serving-layer FailoverStore under deterministic failpoint
// schedules that kill or hang the primary mid-ScoreBatch and mid-ingest.
// The availability contract under test: a dead primary never fails a
// score (verdicts go degraded, not absent), counter publishes keep
// landing, the standby's state equals the primary's replicated
// watermark, and a restarted node converges via snapshot catch-up.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "kvstore/store.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/model.h"
#include "net/client.h"
#include "net/wire.h"
#include "replication/failover_store.h"
#include "replication/kv_server.h"
#include "replication/shipper.h"
#include "serving/feature_store.h"
#include "serving/gateway.h"
#include "serving/model_server.h"
#include "serving/router.h"
#include "streaming/aggregator.h"
#include "streaming/ingestor.h"

namespace titant::replication {
namespace {

kvstore::Cell MakeCell(const std::string& row, uint64_t version, const std::string& value,
                       bool tombstone = false) {
  kvstore::Cell cell;
  cell.key.row = row;
  cell.key.family = streaming::kFamilyRealtime;
  cell.key.qualifier = streaming::kQualWindow;
  cell.key.version = version;
  cell.value = value;
  cell.tombstone = tombstone;
  return cell;
}

// ---------------------------------------------------------------------------
// Wire codecs: kReplAppend / kReplCatchup / ReplAck framing and fuzz.
// ---------------------------------------------------------------------------

TEST(ReplWireTest, ReplAppendRoundTripsAndRejectsEveryTruncation) {
  const kvstore::Cell a = MakeCell("u0000000001", 3, "aaaa");
  const kvstore::Cell b = MakeCell("u0000000002", 4, "", true);
  const kvstore::Cell c = MakeCell("u0000000003", 5, std::string(48, 'z'));
  std::string records;
  const kvstore::Cell* first[] = {&a, &b};
  net::EncodeReplRecordTo(&records, first, 2);
  const kvstore::Cell* second[] = {&c};
  net::EncodeReplRecordTo(&records, second, 1);
  std::string payload;
  net::EncodeReplAppendTo(&payload, /*first_seq=*/7, /*record_count=*/2, records);

  uint64_t first_seq = 0;
  std::vector<net::ReplRecord> decoded;
  ASSERT_TRUE(net::DecodeReplAppend(payload, &first_seq, &decoded).ok());
  EXPECT_EQ(first_seq, 7u);
  ASSERT_EQ(decoded.size(), 2u);
  ASSERT_EQ(decoded[0].cells.size(), 2u);
  EXPECT_EQ(decoded[0].cells[0].key.row, "u0000000001");
  EXPECT_EQ(decoded[0].cells[1].tombstone, true);
  ASSERT_EQ(decoded[1].cells.size(), 1u);
  EXPECT_EQ(decoded[1].cells[0].value, std::string(48, 'z'));

  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        net::DecodeReplAppend(std::string_view(payload).substr(0, len), &first_seq, &decoded).ok())
        << "truncated prefix of " << len << " bytes decoded";
  }
  EXPECT_FALSE(net::DecodeReplAppend(payload + "x", &first_seq, &decoded).ok());

  // seq 0 is reserved (commit seqs start at 1): a frame claiming it is
  // malformed, not a replay.
  std::string zero_seq;
  net::EncodeReplAppendTo(&zero_seq, /*first_seq=*/0, /*record_count=*/2, records);
  EXPECT_FALSE(net::DecodeReplAppend(zero_seq, &first_seq, &decoded).ok());

  // Empty record runs are refused at decode, so the server's watermark
  // arithmetic never sees a zero-length batch.
  std::string empty;
  net::EncodeReplAppendTo(&empty, /*first_seq=*/1, /*record_count=*/0, "");
  EXPECT_FALSE(net::DecodeReplAppend(empty, &first_seq, &decoded).ok());
}

TEST(ReplWireTest, ReplCatchupRoundTripsAndAllowsEmptyFinalChunk) {
  const std::vector<kvstore::Cell> cells = {MakeCell("u0000000009", 11, "vvvv"),
                                            MakeCell("u0000000010", 12, "w", true)};
  std::string payload;
  net::EncodeReplCatchupTo(&payload, /*watermark=*/42, /*done=*/false, cells.data(), cells.size());

  uint64_t watermark = 0;
  bool done = true;
  std::vector<kvstore::Cell> decoded;
  ASSERT_TRUE(net::DecodeReplCatchup(payload, &watermark, &done, &decoded).ok());
  EXPECT_EQ(watermark, 42u);
  EXPECT_FALSE(done);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].key.version, 11u);
  EXPECT_TRUE(decoded[1].tombstone);

  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        net::DecodeReplCatchup(std::string_view(payload).substr(0, len), &watermark, &done,
                               &decoded)
            .ok())
        << "truncated prefix of " << len << " bytes decoded";
  }
  EXPECT_FALSE(net::DecodeReplCatchup(payload + "?", &watermark, &done, &decoded).ok());

  // The final chunk of an empty snapshot carries zero cells — legal, and
  // the watermark still rides along.
  std::string final_chunk;
  net::EncodeReplCatchupTo(&final_chunk, /*watermark=*/7, /*done=*/true, nullptr, 0);
  ASSERT_TRUE(net::DecodeReplCatchup(final_chunk, &watermark, &done, &decoded).ok());
  EXPECT_EQ(watermark, 7u);
  EXPECT_TRUE(done);
  EXPECT_TRUE(decoded.empty());
}

TEST(ReplWireTest, ReplAckRoundTripsAndRejectsWrongSize) {
  std::string ack;
  net::EncodeReplAckTo(&ack, 123456789u);
  uint64_t watermark = 0;
  ASSERT_TRUE(net::DecodeReplAck(ack, &watermark).ok());
  EXPECT_EQ(watermark, 123456789u);
  EXPECT_FALSE(net::DecodeReplAck(std::string_view(ack).substr(0, ack.size() - 1), &watermark).ok());
  EXPECT_FALSE(net::DecodeReplAck(ack + "x", &watermark).ok());
}

// ---------------------------------------------------------------------------
// KvStoreServer watermark protocol over real TCP.
// ---------------------------------------------------------------------------

class KvServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::DisarmAll();
    auto options = serving::FeatureTableOptions();
    options.durable = false;
    auto store = kvstore::AliHBase::Open(std::move(options));
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    server_ = std::make_unique<KvStoreServer>(store_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    EXPECT_TRUE(server_->Shutdown().ok());
    Failpoints::DisarmAll();
  }

  /// One kReplAppend frame holding `count` single-cell records starting
  /// at `first_seq` (cell versions track the seq so replays are visible).
  static std::string AppendFrame(uint64_t first_seq, uint32_t count) {
    std::string records;
    for (uint32_t i = 0; i < count; ++i) {
      const kvstore::Cell cell =
          MakeCell("u0000000001", first_seq + i, "seq" + std::to_string(first_seq + i));
      const kvstore::Cell* cells[] = {&cell};
      net::EncodeReplRecordTo(&records, cells, 1);
    }
    std::string payload;
    net::EncodeReplAppendTo(&payload, first_seq, count, records);
    return payload;
  }

  static uint64_t AckOf(const StatusOr<std::string>& response) {
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    uint64_t watermark = 0;
    EXPECT_TRUE(net::DecodeReplAck(*response, &watermark).ok());
    return watermark;
  }

  std::unique_ptr<kvstore::AliHBase> store_;
  std::unique_ptr<KvStoreServer> server_;
};

TEST_F(KvServerTest, WatermarkAdvancesReplaysIdempotentlyAndRefusesGaps) {
  net::Client client("127.0.0.1", server_->port());

  // A contiguous stream advances the watermark.
  EXPECT_EQ(AckOf(client.Call(net::kReplAppend, AppendFrame(1, 2))), 2u);
  EXPECT_EQ(AckOf(client.Call(net::kReplAppend, AppendFrame(3, 3))), 5u);
  EXPECT_EQ(server_->watermark(), 5u);

  // Full replay (retry after a lost ack): acknowledged, not re-applied.
  EXPECT_EQ(AckOf(client.Call(net::kReplAppend, AppendFrame(3, 3))), 5u);
  EXPECT_EQ(server_->stats().repl_records_applied, 5u);

  // Partial overlap: only the suffix past the watermark applies.
  EXPECT_EQ(AckOf(client.Call(net::kReplAppend, AppendFrame(5, 2))), 6u);
  EXPECT_EQ(server_->stats().repl_records_applied, 6u);

  // A gap is refused with FailedPrecondition — NOT retryable, so a
  // shipper demotes to snapshot catch-up instead of re-sending blindly.
  const auto gap = client.Call(net::kReplAppend, AppendFrame(9, 1));
  EXPECT_EQ(gap.status().code(), StatusCode::kFailedPrecondition) << gap.status().ToString();
  EXPECT_FALSE(gap.status().IsRetryable());
  EXPECT_EQ(server_->stats().gaps_detected, 1u);
  EXPECT_EQ(server_->watermark(), 6u);

  // The applied cells are really in the store, newest version winning.
  auto blob = store_->Get("u0000000001", streaming::kFamilyRealtime, streaming::kQualWindow);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "seq6");
}

TEST_F(KvServerTest, CatchupAdoptsWatermarkOnlyOnTheFinalChunk) {
  net::Client client("127.0.0.1", server_->port());
  const std::vector<kvstore::Cell> chunk = {MakeCell("u0000000002", 1, "snap")};

  // Mid-snapshot chunk: cells land, watermark stays put — a torn
  // catch-up must re-trigger gap detection, not masquerade as complete.
  std::string payload;
  net::EncodeReplCatchupTo(&payload, /*watermark=*/9, /*done=*/false, chunk.data(), chunk.size());
  EXPECT_EQ(AckOf(client.Call(net::kReplCatchup, payload)), 0u);
  EXPECT_EQ(server_->watermark(), 0u);

  // Final (empty) chunk adopts the snapshot watermark.
  payload.clear();
  net::EncodeReplCatchupTo(&payload, /*watermark=*/9, /*done=*/true, nullptr, 0);
  EXPECT_EQ(AckOf(client.Call(net::kReplCatchup, payload)), 9u);
  EXPECT_EQ(server_->watermark(), 9u);
  EXPECT_EQ(server_->stats().catchup_cells, 1u);
  EXPECT_GT(server_->stats().catchup_bytes, 0u);

  // After catch-up the stream resumes from the adopted watermark.
  EXPECT_EQ(AckOf(client.Call(net::kReplAppend, AppendFrame(10, 1))), 10u);

  // kHealth doubles as a watermark probe.
  auto health = client.Call(net::kHealth, "");
  ASSERT_TRUE(health.ok());
  net::HealthInfo info;
  ASSERT_TRUE(net::DecodeHealthInfo(*health, &info).ok());
  EXPECT_EQ(info.model_version, 10u);
}

// ---------------------------------------------------------------------------
// The replicated tier end to end: shipper, failover, chaos schedules.
// ---------------------------------------------------------------------------

class FailoverChaosTest : public ::testing::Test {
 protected:
  static constexpr int kWidth = 84;  // 52 basic + 32 embedding.

  void SetUp() override {
    Failpoints::DisarmAll();

    // Primary: scoped failpoints so a "node kill" hits only this store.
    auto primary_options = serving::FeatureTableOptions();
    primary_options.durable = false;
    primary_options.failpoint_scope = "primary";
    auto primary = kvstore::AliHBase::Open(std::move(primary_options));
    ASSERT_TRUE(primary.ok());
    primary_ = std::move(*primary);

    // Warm standby behind a real TCP KvStoreServer.
    auto standby_options = serving::FeatureTableOptions();
    standby_options.durable = false;
    auto standby = kvstore::AliHBase::Open(std::move(standby_options));
    ASSERT_TRUE(standby.ok());
    standby_ = std::move(*standby);
    standby_server_ = std::make_unique<KvStoreServer>(standby_.get());
    ASSERT_TRUE(standby_server_->Start().ok());

    // WAL shipping primary -> standby.
    ShipperOptions ship_options;
    ship_options.standby_port = standby_server_->port();
    shipper_ = Shipper::Attach(primary_.get(), ship_options);
    ASSERT_NE(shipper_, nullptr);

    // The breaker's fixed, count-based policy: five strikes flip, every
    // 16th failed-over read probes the primary.
    failover_ = std::make_unique<FailoverStore>(primary_.get(), standby_.get());
  }

  void TearDown() override {
    Failpoints::DisarmAll();
    if (gateway_ != nullptr) {
      EXPECT_TRUE(gateway_->Shutdown().ok());
    }
    if (ingestor_ != nullptr) {
      EXPECT_TRUE(ingestor_->Shutdown().ok());
    }
    if (shipper_ != nullptr) {
      shipper_->Shutdown();
    }
    if (standby_server_ != nullptr) {
      EXPECT_TRUE(standby_server_->Shutdown().ok());
    }
  }

  /// Seeds user 1's offline features on the primary and waits for them to
  /// replicate, so either node can serve a full (non-miss) feature row.
  void SeedAndReplicateFeatures() {
    std::vector<float> snapshot(52, 0.5f);
    std::vector<float> aux = {14.0f, 80.0f};
    std::vector<float> embedding(32, 0.25f);
    ASSERT_TRUE(primary_
                    ->Put(serving::UserRowKey(1), serving::kFamilyBasic, serving::kQualSnapshot,
                          serving::EncodeFloats(snapshot.data(), snapshot.size()), 1)
                    .ok());
    ASSERT_TRUE(primary_
                    ->Put(serving::UserRowKey(1), serving::kFamilyBasic, serving::kQualAux,
                          serving::EncodeFloats(aux.data(), aux.size()), 1)
                    .ok());
    ASSERT_TRUE(primary_
                    ->Put(serving::UserRowKey(2), serving::kFamilyEmbedding, serving::kQualVector,
                          serving::EncodeFloats(embedding.data(), embedding.size()), 1)
                    .ok());
    ASSERT_TRUE(shipper_->Drain(5000));
  }

  void StartRouter() {
    router_ = std::make_unique<serving::ModelServerRouter>(
        failover_.get(), serving::ModelServerOptions(), /*num_instances=*/1);
    ASSERT_TRUE(router_->LoadModel(ModelBlob(), 1).ok());
  }

  /// Any trained model will do: the contract under test is availability,
  /// not the verdict. Split on cnt_today so the tree is non-trivial.
  static std::string ModelBlob() {
    ml::DataMatrix train(40, kWidth);
    train.mutable_labels().assign(40, 0);
    for (std::size_t row = 0; row < 20; ++row) {
      train.mutable_labels()[row] = 1;
      train.Set(row, core::SlotOf("cnt_today"), 30.0f);
    }
    auto model = ml::MakeId3();
    EXPECT_TRUE(model->Train(train).ok());
    return ml::SerializeModel(*model);
  }

  static serving::TransferRequest Transfer(int64_t at_s, double amount = 250.0) {
    serving::TransferRequest request;
    request.txn_id = static_cast<uint64_t>(at_s);
    request.from_user = 1;
    request.to_user = 2;
    request.amount = amount;
    request.day = static_cast<txn::Day>(at_s / 86400);
    request.second_of_day = static_cast<int32_t>(at_s % 86400);
    return request;
  }

  static serving::TransferRequest Event(txn::UserId from, txn::UserId to, double amount,
                                        int64_t at_s) {
    serving::TransferRequest request;
    request.txn_id = static_cast<uint64_t>(at_s);
    request.from_user = from;
    request.to_user = to;
    request.amount = amount;
    request.day = static_cast<txn::Day>(at_s / 86400);
    request.second_of_day = static_cast<int32_t>(at_s % 86400);
    return request;
  }

  /// Decodes the published "rt"/"win" counters for user 1 from `store`.
  static void ReadCounters(kvstore::AliHBase* store, float out[streaming::kCounterFloats]) {
    auto blob =
        store->Get(serving::UserRowKey(1), streaming::kFamilyRealtime, streaming::kQualWindow);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    ASSERT_TRUE(serving::DecodeFloats(*blob, streaming::kCounterFloats, out).ok());
  }

  std::unique_ptr<kvstore::AliHBase> primary_;
  std::unique_ptr<kvstore::AliHBase> standby_;
  std::unique_ptr<KvStoreServer> standby_server_;
  std::unique_ptr<Shipper> shipper_;
  std::unique_ptr<FailoverStore> failover_;
  std::unique_ptr<serving::ModelServerRouter> router_;
  std::unique_ptr<streaming::Ingestor> ingestor_;
  std::unique_ptr<serving::Gateway> gateway_;
};

TEST_F(FailoverChaosTest, ShipperReplicatesCommitsToTheStandbyWatermark) {
  std::vector<kvstore::Cell> cells;
  for (int i = 0; i < 20; ++i) {
    cells.push_back(MakeCell(serving::UserRowKey(static_cast<txn::UserId>(i + 1)),
                             static_cast<uint64_t>(i + 1), "v" + std::to_string(i)));
  }
  for (const auto& cell : cells) {
    ASSERT_TRUE(primary_->PutBatch({cell}).ok());
  }
  ASSERT_TRUE(shipper_->Drain(5000));

  // The standby's watermark equals the primary's commit seq: bounded
  // staleness collapsed to zero once drained.
  EXPECT_EQ(standby_server_->watermark(), primary_->commit_seq());
  const ShipperStats stats = shipper_->stats();
  EXPECT_EQ(stats.acked_seq, stats.shipped_seq);
  EXPECT_EQ(stats.lag, 0u);

  // Replica/primary cell equality.
  for (const auto& cell : cells) {
    auto primary_blob = primary_->Get(cell.key.row, cell.key.family, cell.key.qualifier);
    auto standby_blob = standby_->Get(cell.key.row, cell.key.family, cell.key.qualifier);
    ASSERT_TRUE(primary_blob.ok());
    ASSERT_TRUE(standby_blob.ok()) << cell.key.row << ": " << standby_blob.status().ToString();
    EXPECT_EQ(*standby_blob, *primary_blob);
  }
}

TEST_F(FailoverChaosTest, QueueOverflowFallsBackToSnapshotCatchup) {
  // The standby is unreachable: every ship round fails to connect, so no
  // record leaves the queue.
  ASSERT_TRUE(Failpoints::ArmFromSpec("net.client.connect,error:Unavailable").ok());
  const std::size_t commits = Shipper::kQueueMaxRecords + 1;
  for (std::size_t i = 0; i < commits; ++i) {
    ASSERT_TRUE(
        primary_->PutBatch({MakeCell(serving::UserRowKey(static_cast<txn::UserId>(i)), 1, "v")})
            .ok());
  }
  // The commit past the bound dropped the backlog and scheduled a
  // snapshot catch-up instead.
  EXPECT_EQ(shipper_->stats().overflows, 1u);

  // The standby comes back: the catch-up carries every commit, including
  // the ones the cleared queue held.
  Failpoints::DisarmAll();
  ASSERT_TRUE(shipper_->Drain(30'000));
  EXPECT_EQ(standby_server_->watermark(), primary_->commit_seq());
  const auto primary_cells = primary_->Scan("", "");
  const auto standby_cells = standby_->Scan("", "");
  ASSERT_TRUE(primary_cells.ok()) << primary_cells.status().ToString();
  ASSERT_TRUE(standby_cells.ok()) << standby_cells.status().ToString();
  ASSERT_EQ(primary_cells->size(), commits);
  ASSERT_EQ(standby_cells->size(), commits);
  for (std::size_t i = 0; i < commits; ++i) {
    ASSERT_EQ((*standby_cells)[i].key, (*primary_cells)[i].key) << i;
    ASSERT_EQ((*standby_cells)[i].value, (*primary_cells)[i].value) << i;
  }
}

TEST_F(FailoverChaosTest, PrimaryKilledMidBatchNeverFailsAScore) {
  SeedAndReplicateFeatures();
  StartRouter();
  const int64_t t0 = 100 * 86400 + 43'200;

  // Healthy baseline: a clean, non-degraded verdict off the primary.
  auto before = router_->Score(Transfer(t0));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->degraded);

  // Kill the primary: every read against it now answers Unavailable (a
  // lost region server). The standby, unscoped, keeps serving.
  ASSERT_TRUE(Failpoints::ArmFromSpec("kvstore.primary.get,error:Unavailable").ok());
  int degraded = 0;
  for (int i = 0; i < 10; ++i) {
    std::vector<serving::TransferRequest> batch;
    for (int j = 0; j < 4; ++j) batch.push_back(Transfer(t0 + i * 40 + j));
    auto verdicts = router_->ScoreBatch(batch);
    ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
    for (const auto& verdict : *verdicts) {
      // The availability contract: zero failed scores across the kill.
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      if (verdict->degraded) ++degraded;
    }
  }
  // Possibly-stale beats fail-closed: verdicts during the outage carry
  // the degraded bit (first strikes via cold defaults, the rest via the
  // standby's degraded_reads), and the breaker flipped exactly once.
  EXPECT_TRUE(failover_->on_standby());
  EXPECT_GE(degraded, 9 * 4);
  const FailoverStoreStats mid = failover_->stats();
  EXPECT_EQ(mid.failovers, 1u);
  EXPECT_EQ(mid.failbacks, 0u);

  // Heal the primary; half-open probes fail the store back.
  Failpoints::DisarmAll();
  StatusOr<serving::Verdict> after = Status::Internal("unscored");
  for (int i = 0; i < 64 && failover_->on_standby(); ++i) {
    after = router_->Score(Transfer(t0 + 2000 + i));
    ASSERT_TRUE(after.ok());
  }
  EXPECT_FALSE(failover_->on_standby());
  const FailoverStoreStats healed = failover_->stats();
  EXPECT_EQ(healed.failbacks, 1u);
  EXPECT_GE(healed.probes, 1u);
  // Back on the primary, verdicts shed the degraded bit.
  after = router_->Score(Transfer(t0 + 3000));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->degraded);
}

TEST_F(FailoverChaosTest, PrimaryHangMidBatchFailsOverWithoutFailingScores) {
  SeedAndReplicateFeatures();
  StartRouter();
  const int64_t t0 = 100 * 86400 + 43'200;

  // A wedged (not dead) primary: each read stalls, then times out — the
  // other node-down signature (and the Timeout code is in the same
  // retryable infra class the breaker counts).
  ASSERT_TRUE(Failpoints::ArmFromSpec("kvstore.primary.get,error:Timeout,delay:1").ok());
  for (int i = 0; i < 8; ++i) {
    std::vector<serving::TransferRequest> batch;
    for (int j = 0; j < 4; ++j) batch.push_back(Transfer(t0 + i * 40 + j));
    auto verdicts = router_->ScoreBatch(batch);
    ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
    for (const auto& verdict : *verdicts) {
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    }
  }
  EXPECT_TRUE(failover_->on_standby());
  EXPECT_EQ(failover_->stats().failovers, 1u);
}

TEST_F(FailoverChaosTest, IngestPublishesFlipToTheStandbyMidStream) {
  streaming::IngestorOptions options;
  options.publish_interval_ms = 0;  // Publish after every drained batch.
  auto ingestor = streaming::Ingestor::Open(failover_.get(), options);
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  ingestor_ = std::move(*ingestor);
  const int64_t t0 = 100 * 86400;

  // One publish lands on the healthy primary (and ships to the standby).
  ingestor_->Submit(Event(1, 2, 10.0, t0));
  ingestor_->Drain();
  ASSERT_TRUE(shipper_->Drain(5000));
  float counters[streaming::kCounterFloats] = {};
  ReadCounters(standby_.get(), counters);
  EXPECT_FLOAT_EQ(counters[0], 1.0f);

  // Kill the primary's write path mid-ingest. The next publishes strike
  // out (threshold 5: four failed publishes, then the flip), after which
  // counter publishes land directly on the standby.
  ASSERT_TRUE(Failpoints::ArmFromSpec("kvstore.primary.put,error:Unavailable").ok());
  for (int strike = 1; strike <= 5; ++strike) {
    ingestor_->Submit(Event(1, static_cast<txn::UserId>(2 + strike), 10.0, t0 + 60 * strike));
    // Strikes one to four fail (counters keep counting); strike five
    // flips, and its publish lands on the standby.
    ingestor_->Drain();
    EXPECT_EQ(failover_->on_standby(), strike == 5) << "strike " << strike;
  }
  EXPECT_EQ(failover_->stats().failovers, 1u);
  Failpoints::DisarmAll();

  // Publishes are cumulative snapshots, so nothing was lost to the dead
  // primary: the standby's cell carries all six events.
  ReadCounters(standby_.get(), counters);
  EXPECT_FLOAT_EQ(counters[0], 6.0f);  // 1h count.
  EXPECT_FLOAT_EQ(counters[2], 6.0f);  // 1h distinct payees.
}

TEST_F(FailoverChaosTest, TakeoverRepublishOutranksReplicatedStaleCells) {
  // Two-node version of the restart-outranks-stale-cells contract: the
  // first ingestor's publishes replicate to the standby; after a
  // takeover, a fresh ingestor's lower-but-newer counters must win on
  // the standby too, or failover would resurrect pre-crash velocity.
  streaming::IngestorOptions options;
  options.publish_interval_ms = 0;
  const int64_t t0 = 100 * 86400;
  {
    auto first = streaming::Ingestor::Open(failover_.get(), options);
    ASSERT_TRUE(first.ok());
    for (int i = 0; i < 3; ++i) {
      (*first)->Submit(Event(1, 2, 10.0, t0 + i * 60));
      (*first)->Drain();
    }
    ASSERT_TRUE((*first)->Shutdown().ok());
  }
  ASSERT_TRUE(shipper_->Drain(5000));
  float counters[streaming::kCounterFloats] = {};
  ReadCounters(standby_.get(), counters);
  ASSERT_FLOAT_EQ(counters[0], 3.0f);  // The stale cells reached the standby.

  // The primary dies; the tier takes over on the standby. A restarted
  // ingestor (no event log: its aggregator is empty) publishes there.
  failover_->ForceFailover();
  auto second = streaming::Ingestor::Open(failover_.get(), options);
  ASSERT_TRUE(second.ok());
  ingestor_ = std::move(*second);
  ingestor_->Submit(Event(1, 2, 10.0, t0 + 3600));
  ingestor_->Drain();

  // The takeover publish outranks the replicated stale cells: reads see
  // the restart's count of 1, not the resurrected 3.
  ReadCounters(standby_.get(), counters);
  EXPECT_FLOAT_EQ(counters[0], 1.0f);
}

TEST_F(FailoverChaosTest, RestartedPrimaryRejoinsViaSnapshotCatchup) {
  // Populate the tier, then fail over: the standby is now authoritative.
  std::vector<kvstore::Cell> cells;
  for (int i = 0; i < 12; ++i) {
    cells.push_back(MakeCell(serving::UserRowKey(static_cast<txn::UserId>(100 + i)),
                             static_cast<uint64_t>(i + 1), "cell" + std::to_string(i)));
  }
  ASSERT_TRUE(primary_->PutBatch(cells).ok());
  ASSERT_TRUE(shipper_->Drain(5000));
  failover_->ForceFailover();
  ASSERT_TRUE(
      standby_->PutBatch({MakeCell(serving::UserRowKey(999), 1, "post-failover")}).ok());

  // The old primary restarts empty (its disk died with it) and rejoins
  // as the standby of the promoted node: it runs the server role, and
  // the promoted node ships to it. Attach sees pre-existing commits and
  // opens with a snapshot catch-up — the failback arrow flips.
  auto rejoin_options = serving::FeatureTableOptions();
  rejoin_options.durable = false;
  auto rejoined = kvstore::AliHBase::Open(std::move(rejoin_options));
  ASSERT_TRUE(rejoined.ok());
  KvStoreServer rejoin_server(rejoined->get());
  ASSERT_TRUE(rejoin_server.Start().ok());
  ShipperOptions ship_options;
  ship_options.standby_port = rejoin_server.port();
  auto failback_shipper = Shipper::Attach(standby_.get(), ship_options);
  ASSERT_NE(failback_shipper, nullptr);
  ASSERT_TRUE(failback_shipper->Drain(5000));

  // The rejoined node holds the full authoritative state — the original
  // cells and the write that landed after the failover — at the promoted
  // node's watermark.
  EXPECT_EQ(rejoin_server.watermark(), standby_->commit_seq());
  EXPECT_GE(failback_shipper->stats().catchup_rounds, 1u);
  EXPECT_GT(failback_shipper->stats().catchup_cells, 0u);
  for (const auto& cell : cells) {
    auto blob = (*rejoined)->Get(cell.key.row, cell.key.family, cell.key.qualifier);
    ASSERT_TRUE(blob.ok()) << cell.key.row;
    EXPECT_EQ(*blob, cell.value);
  }
  auto post = (*rejoined)->Get(serving::UserRowKey(999), streaming::kFamilyRealtime,
                               streaming::kQualWindow);
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(*post, "post-failover");

  failback_shipper->Shutdown();
  EXPECT_TRUE(rejoin_server.Shutdown().ok());
}

TEST_F(FailoverChaosTest, ReplicationMetricsRideTheGatewayStatsFrame) {
  SeedAndReplicateFeatures();
  StartRouter();
  auto ingestor = streaming::Ingestor::Open(failover_.get(), streaming::IngestorOptions());
  ASSERT_TRUE(ingestor.ok());
  ingestor_ = std::move(*ingestor);
  serving::GatewayOptions gateway_options;
  gateway_options.ingestor = ingestor_.get();
  gateway_ = std::make_unique<serving::Gateway>(router_.get(), std::move(gateway_options));
  // The "replication" provider is a Register call at wiring time, like
  // every other stats source: shipper fields, then failover fields.
  gateway_->metrics().Register("replication", [this](net::GatewayStats* stats) {
    shipper_->FillStats(stats);
    failover_->FillStats(stats);
  });
  ASSERT_TRUE(gateway_->Start().ok());

  ASSERT_TRUE(primary_->PutBatch({MakeCell(serving::UserRowKey(77), 1, "metric")}).ok());
  ASSERT_TRUE(shipper_->Drain(5000));
  failover_->ForceFailover();

  serving::GatewayClient client("127.0.0.1", gateway_->port());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->repl_shipped_seq, 0u);
  EXPECT_EQ(stats->repl_acked_seq, stats->repl_shipped_seq);
  EXPECT_EQ(stats->repl_lag, 0u);
  EXPECT_EQ(stats->repl_failovers, 1u);
  failover_->ForceFailback();
}

}  // namespace
}  // namespace titant::replication
