// Pins the bytes of every binary format the project writes: wire frames
// and method payloads, the store's cell record (as the WAL holds it) and
// SSTable files, columnar table blobs, model files and embedding files.
// Each case encodes fixed inputs and compares the result with bytes
// captured from the encoders before they were moved onto common/bytes.h,
// so a writer and a reader that change together cannot pass unnoticed.
// Short payloads are pinned as hex, long ones as size plus FNV-1a hash.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/sstable.h"
#include "kvstore/store.h"
#include "maxcompute/table.h"
#include "ml/decision_tree.h"
#include "ml/discretizer.h"
#include "ml/gbdt.h"
#include "ml/isolation_forest.h"
#include "ml/logistic_regression.h"
#include "ml/model.h"
#include "net/wire.h"
#include "nrl/embedding.h"

namespace titant {
namespace {

namespace fs = std::filesystem;

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

/// "<size>:<FNV-1a 64 of the bytes>", for payloads too long to pin as hex.
std::string Digest(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", bytes.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

std::string ScratchDir(const std::string& tag) {
  const std::string dir = "/tmp/titant_format_" + tag + "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

serving::TransferRequest SampleRequest(uint64_t txn_id) {
  serving::TransferRequest request;
  request.txn_id = txn_id;
  request.from_user = 7;
  request.to_user = 4'000'000'000u;
  request.amount = 1234.56;
  request.day = -3;
  request.second_of_day = 86399;
  request.channel = txn::Channel::kQrCode;
  request.trans_city = 513;
  request.is_new_device = true;
  return request;
}

serving::Verdict SampleVerdict() {
  serving::Verdict verdict;
  verdict.fraud_probability = 0.8125;
  verdict.interrupt = true;
  verdict.degraded = false;
  verdict.latency_us = -42;
  verdict.model_version = 0x0102030405060708ull;
  return verdict;
}

kvstore::Cell SampleCell(std::string row, uint64_t version, std::string value,
                         bool tombstone = false) {
  kvstore::Cell cell;
  cell.key.row = std::move(row);
  cell.key.family = "rt";
  cell.key.qualifier = "win";
  cell.key.version = version;
  cell.value = std::move(value);
  cell.tombstone = tombstone;
  return cell;
}

// ---------------------------------------------------------------------------
// Wire frames and method payloads.

TEST(FormatTest, RequestFrame) {
  std::string out;
  net::EncodeRequestFrameTo(&out, net::kScore, 0x1122334455667788ull, "payload",
                            /*deadline_ms=*/250);
  EXPECT_EQ(Hex(out), "31546954050001008877665544332211fa000000070000007061796c6f6164");
}

TEST(FormatTest, ResponseFrames) {
  std::string ok;
  net::EncodeResponseFrameTo(&ok, net::kScoreBatch, 77, Status::OK(), "body");
  EXPECT_EQ(Hex(ok), "31546954050105004d00000000000000000000000c0000000000000000000000626f6479");
  std::string failed;
  net::EncodeResponseFrameTo(&failed, net::kScore, 78, Status::NotFound("gone"), "ignored");
  EXPECT_EQ(Hex(failed),
            "31546954050101004e00000000000000000000000c0000000200000004000000"
            "676f6e65");
}

TEST(FormatTest, TransferRequestAndVerdict) {
  std::string request;
  net::EncodeTransferRequestTo(&request, SampleRequest(0x1122334455667788ull));
  EXPECT_EQ(Hex(request),
            "88776655443322110700000000286bee0ad7a3703d4a9340fdffffff7f510100"
            "02010201");
  std::string verdict;
  net::EncodeVerdictTo(&verdict, SampleVerdict());
  EXPECT_EQ(Hex(verdict), "000000000000ea3f0100d6ffffffffffffff0807060504030201");
}

TEST(FormatTest, ScoreBatchRequestAndResponse) {
  std::string request;
  net::EncodeScoreBatchRequestTo(&request, {SampleRequest(1), SampleRequest(2)});
  EXPECT_EQ(Hex(request),
            "0200000001000000000000000700000000286bee0ad7a3703d4a9340fdffffff"
            "7f5101000201020102000000000000000700000000286bee0ad7a3703d4a9340"
            "fdffffff7f51010002010201");
  const std::vector<StatusOr<serving::Verdict>> items = {
      SampleVerdict(), StatusOr<serving::Verdict>(Status::Timeout("late"))};
  std::string response;
  net::EncodeScoreBatchResponseTo(&response, items.data(), items.size());
  EXPECT_EQ(Hex(response),
            "020000000000000000000000000000000000ea3f0100d6ffffffffffffff0807"
            "0605040302010a000000040000006c617465");
}

TEST(FormatTest, PutBatch) {
  std::string out;
  net::EncodePutBatchRequestTo(
      &out, {SampleCell("u1", 9, "abc"), SampleCell("u2", 10, "", /*tombstone=*/true)});
  EXPECT_EQ(Hex(out),
            "020000000200000075310200000072740300000077696e090000000000000000"
            "030000006162630200000075320200000072740300000077696e0a0000000000"
            "00000100000000");
}

TEST(FormatTest, ReplAppendAndCatchup) {
  const std::vector<kvstore::Cell> cells = {SampleCell("u1", 9, "abc"),
                                            SampleCell("u2", 10, "", /*tombstone=*/true)};
  const kvstore::Cell* first[] = {&cells[0], &cells[1]};
  const kvstore::Cell* second[] = {&cells[1]};
  std::string records;
  net::EncodeReplRecordTo(&records, first, 2);
  net::EncodeReplRecordTo(&records, second, 1);
  std::string append;
  net::EncodeReplAppendTo(&append, /*first_seq=*/7, /*record_count=*/2, records);
  EXPECT_EQ(Hex(append),
            "0700000000000000020000000200000002000000753102000000727403000000"
            "77696e0900000000000000000300000061626302000000753202000000727403"
            "00000077696e0a00000000000000010000000001000000020000007532020000"
            "0072740300000077696e0a000000000000000100000000");
  std::string catchup;
  net::EncodeReplCatchupTo(&catchup, /*watermark=*/42, /*done=*/true, cells.data(), cells.size());
  EXPECT_EQ(Hex(catchup),
            "2a0000000000000001020000000200000075310200000072740300000077696e"
            "0900000000000000000300000061626302000000753202000000727403000000"
            "77696e0a000000000000000100000000");
}

TEST(FormatTest, HealthLoadModelAndStats) {
  net::HealthInfo info;
  info.num_instances = 3;
  info.healthy_instances = 2;
  info.model_version = 99;
  std::string health;
  net::EncodeHealthInfoTo(&health, info);
  EXPECT_EQ(Hex(health), "03000000020000006300000000000000");
  std::string load_model;
  net::EncodeLoadModelTo(&load_model, 42, "model-blob");
  EXPECT_EQ(Hex(load_model), "2a000000000000006d6f64656c2d626c6f62");

  net::GatewayStats s;
  s.requests_served = 1;
  s.wire_p50_us = 2.5;
  s.wire_p95_us = 3.5;
  s.wire_p99_us = 4.5;
  s.wire_p999_us = 5.5;
  s.wire_max_us = 6.5;
  s.inproc_p50_us = 7.5;
  s.inproc_p99_us = 8.5;
  s.requests_shed = 9;
  s.requests_expired = 10;
  s.degraded_verdicts = 11;
  s.breaker_trips = 12;
  s.open_instances = 13;
  s.coalesced_batches = 14;
  s.coalesced_rows = 15;
  s.puts_applied = 16;
  s.ingest_enqueued = 17;
  s.ingest_shed = 18;
  s.ingest_applied = 19;
  s.ingest_dropped = 20;
  s.counter_cells_published = 21;
  s.aggregator_users = 22;
  s.repl_shipped_seq = 23;
  s.repl_acked_seq = 24;
  s.repl_lag = 25;
  s.repl_failovers = 26;
  s.repl_catchup_cells = 27;
  s.repl_catchup_bytes = 28;
  s.kv_cache_hits = 29;
  s.kv_cache_misses = 30;
  s.kv_cache_bytes = 31;
  s.kv_flushes = 32;
  s.kv_compactions = 33;
  s.kv_compaction_backlog = 34;
  s.kv_maintenance_bytes_written = 35;
  s.kv_stall_us = 36;
  std::string stats;
  net::EncodeGatewayStatsTo(&stats, s);
  EXPECT_EQ(Digest(stats), "288:51764e553e2e77d9");
}

// ---------------------------------------------------------------------------
// The store: one cell record as the WAL frames it, and an SSTable file.

TEST(FormatTest, WalCellRecord) {
  const std::string dir = ScratchDir("wal");
  kvstore::StoreOptions options;
  options.dir = dir;
  options.num_shards = 1;
  options.column_families = {"rt"};
  auto store = kvstore::AliHBase::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->PutBatch({SampleCell("u0000000001", 5, "value-bytes")}).ok());
  EXPECT_EQ(Hex(ReadFile(dir + "/shard-0/wal.log")),
            "34000000303764240b0000007530303030303030303031020000007274030000"
            "0077696e0500000000000000000b00000076616c75652d6279746573");
  store->reset();
  fs::remove_all(dir);
}

TEST(FormatTest, SSTableFile) {
  const std::string dir = ScratchDir("sst");
  std::vector<kvstore::Cell> cells;
  for (int i = 0; i < 6; ++i) {
    cells.push_back(SampleCell("u000000000" + std::to_string(i), 100 - i,
                               std::string(static_cast<std::size_t>(i * 3), 'a' + i),
                               /*tombstone=*/i == 4));
  }
  const std::string path = dir + "/1.sst";
  ASSERT_TRUE(kvstore::SSTable::Write(path, cells).ok());
  EXPECT_EQ(Digest(ReadFile(path)), "426:f66ac0774f8ede87");
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// A columnar table blob with every lane and some nulls.

TEST(FormatTest, TableBlob) {
  using maxcompute::Value;
  using maxcompute::ValueType;
  maxcompute::Table table{maxcompute::Schema({{"i", ValueType::kInt},
                                              {"f", ValueType::kDouble},
                                              {"b", ValueType::kBool},
                                              {"s", ValueType::kString},
                                              {"m", ValueType::kString},
                                              {"e", ValueType::kInt}})};
  ASSERT_TRUE(table
                  .Append({Value(int64_t{-5}), Value(1.25), Value(true), Value(std::string("ab")),
                           Value(int64_t{7}), Value()})
                  .ok());
  ASSERT_TRUE(table
                  .Append({Value(), Value(-0.5), Value(), Value(std::string("")),
                           Value(std::string("mixed")), Value()})
                  .ok());
  ASSERT_TRUE(table
                  .Append({Value(int64_t{1} << 40), Value(), Value(false), Value(),
                           Value(2.5), Value()})
                  .ok());
  ASSERT_TRUE(table
                  .Append({Value(int64_t{0}), Value(3.0), Value(true), Value(std::string("xyz")),
                           Value(), Value()})
                  .ok());
  ASSERT_EQ(table.column_data(0).lane, maxcompute::Table::Lane::kI64);
  ASSERT_EQ(table.column_data(1).lane, maxcompute::Table::Lane::kF64);
  ASSERT_EQ(table.column_data(2).lane, maxcompute::Table::Lane::kBool);
  ASSERT_EQ(table.column_data(3).lane, maxcompute::Table::Lane::kStr);
  ASSERT_EQ(table.column_data(4).lane, maxcompute::Table::Lane::kMixed);
  ASSERT_EQ(table.column_data(5).lane, maxcompute::Table::Lane::kEmpty);
  EXPECT_EQ(Hex(table.Serialize()),
            "5454433206000000010000006901010000006602010000006204010000007303"
            "010000006d0301000000650104000000010102fbffffffffffffff0000000000"
            "00000000000000000100000000000000000000020104000000000000f43f0000"
            "00000000e0bf0000000000000000000000000000084003010201000001040104"
            "0200000002000000020000000500000005000000616278797a05010801070000"
            "000000000003050000006d697865640200000000000004400000010f");
}

// ---------------------------------------------------------------------------
// Model files and the discretizer, trained on small fixed data.

ml::DataMatrix SmallTask() {
  ml::DataMatrix data(240, 4);
  auto& labels = data.mutable_labels();
  labels.resize(data.num_rows());
  uint32_t x = 12345;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    for (int c = 0; c < 4; ++c) {
      x = x * 1103515245u + 12345u;
      data.Set(r, c, static_cast<float>((x >> 8) % 1000) / 1000.0f);
    }
    labels[r] = (data.At(r, 0) > 0.6f && data.At(r, 2) < 0.4f) || data.At(r, 3) > 0.9f ? 1 : 0;
  }
  return data;
}

std::string TrainedBlob(std::unique_ptr<ml::Model> model) {
  const Status trained = model->Train(SmallTask());
  EXPECT_TRUE(trained.ok()) << trained.ToString();
  return ml::SerializeModel(*model);
}

TEST(FormatTest, Discretizer) {
  auto disc = ml::Discretizer::Fit(SmallTask(), /*max_bins=*/6);
  ASSERT_TRUE(disc.ok());
  EXPECT_EQ(Digest(disc->Serialize()), "100:f7ccef43bb04da38");
}

TEST(FormatTest, GbdtModel) {
  ml::GbdtOptions o;
  o.num_trees = 6;
  EXPECT_EQ(Digest(TrainedBlob(std::make_unique<ml::GbdtModel>(o))), "2356:df779f4c48abc92a");
}

TEST(FormatTest, DecisionTreeModel) {
  EXPECT_EQ(Digest(TrainedBlob(ml::MakeC50(/*max_bins=*/8, /*boosting_trials=*/2))),
            "1421:53159b82f2f21d89");
}

TEST(FormatTest, LogisticRegressionModel) {
  EXPECT_EQ(Digest(TrainedBlob(std::make_unique<ml::LogisticRegressionModel>())),
            "8810:ba95dbaed01c9d90");
}

TEST(FormatTest, IsolationForestModel) {
  ml::IsolationForestOptions o;
  o.num_trees = 4;
  o.subsample_size = 64;
  EXPECT_EQ(Digest(TrainedBlob(std::make_unique<ml::IsolationForestModel>(o))),
            "5351:31bc644fc0fb37b2");
}

// ---------------------------------------------------------------------------
// An embedding file.

TEST(FormatTest, EmbeddingBlob) {
  nrl::EmbeddingMatrix m(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    m.Row(i)[0] = static_cast<float>(i) + 0.5f;
    m.Row(i)[1] = -static_cast<float>(i);
  }
  EXPECT_EQ(Hex(m.Serialize()),
            "454e41540300000000000000020000000000003f000000800000c03f000080bf"
            "00002040000000c0");
}

}  // namespace
}  // namespace titant
