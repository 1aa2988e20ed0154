// Tests for the streaming ingestion subsystem: the v4 wire write path
// (the kPutBatch codec under fuzz), the sliding-window Aggregator's
// bucket-boundary expiry, the EventLog's replay/rotation contract, the
// Ingestor's backpressure + crash recovery, and the closed loop end to
// end: scored traffic moves live counters, which move the next verdict.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/model.h"
#include "net/client.h"
#include "net/wire.h"
#include "serving/feature_store.h"
#include "serving/gateway.h"
#include "serving/model_server.h"
#include "serving/router.h"
#include "streaming/aggregator.h"
#include "streaming/event_log.h"
#include "streaming/ingestor.h"

namespace titant::streaming {
namespace {

// ---------------------------------------------------------------------------
// Wire codec: kPutBatch framing and hostile-input fuzz.
// ---------------------------------------------------------------------------

kvstore::Cell MakeCell(const std::string& row, uint64_t version, const std::string& value,
                       bool tombstone = false) {
  kvstore::Cell cell;
  cell.key.row = row;
  cell.key.family = "rt";
  cell.key.qualifier = "win";
  cell.key.version = version;
  cell.value = value;
  cell.tombstone = tombstone;
  return cell;
}

std::string PutBatchPayload(const std::vector<kvstore::Cell>& cells) {
  std::string payload;
  net::EncodePutBatchRequestTo(&payload, cells);
  return payload;
}

// A single put is a kPutBatch of one cell.
TEST(PutWireTest, OneCellPutBatchRoundTrips) {
  const kvstore::Cell cell = MakeCell("u0000000042", 7, std::string("\x01\x02\x00\xff", 4), true);
  const std::string payload = PutBatchPayload({cell});
  std::vector<kvstore::Cell> decoded;
  ASSERT_TRUE(net::DecodePutBatchRequest(payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].key.row, cell.key.row);
  EXPECT_EQ(decoded[0].key.family, cell.key.family);
  EXPECT_EQ(decoded[0].key.qualifier, cell.key.qualifier);
  EXPECT_EQ(decoded[0].key.version, cell.key.version);
  EXPECT_EQ(decoded[0].value, cell.value);
  EXPECT_EQ(decoded[0].tombstone, cell.tombstone);
}

TEST(PutWireTest, OneCellPutBatchRejectsEveryTruncation) {
  const std::string payload = PutBatchPayload({MakeCell("u0000000001", 3, "value-bytes")});
  std::vector<kvstore::Cell> decoded;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        net::DecodePutBatchRequest(std::string_view(payload).substr(0, len), &decoded).ok())
        << "truncated prefix of " << len << " bytes decoded";
  }
  EXPECT_TRUE(net::DecodePutBatchRequest(payload, &decoded).ok());
}

TEST(PutWireTest, OneCellPutBatchRejectsTrailingJunkAndEmptyKeys) {
  const std::string payload = PutBatchPayload({MakeCell("u0000000001", 3, "v")});
  std::vector<kvstore::Cell> decoded;
  EXPECT_FALSE(net::DecodePutBatchRequest(payload + "x", &decoded).ok());
  EXPECT_FALSE(net::DecodePutBatchRequest(PutBatchPayload({MakeCell("", 1, "v")}), &decoded).ok());
  kvstore::Cell no_family = MakeCell("row", 1, "v");
  no_family.key.family.clear();
  EXPECT_FALSE(net::DecodePutBatchRequest(PutBatchPayload({no_family}), &decoded).ok());
}

TEST(PutWireTest, PutBatchDecodesIntoReusedSlots) {
  // The gateway decodes every kPutBatch into one per-reactor vector: the
  // slots it already holds are overwritten in place, so the values' heap
  // buffers are reused instead of reallocated.
  std::vector<kvstore::Cell> decoded;
  ASSERT_TRUE(net::DecodePutBatchRequest(
                  PutBatchPayload({MakeCell("u0000000001", 1, std::string(64, 'a'))}), &decoded)
                  .ok());
  const char* buffer = decoded[0].value.data();
  ASSERT_TRUE(net::DecodePutBatchRequest(
                  PutBatchPayload({MakeCell("u0000000002", 2, std::string(48, 'b'))}), &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].key.row, "u0000000002");
  EXPECT_EQ(decoded[0].value, std::string(48, 'b'));
  EXPECT_EQ(decoded[0].value.data(), buffer);
}

TEST(PutWireTest, PutBatchRoundTripsAndRejectsEveryTruncation) {
  std::vector<kvstore::Cell> cells = {MakeCell("u0000000001", 1, "aaaa"),
                                      MakeCell("u0000000002", 2, "", true),
                                      MakeCell("u0000000003", 3, std::string(64, 'z'))};
  const std::string payload = PutBatchPayload(cells);
  std::vector<kvstore::Cell> decoded;
  ASSERT_TRUE(net::DecodePutBatchRequest(payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(decoded[i].key.row, cells[i].key.row);
    EXPECT_EQ(decoded[i].key.version, cells[i].key.version);
    EXPECT_EQ(decoded[i].value, cells[i].value);
    EXPECT_EQ(decoded[i].tombstone, cells[i].tombstone);
  }
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        net::DecodePutBatchRequest(std::string_view(payload).substr(0, len), &decoded).ok())
        << "truncated prefix of " << len << " bytes decoded";
  }
  EXPECT_FALSE(net::DecodePutBatchRequest(payload + "?", &decoded).ok());
}

TEST(PutWireTest, PutBatchRejectsHostileCountsBeforeAllocating) {
  std::vector<kvstore::Cell> decoded;
  // A tiny payload claiming 4096 items must be refused by arithmetic on
  // the declared size, not by walking (and allocating for) 4096 items.
  std::string hostile(4, '\0');
  const uint32_t huge = net::kMaxBatchItems;
  std::memcpy(hostile.data(), &huge, 4);
  hostile += "just a few bytes";
  auto status = net::DecodePutBatchRequest(hostile, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // Over the cap is refused outright.
  std::string over(4, '\0');
  const uint32_t too_many = net::kMaxBatchItems + 1;
  std::memcpy(over.data(), &too_many, 4);
  over.append(static_cast<std::size_t>(too_many) * kvstore::kCellMinBytes, '\0');
  EXPECT_EQ(net::DecodePutBatchRequest(over, &decoded).code(), StatusCode::kInvalidArgument);

  // An empty batch is a protocol error, same as kScoreBatch.
  std::string empty(4, '\0');
  EXPECT_EQ(net::DecodePutBatchRequest(empty, &decoded).code(), StatusCode::kInvalidArgument);
}

TEST(PutWireTest, CheckBatchItemCountSharedValidator) {
  // Fixed-width (kScoreBatch): the payload must match exactly.
  EXPECT_TRUE(net::CheckBatchItemCount("batch", 3, 3 * 36, 36, /*fixed_width=*/true).ok());
  EXPECT_FALSE(net::CheckBatchItemCount("batch", 3, 3 * 36 + 1, 36, true).ok());
  EXPECT_FALSE(net::CheckBatchItemCount("batch", 3, 2 * 36, 36, true).ok());
  // Variable-width (kPutBatch): the payload must carry at least the
  // per-item floor; more is fine (strings grow items past the floor).
  EXPECT_TRUE(net::CheckBatchItemCount("batch", 2, 2 * 25 + 40, 25, /*fixed_width=*/false).ok());
  EXPECT_FALSE(net::CheckBatchItemCount("batch", 2, 2 * 25 - 1, 25, false).ok());
  // Zero and cap breaches fail regardless of width mode.
  EXPECT_FALSE(net::CheckBatchItemCount("batch", 0, 0, 36, true).ok());
  EXPECT_FALSE(
      net::CheckBatchItemCount("batch", net::kMaxBatchItems + 1, 1 << 20, 1, false).ok());
}

TEST(PutWireTest, GatewayStatsRoundTripsStreamingFields) {
  net::GatewayStats stats;
  stats.requests_served = 11;
  stats.puts_applied = 5;
  stats.ingest_enqueued = 100;
  stats.ingest_shed = 3;
  stats.ingest_applied = 95;
  stats.ingest_dropped = 2;
  stats.counter_cells_published = 40;
  stats.aggregator_users = 7;
  net::GatewayStats decoded;
  std::string payload;
  net::EncodeGatewayStatsTo(&payload, stats);
  ASSERT_TRUE(net::DecodeGatewayStats(payload, &decoded).ok());
  EXPECT_EQ(decoded.puts_applied, 5u);
  EXPECT_EQ(decoded.ingest_enqueued, 100u);
  EXPECT_EQ(decoded.ingest_shed, 3u);
  EXPECT_EQ(decoded.ingest_applied, 95u);
  EXPECT_EQ(decoded.ingest_dropped, 2u);
  EXPECT_EQ(decoded.counter_cells_published, 40u);
  EXPECT_EQ(decoded.aggregator_users, 7u);
}

// ---------------------------------------------------------------------------
// Aggregator: sliding-window semantics at bucket boundaries.
// ---------------------------------------------------------------------------

serving::TransferRequest Event(txn::UserId from, txn::UserId to, double amount, int64_t at_s) {
  serving::TransferRequest request;
  request.txn_id = static_cast<uint64_t>(at_s);
  request.from_user = from;
  request.to_user = to;
  request.amount = amount;
  request.day = static_cast<txn::Day>(at_s / 86400);
  request.second_of_day = static_cast<int32_t>(at_s % 86400);
  return request;
}

TEST(AggregatorTest, CountsAmountsAndDistinctPerWindow) {
  Aggregator agg;
  const int64_t t0 = 100 * 86400;
  // Three transfers inside one hour, to two distinct payees.
  EXPECT_TRUE(agg.Apply(Event(1, 2, 10.0, t0)));
  EXPECT_TRUE(agg.Apply(Event(1, 2, 20.0, t0 + 600)));
  EXPECT_TRUE(agg.Apply(Event(1, 3, 30.0, t0 + 1200)));
  LiveCounters counters;
  ASSERT_TRUE(agg.Query(1, t0 + 1200, &counters));
  for (int w = 0; w < kNumWindows; ++w) {
    EXPECT_EQ(counters.window[w].count, 3u) << "window " << w;
    EXPECT_DOUBLE_EQ(counters.window[w].amount_sum, 60.0) << "window " << w;
    EXPECT_EQ(counters.window[w].distinct_merchants, 2u) << "window " << w;
  }
  EXPECT_EQ(counters.last_event_s, t0 + 1200);
  EXPECT_FALSE(agg.Query(999, t0, &counters));  // Unknown user: no state.
  const auto stats = agg.stats();
  EXPECT_EQ(stats.events_applied, 3u);
  EXPECT_EQ(stats.active_users, 1u);
}

TEST(AggregatorTest, WindowExpiryIsExactAtBucketBoundaries) {
  Aggregator agg;
  // Land one event exactly on a 1h-sub-bucket boundary (300s width).
  const int64_t t0 = 50 * 86400;  // Divisible by every bucket width.
  ASSERT_TRUE(agg.Apply(Event(1, 2, 42.0, t0)));
  LiveCounters counters;

  // One second before the 1h window closes: still counted.
  ASSERT_TRUE(agg.Query(1, t0 + 3600 - 1, &counters));
  EXPECT_EQ(counters.window[0].count, 1u);
  EXPECT_DOUBLE_EQ(counters.window[0].amount_sum, 42.0);

  // At exactly +3600 the event's bucket is 12 bucket-widths behind the
  // head bucket: evicted from the 1h ring, still live in 6h and 24h.
  ASSERT_TRUE(agg.Query(1, t0 + 3600, &counters));
  EXPECT_EQ(counters.window[0].count, 0u);
  EXPECT_DOUBLE_EQ(counters.window[0].amount_sum, 0.0);
  EXPECT_EQ(counters.window[0].distinct_merchants, 0u);
  EXPECT_EQ(counters.window[1].count, 1u);
  EXPECT_EQ(counters.window[2].count, 1u);

  // Same boundary for the 6h window (bucket width 1800s)...
  ASSERT_TRUE(agg.Query(1, t0 + 21600 - 1, &counters));
  EXPECT_EQ(counters.window[1].count, 1u);
  ASSERT_TRUE(agg.Query(1, t0 + 21600, &counters));
  EXPECT_EQ(counters.window[1].count, 0u);
  EXPECT_EQ(counters.window[2].count, 1u);

  // ...and the 24h window (bucket width 7200s).
  ASSERT_TRUE(agg.Query(1, t0 + 86400 - 1, &counters));
  EXPECT_EQ(counters.window[2].count, 1u);
  ASSERT_TRUE(agg.Query(1, t0 + 86400, &counters));
  EXPECT_EQ(counters.window[2].count, 0u);
  // The user still has state (last_event stamp survives expiry).
  EXPECT_EQ(counters.last_event_s, t0);
}

TEST(AggregatorTest, ExpiryEvictsOnlyTheOldBucketNotTheWindow) {
  Aggregator agg;
  const int64_t t0 = 10 * 86400;
  // Two events 30 minutes apart: when the first falls out of the 1h
  // window, the second must remain.
  ASSERT_TRUE(agg.Apply(Event(1, 2, 5.0, t0)));
  ASSERT_TRUE(agg.Apply(Event(1, 3, 7.0, t0 + 1800)));
  LiveCounters counters;
  ASSERT_TRUE(agg.Query(1, t0 + 3600, &counters));  // First just expired.
  EXPECT_EQ(counters.window[0].count, 1u);
  EXPECT_DOUBLE_EQ(counters.window[0].amount_sum, 7.0);
  EXPECT_EQ(counters.window[0].distinct_merchants, 1u);
  ASSERT_TRUE(agg.Query(1, t0 + 1800 + 3600, &counters));  // Both expired.
  EXPECT_EQ(counters.window[0].count, 0u);
}

TEST(AggregatorTest, OutOfOrderWithinTheRingLandsLateIsDropped) {
  Aggregator agg;
  const int64_t t0 = 20 * 86400;
  ASSERT_TRUE(agg.Apply(Event(1, 2, 1.0, t0 + 3000)));
  // 50 minutes older but inside every ring: lands in its own bucket.
  ASSERT_TRUE(agg.Apply(Event(1, 2, 2.0, t0)));
  LiveCounters counters;
  ASSERT_TRUE(agg.Query(1, t0 + 3000, &counters));
  EXPECT_EQ(counters.window[0].count, 2u);
  EXPECT_DOUBLE_EQ(counters.window[0].amount_sum, 3.0);

  // Older than every window: dropped and counted late.
  EXPECT_FALSE(agg.Apply(Event(1, 2, 9.0, t0 - 2 * 86400)));
  EXPECT_EQ(agg.stats().events_late, 1u);
  ASSERT_TRUE(agg.Query(1, t0 + 3000, &counters));
  EXPECT_EQ(counters.window[2].count, 2u);  // Unchanged.
}

TEST(AggregatorTest, LongGapResetsTheRingWholesale) {
  Aggregator agg;
  const int64_t t0 = 30 * 86400;
  ASSERT_TRUE(agg.Apply(Event(1, 2, 10.0, t0)));
  // A week of silence: every window must read empty, then accept fresh
  // events cleanly (wholesale ring reset, no stale totals).
  const int64_t later = t0 + 7 * 86400;
  ASSERT_TRUE(agg.Apply(Event(1, 3, 20.0, later)));
  LiveCounters counters;
  ASSERT_TRUE(agg.Query(1, later, &counters));
  for (int w = 0; w < kNumWindows; ++w) {
    EXPECT_EQ(counters.window[w].count, 1u) << "window " << w;
    EXPECT_DOUBLE_EQ(counters.window[w].amount_sum, 20.0) << "window " << w;
  }
}

TEST(AggregatorTest, DistinctMerchantsDedupeAndSaturate) {
  Aggregator agg;
  const int64_t t0 = 40 * 86400;
  // The same payee five times is one distinct merchant.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(agg.Apply(Event(1, 77, 1.0, t0 + i)));
  }
  LiveCounters counters;
  ASSERT_TRUE(agg.Query(1, t0 + 10, &counters));
  EXPECT_EQ(counters.window[0].distinct_merchants, 1u);

  // Fanning wider than one bucket's slots saturates (lower bound), never
  // grows without bound: all in one sub-bucket => capped at slot count.
  for (txn::UserId payee = 100; payee < 100 + 2 * kMerchantSlots; ++payee) {
    ASSERT_TRUE(agg.Apply(Event(2, payee, 1.0, t0)));
  }
  ASSERT_TRUE(agg.Query(2, t0 + 10, &counters));
  EXPECT_EQ(counters.window[0].distinct_merchants, static_cast<uint32_t>(kMerchantSlots));
  EXPECT_EQ(counters.window[0].count, static_cast<uint32_t>(2 * kMerchantSlots));
}

TEST(AggregatorTest, EncodeCountersLayout) {
  LiveCounters counters;
  counters.window[0] = {2, 25.5, 1};
  counters.window[1] = {4, 50.0, 2};
  counters.window[2] = {8, 100.0, 3};
  counters.last_event_s = 100 * 86400 + 43'200;
  float out[kCounterFloats] = {};
  Aggregator::EncodeCounters(counters, out);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 25.5f);
  EXPECT_FLOAT_EQ(out[2], 1.0f);
  EXPECT_FLOAT_EQ(out[6], 8.0f);
  EXPECT_FLOAT_EQ(out[7], 100.0f);
  EXPECT_FLOAT_EQ(out[8], 3.0f);
  EXPECT_FLOAT_EQ(out[9], 100.0f);     // Day index.
  EXPECT_FLOAT_EQ(out[10], 43'200.0f);  // Second of day.

  LiveCounters never;
  Aggregator::EncodeCounters(never, out);
  EXPECT_FLOAT_EQ(out[9], -1.0f);  // Sentinel: no event yet.
}

// ---------------------------------------------------------------------------
// EventLog: replay equality, torn tails, rotation.
// ---------------------------------------------------------------------------

std::string TempPrefix(const std::string& name) {
  return ::testing::TempDir() + "titant_streaming_" + name;
}

void RemoveLog(const std::string& prefix) {
  std::remove((prefix + ".cur").c_str());
  std::remove((prefix + ".prev").c_str());
}

TEST(EventLogTest, AppendThenReplayReproducesEveryEvent) {
  const std::string prefix = TempPrefix("replay");
  RemoveLog(prefix);
  EventLogOptions options;
  options.path_prefix = prefix;
  {
    auto log = EventLog::Open(options);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*log)->Append(Event(1, 2, 10.0 + i, 86400 + i * 60)).ok());
    }
    EXPECT_EQ((*log)->current_records(), 5u);
  }
  auto reopened = EventLog::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->current_records(), 5u);  // Sized from disk.
  std::vector<serving::TransferRequest> replayed;
  ASSERT_TRUE(
      (*reopened)->Replay([&](const serving::TransferRequest& e) { replayed.push_back(e); }).ok());
  ASSERT_EQ(replayed.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(replayed[i].amount, 10.0 + i);
    EXPECT_EQ(replayed[i].second_of_day, i * 60);
  }
  RemoveLog(prefix);
}

TEST(EventLogTest, TornTailEndsReplayCleanly) {
  const std::string prefix = TempPrefix("torn");
  RemoveLog(prefix);
  EventLogOptions options;
  options.path_prefix = prefix;
  {
    auto log = EventLog::Open(options);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*log)->Append(Event(1, 2, 1.0, 86400 + i)).ok());
    }
  }
  {
    // Simulate a crash mid-append: half a record at the tail.
    std::FILE* f = std::fopen((prefix + ".cur").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[17] = "torn-record-tail";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  auto log = EventLog::Open(options);
  ASSERT_TRUE(log.ok());
  int replayed = 0;
  ASSERT_TRUE((*log)->Replay([&](const serving::TransferRequest&) { ++replayed; }).ok());
  EXPECT_EQ(replayed, 3);
  RemoveLog(prefix);
}

TEST(EventLogTest, AppendAfterTornTailStaysReplayable) {
  const std::string prefix = TempPrefix("torn_append");
  RemoveLog(prefix);
  EventLogOptions options;
  options.path_prefix = prefix;
  {
    auto log = EventLog::Open(options);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*log)->Append(Event(1, 2, 1.0 + i, 86400 + i)).ok());
    }
  }
  {
    // Crash mid-append: half a record at the tail.
    std::FILE* f = std::fopen((prefix + ".cur").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[17] = "torn-record-tail";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  {
    // Recovery truncates the torn tail, so the post-recovery append
    // lands on a record boundary instead of after the garbage.
    auto log = EventLog::Open(options);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->current_records(), 3u);
    ASSERT_TRUE((*log)->Append(Event(1, 2, 50.0, 86400 + 10)).ok());
  }
  // The next restart replays everything acknowledged after recovery —
  // without the truncation the torn tail would end replay at record 3
  // and strand the fourth event forever.
  auto log = EventLog::Open(options);
  ASSERT_TRUE(log.ok());
  std::vector<double> amounts;
  ASSERT_TRUE(
      (*log)->Replay([&](const serving::TransferRequest& e) { amounts.push_back(e.amount); }).ok());
  ASSERT_EQ(amounts.size(), 4u);
  EXPECT_DOUBLE_EQ(amounts.back(), 50.0);
  RemoveLog(prefix);
}

// Every single-bit flip of one record, in its length, CRC or payload,
// ends replay before that record: a flipped transfer is never replayed as
// a different one. Recovery truncates at the bad record, so an event
// appended afterwards replays right after the intact prefix.
TEST(EventLogTest, BitFlipInARecordReplaysOnlyTheIntactPrefix) {
  const std::string prefix = TempPrefix("bitflip");
  const std::string path = prefix + ".cur";
  RemoveLog(prefix);
  EventLogOptions options;
  options.path_prefix = prefix;
  constexpr std::size_t kEvents = 4;
  constexpr std::size_t kFlipped = 2;  // Records 0 and 1 stay intact.
  {
    auto log = EventLog::Open(options);
    ASSERT_TRUE(log.ok());
    for (std::size_t i = 0; i < kEvents; ++i) {
      ASSERT_TRUE((*log)->Append(Event(1, 2, 10.0 + i, 86400 + i)).ok());
    }
  }
  std::string original;
  {
    std::ifstream in(path, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(original.size() % kEvents, 0u);
  const std::size_t record = original.size() / kEvents;
  const auto replay_amounts = [&options] {
    std::vector<double> amounts;
    auto log = EventLog::Open(options);
    EXPECT_TRUE(log.ok());
    if (!log.ok()) return amounts;
    const auto collect = [&](const serving::TransferRequest& e) { amounts.push_back(e.amount); };
    EXPECT_TRUE((*log)->Replay(collect).ok());
    EXPECT_TRUE((*log)->Append(Event(1, 2, 99.0, 86400 + 99)).ok());
    return amounts;
  };
  for (std::size_t bit = 0; bit < record * 8; ++bit) {
    std::string damaged = original;
    damaged[kFlipped * record + bit / 8] ^= static_cast<char>(1 << (bit % 8));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << damaged;
    ASSERT_EQ(replay_amounts(), (std::vector<double>{10.0, 11.0})) << "flipped bit " << bit;
    ASSERT_EQ(replay_amounts(), (std::vector<double>{10.0, 11.0, 99.0})) << "flipped bit " << bit;
  }
  RemoveLog(prefix);
}

TEST(EventLogTest, RotationKeepsTheLastTwoSegments) {
  const std::string prefix = TempPrefix("rotate");
  RemoveLog(prefix);
  EventLogOptions options;
  options.path_prefix = prefix;
  options.rotate_records = 2;
  auto log = EventLog::Open(options);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*log)->Append(Event(1, 2, 100.0 + i, 86400 + i)).ok());
  }
  ASSERT_TRUE((*log)->Flush().ok());  // Commits append 5, still buffered in .cur.
  // Appends 1,2 retired to .prev by append 3's rotation; 3,4 retired (and
  // 1,2 deleted) by append 5's. Replay = events 3,4 (prev) then 5 (cur).
  std::vector<double> amounts;
  ASSERT_TRUE(
      (*log)->Replay([&](const serving::TransferRequest& e) { amounts.push_back(e.amount); }).ok());
  ASSERT_EQ(amounts.size(), 3u);
  EXPECT_DOUBLE_EQ(amounts[0], 102.0);
  EXPECT_DOUBLE_EQ(amounts[1], 103.0);
  EXPECT_DOUBLE_EQ(amounts[2], 104.0);
  RemoveLog(prefix);
}

// ---------------------------------------------------------------------------
// Ingestor: queue semantics, publishing, failpoints, crash recovery.
// ---------------------------------------------------------------------------

class IngestorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::DisarmAll();
    auto options = serving::FeatureTableOptions();
    options.durable = false;
    auto store = kvstore::AliHBase::Open(std::move(options));
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }
  void TearDown() override { Failpoints::DisarmAll(); }

  /// Reads user 1's published "rt"/"win" cell back out of the store.
  void ReadPublishedCounters(txn::UserId user, float out[kCounterFloats]) {
    char row[16];
    std::snprintf(row, sizeof(row), "u%010u", user);
    auto blob = store_->Get(row, kFamilyRealtime, kQualWindow);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    ASSERT_TRUE(serving::DecodeFloats(*blob, kCounterFloats, out).ok());
  }

  std::unique_ptr<kvstore::AliHBase> store_;
};

TEST_F(IngestorTest, SubmitDrainPublishesLiveCounters) {
  IngestorOptions options;
  auto ingestor = Ingestor::Open(store_.get(), options);
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  const int64_t t0 = 100 * 86400;
  for (int i = 0; i < 30; ++i) {
    (*ingestor)->Submit(Event(1, 2 + (i % 3), 10.0, t0 + i * 60));
  }
  (*ingestor)->Drain();
  const auto stats = (*ingestor)->stats();
  EXPECT_EQ(stats.enqueued, 30u);
  EXPECT_EQ(stats.applied, 30u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GE(stats.counter_cells_published, 1u);

  float counters[kCounterFloats] = {};
  ReadPublishedCounters(1, counters);
  EXPECT_FLOAT_EQ(counters[0], 30.0f);   // 1h count.
  EXPECT_FLOAT_EQ(counters[1], 300.0f);  // 1h amount sum.
  EXPECT_FLOAT_EQ(counters[2], 3.0f);    // 1h distinct payees.
  EXPECT_FLOAT_EQ(counters[6], 30.0f);   // 24h count.
  EXPECT_FLOAT_EQ(counters[9], 100.0f);  // Last event day.
  ASSERT_TRUE((*ingestor)->Shutdown().ok());
}

TEST_F(IngestorTest, OverflowShedsOldestNeverBlocks) {
  IngestorOptions options;
  options.queue_capacity = 4;
  options.drain_batch = 1;
  auto ingestor = Ingestor::Open(store_.get(), options);
  ASSERT_TRUE(ingestor.ok());
  // Stall the worker 20ms per event so the submit loop laps the queue.
  ASSERT_TRUE(Failpoints::ArmFromSpec("streaming.ingest,delay:20").ok());
  const int64_t t0 = 100 * 86400;
  for (int i = 0; i < 40; ++i) {
    (*ingestor)->Submit(Event(1, 2, 1.0, t0 + i));
  }
  (*ingestor)->Drain();
  Failpoints::DisarmAll();
  const auto stats = (*ingestor)->stats();
  EXPECT_EQ(stats.enqueued, 40u);
  EXPECT_GT(stats.shed, 0u);                       // Backpressure fired.
  EXPECT_EQ(stats.applied + stats.shed, 40u);      // Nothing lost silently.
  ASSERT_TRUE((*ingestor)->Shutdown().ok());
}

TEST_F(IngestorTest, IngestFailpointDropsAreCounted) {
  auto ingestor = Ingestor::Open(store_.get(), IngestorOptions());
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE(Failpoints::ArmFromSpec("streaming.ingest,error:Unavailable,hits:5").ok());
  const int64_t t0 = 100 * 86400;
  for (int i = 0; i < 10; ++i) {
    (*ingestor)->Submit(Event(1, 2, 1.0, t0 + i));
  }
  (*ingestor)->Drain();
  const auto stats = (*ingestor)->stats();
  EXPECT_EQ(stats.dropped, 5u);
  EXPECT_EQ(stats.applied, 5u);
  ASSERT_TRUE((*ingestor)->Shutdown().ok());
}

TEST_F(IngestorTest, PutCellsWritesThroughAndHonorsFailpoint) {
  auto ingestor = Ingestor::Open(store_.get(), IngestorOptions());
  ASSERT_TRUE(ingestor.ok());
  const float values[2] = {1.0f, 2.0f};
  std::vector<kvstore::Cell> cells = {
      MakeCell("u0000000009", 1, serving::EncodeFloats(values, 2))};
  ASSERT_TRUE((*ingestor)->PutCells(cells).ok());
  auto blob = store_->Get("u0000000009", "rt", "win");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, cells[0].value);
  EXPECT_EQ((*ingestor)->stats().put_cells, 1u);

  ASSERT_TRUE(Failpoints::ArmFromSpec("streaming.put,error:Unavailable").ok());
  EXPECT_EQ((*ingestor)->PutCells(cells).code(), StatusCode::kUnavailable);
  ASSERT_TRUE((*ingestor)->Shutdown().ok());
}

TEST_F(IngestorTest, RestartPublishesOutrankStaleStoreCells) {
  const int64_t t0 = 100 * 86400;
  IngestorOptions options;
  options.publish_interval_ms = 0;  // Publish after every drained batch.
  {
    auto first = Ingestor::Open(store_.get(), options);
    ASSERT_TRUE(first.ok());
    // Three separate publishes advance the first instance's version
    // sequence well past a fresh sequence's first value.
    for (int i = 0; i < 3; ++i) {
      (*first)->Submit(Event(1, 2, 10.0, t0 + i * 60));
      (*first)->Drain();
    }
    ASSERT_TRUE((*first)->Shutdown().ok());
  }
  // Restart with no event log: the new aggregator starts empty, so its
  // published count is lower — but newer, and the read path returns the
  // newest version. A version sequence restarting at 0 would lose to
  // the stale cells above until it caught up.
  auto second = Ingestor::Open(store_.get(), options);
  ASSERT_TRUE(second.ok());
  (*second)->Submit(Event(1, 2, 10.0, t0 + 3600));
  (*second)->Drain();
  float published[kCounterFloats] = {};
  ReadPublishedCounters(1, published);
  EXPECT_FLOAT_EQ(published[0], 1.0f);  // The restart's count, not the stale 3.
  ASSERT_TRUE((*second)->Shutdown().ok());
}

TEST_F(IngestorTest, CrashRecoveryReplaysExactlyOnce) {
  const std::string prefix = TempPrefix("recovery");
  RemoveLog(prefix);
  IngestorOptions options;
  options.event_log_path = prefix;
  const int64_t t0 = 100 * 86400;

  LiveCounters before;
  {
    auto ingestor = Ingestor::Open(store_.get(), options);
    ASSERT_TRUE(ingestor.ok());
    for (int i = 0; i < 20; ++i) {
      (*ingestor)->Submit(Event(1, 2 + (i % 4), 5.0, t0 + i * 30));
    }
    (*ingestor)->Drain();
    ASSERT_TRUE((*ingestor)->aggregator().Query(1, t0 + 600, &before));
    // "Crash": the Ingestor goes away; the log and store survive.
    ASSERT_TRUE((*ingestor)->Shutdown().ok());
  }

  auto recovered = Ingestor::Open(store_.get(), options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->stats().recovered, 20u);
  LiveCounters after;
  ASSERT_TRUE((*recovered)->aggregator().Query(1, t0 + 600, &after));
  // Exactly-once per window: recovery reproduces the pre-crash counters,
  // neither losing events nor double-counting them.
  for (int w = 0; w < kNumWindows; ++w) {
    EXPECT_EQ(after.window[w].count, before.window[w].count) << "window " << w;
    EXPECT_DOUBLE_EQ(after.window[w].amount_sum, before.window[w].amount_sum) << "window " << w;
    EXPECT_EQ(after.window[w].distinct_merchants, before.window[w].distinct_merchants);
  }
  EXPECT_EQ(after.last_event_s, before.last_event_s);
  EXPECT_EQ(after.window[0].count, 20u);  // And they are the real counts.

  // Recovery also republished the counters to the store.
  float published[kCounterFloats] = {};
  ReadPublishedCounters(1, published);
  EXPECT_FLOAT_EQ(published[6], 20.0f);
  ASSERT_TRUE((*recovered)->Shutdown().ok());
  RemoveLog(prefix);
}

TEST_F(IngestorTest, DedupDropsReplayedTxnIdsAcrossRestart) {
  const std::string prefix = TempPrefix("dedup");
  RemoveLog(prefix);
  IngestorOptions options;
  options.event_log_path = prefix;
  const int64_t t0 = 100 * 86400;
  {
    auto ingestor = Ingestor::Open(store_.get(), options);
    ASSERT_TRUE(ingestor.ok());
    (*ingestor)->Submit(Event(1, 2, 5.0, t0));
    (*ingestor)->Submit(Event(1, 3, 5.0, t0 + 60));
    // A wire retry folds the same txn back in: dropped, not double-counted
    // (Submit is the one non-idempotent write path — a replayed put only
    // rewrites the same cell, but a replayed Submit would bump windows).
    (*ingestor)->Submit(Event(1, 2, 5.0, t0));
    (*ingestor)->Drain();
    const auto stats = (*ingestor)->stats();
    EXPECT_EQ(stats.deduped, 1u);
    EXPECT_EQ(stats.applied, 2u);
    ASSERT_TRUE((*ingestor)->Shutdown().ok());
  }
  // Restart reseeds the ring from event-log replay, so a retry that
  // arrives after the crash still folds once instead of double-counting
  // into the recovered windows.
  auto recovered = Ingestor::Open(store_.get(), options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->stats().recovered, 2u);
  (*recovered)->Submit(Event(1, 2, 5.0, t0));  // The post-crash retry.
  (*recovered)->Drain();
  EXPECT_EQ((*recovered)->stats().deduped, 1u);
  LiveCounters counters;
  ASSERT_TRUE((*recovered)->aggregator().Query(1, t0 + 600, &counters));
  EXPECT_EQ(counters.window[0].count, 2u);  // Not 3: the retry never lands.
  ASSERT_TRUE((*recovered)->Shutdown().ok());
  RemoveLog(prefix);
}

TEST_F(IngestorTest, DedupRingIsBoundedAndEvictsOldest) {
  IngestorOptions options;
  options.dedup_capacity = 2;
  auto ingestor = Ingestor::Open(store_.get(), options);
  ASSERT_TRUE(ingestor.ok());
  const int64_t t0 = 100 * 86400;
  (*ingestor)->Submit(Event(1, 2, 1.0, t0));
  (*ingestor)->Submit(Event(1, 2, 1.0, t0 + 1));
  (*ingestor)->Submit(Event(1, 2, 1.0, t0 + 2));  // Evicts t0 from the ring.
  (*ingestor)->Submit(Event(1, 2, 1.0, t0));      // Forgotten: applies again.
  (*ingestor)->Submit(Event(1, 2, 1.0, t0 + 2));  // Remembered: drops.
  (*ingestor)->Drain();
  const auto stats = (*ingestor)->stats();
  EXPECT_EQ(stats.deduped, 1u);
  EXPECT_EQ(stats.applied, 4u);
  ASSERT_TRUE((*ingestor)->Shutdown().ok());
}

// ---------------------------------------------------------------------------
// End to end: gateway puts, scored-traffic ingestion, live-counter scoring.
// ---------------------------------------------------------------------------

class StreamingGatewayTest : public ::testing::Test {
 protected:
  static constexpr int kWidth = 84;  // 52 basic + 32 embedding.

  void SetUp() override {
    Failpoints::DisarmAll();
    auto store_options = serving::FeatureTableOptions();
    store_options.durable = false;
    auto store = kvstore::AliHBase::Open(std::move(store_options));
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);

    std::vector<float> snapshot(52, 0.5f);
    std::vector<float> aux = {14.0f, 80.0f};
    std::vector<float> embedding(32, 0.25f);
    ASSERT_TRUE(store_
                    ->Put(serving::UserRowKey(1), serving::kFamilyBasic, serving::kQualSnapshot,
                          serving::EncodeFloats(snapshot.data(), snapshot.size()), 1)
                    .ok());
    ASSERT_TRUE(store_
                    ->Put(serving::UserRowKey(1), serving::kFamilyBasic, serving::kQualAux,
                          serving::EncodeFloats(aux.data(), aux.size()), 1)
                    .ok());
    ASSERT_TRUE(store_
                    ->Put(serving::UserRowKey(2), serving::kFamilyEmbedding, serving::kQualVector,
                          serving::EncodeFloats(embedding.data(), embedding.size()), 1)
                    .ok());
  }

  void TearDown() override {
    Failpoints::DisarmAll();
    if (gateway_ != nullptr) {
      EXPECT_TRUE(gateway_->Shutdown().ok());
    }
    if (ingestor_ != nullptr) {
      EXPECT_TRUE(ingestor_->Shutdown().ok());
    }
  }

  void StartGateway(const std::string& model_blob, bool with_ingestor) {
    if (with_ingestor) {
      auto ingestor = Ingestor::Open(store_.get(), IngestorOptions());
      ASSERT_TRUE(ingestor.ok());
      ingestor_ = std::move(*ingestor);
    }
    router_ = std::make_unique<serving::ModelServerRouter>(
        store_.get(), serving::ModelServerOptions(), /*num_instances=*/2);
    ASSERT_TRUE(router_->LoadModel(model_blob, 1).ok());
    serving::GatewayOptions options;
    options.ingestor = ingestor_.get();
    gateway_ = std::make_unique<serving::Gateway>(router_.get(), std::move(options));
    ASSERT_TRUE(gateway_->Start().ok());
  }

  /// A model keyed off nothing but cnt_today — the 24h live txn count — so
  /// the verdict can only move when streaming counters move.
  static std::string VelocityModelBlob() {
    // 40 rows so the root clears DecisionTreeOptions::min_split_weight
    // (24) and the tree actually splits on the velocity column.
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

  std::unique_ptr<kvstore::AliHBase> store_;
  std::unique_ptr<Ingestor> ingestor_;
  std::unique_ptr<serving::ModelServerRouter> router_;
  std::unique_ptr<serving::Gateway> gateway_;
};

TEST_F(StreamingGatewayTest, WirePutsLandInTheStore) {
  StartGateway(VelocityModelBlob(), /*with_ingestor=*/true);
  serving::GatewayClient client("127.0.0.1", gateway_->port());

  const float one[1] = {7.0f};
  ASSERT_TRUE(client.PutBatch({MakeCell("u0000000777", 3, serving::EncodeFloats(one, 1))}).ok());
  std::vector<kvstore::Cell> batch = {MakeCell("u0000000778", 1, "aa"),
                                      MakeCell("u0000000779", 2, "bb")};
  ASSERT_TRUE(client.PutBatch(batch).ok());

  EXPECT_TRUE(store_->Get("u0000000777", "rt", "win").ok());
  auto b = store_->Get("u0000000779", "rt", "win");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "bb");
  const auto stats = gateway_->StatsSnapshot();
  EXPECT_EQ(stats.puts_applied, 3u);
}

TEST_F(StreamingGatewayTest, PutsRefusedWithoutAnIngestor) {
  StartGateway(VelocityModelBlob(), /*with_ingestor=*/false);
  serving::GatewayClient client("127.0.0.1", gateway_->port());
  const auto status = client.PutBatch({MakeCell("u0000000001", 1, "v")});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status.ToString();
}

TEST_F(StreamingGatewayTest, RetiredSingleCellPutMethodIsUnimplemented) {
  // Method 6 carried one cell before a put became a one-cell kPutBatch;
  // it stays reserved and gets every unknown method's answer.
  StartGateway(VelocityModelBlob(), /*with_ingestor=*/true);
  net::Client client("127.0.0.1", gateway_->port());
  std::string payload;
  net::EncodePutBatchRequestTo(&payload, {MakeCell("u0000000001", 1, "v")});
  const auto reply = client.Call(/*method=*/6, std::string_view(payload).substr(4), 2000);
  EXPECT_EQ(reply.status().code(), StatusCode::kUnimplemented) << reply.status().ToString();
  EXPECT_FALSE(store_->Get("u0000000001", "rt", "win").ok());
}

TEST_F(StreamingGatewayTest, ScoredTrafficMovesTheNextVerdict) {
  StartGateway(VelocityModelBlob(), /*with_ingestor=*/true);
  serving::GatewayClient client("127.0.0.1", gateway_->port());
  const int64_t t0 = 100 * 86400 + 43'200;

  // Cold counters: cnt_today = 0, far from the trained fraud profile.
  auto before = client.Score(Transfer(t0));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->interrupt);
  EXPECT_LT(before->fraud_probability, 0.5);

  // A burst of 30 scored transfers inside ten minutes, folded back by the
  // ingestor within the same window — not at T+1.
  std::vector<serving::TransferRequest> burst;
  for (int i = 0; i < 30; ++i) burst.push_back(Transfer(t0 + i * 20));
  auto verdicts = client.ScoreBatch(burst);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  ingestor_->Drain();

  // The very next score sees the shifted velocity counters and flips.
  auto after = client.Score(Transfer(t0 + 660));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(after->fraud_probability, before->fraud_probability);
  EXPECT_TRUE(after->interrupt);

  ingestor_->Drain();
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->ingest_enqueued, 31u);  // Singles + the batch.
  EXPECT_GE(stats->ingest_applied, 31u);
  EXPECT_GE(stats->counter_cells_published, 1u);
  EXPECT_GE(stats->aggregator_users, 1u);
}

TEST_F(StreamingGatewayTest, LiveCounterOutageNeverFailsScoring) {
  StartGateway(VelocityModelBlob(), /*with_ingestor=*/true);
  serving::GatewayClient client("127.0.0.1", gateway_->port());
  const int64_t t0 = 100 * 86400 + 43'200;
  // No published counters at all: the rt probe misses, scoring proceeds
  // on cold defaults without degrading.
  auto verdict = client.Score(Transfer(t0));
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->degraded);
}

}  // namespace
}  // namespace titant::streaming
