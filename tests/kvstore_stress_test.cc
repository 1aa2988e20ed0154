// Multi-threaded stress test for the sharded AliHBase: concurrent
// MultiGetView readers, PutBatch writers, Flush and Compact across
// shards, verifying snapshot isolation throughout. Designed to run
// under ThreadSanitizer (the TSan CI lane includes it), so iteration
// counts are modest — the value is the interleavings, not the volume.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "kvstore/maintenance.h"
#include "kvstore/store.h"

namespace titant::kvstore {
namespace {

namespace fs = std::filesystem;

constexpr int kShards = 4;
constexpr uint32_t kRows = 64;
constexpr int kWriterRounds = 40;
constexpr int kReaderRounds = 200;

std::string RowKey(uint32_t i) {
  // Spread rows over the hash space; fixed width keeps ordering sane.
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%06u", i);
  return std::string(buf);
}

std::unique_ptr<AliHBase> OpenStressStore(const std::string& dir) {
  fs::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.column_families = {"cf"};
  options.durable = true;
  options.num_shards = kShards;
  // Low threshold so automatic flushes interleave with everything else.
  options.memtable_flush_cells = 256;
  // Keep every version: the snapshot-pinned readers rely on version 1
  // staying alive across Compact (which GCs beyond max_versions).
  options.max_versions = 0;
  auto store = AliHBase::Open(std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

TEST(KvStoreStressTest, ConcurrentReadWriteFlushCompactPreservesSnapshots) {
  auto store = OpenStressStore("/tmp/titant_kvstress_mixed");

  // Prefill every row at version 1 with "val1" — the frozen snapshot the
  // version-1 readers must keep seeing no matter what the writers do.
  {
    std::vector<Cell> batch;
    for (uint32_t i = 0; i < kRows; ++i) {
      batch.push_back({CellKey{RowKey(i), "cf", "q", 1}, "val1", false});
    }
    ASSERT_TRUE(store->PutBatch(batch).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto fail = [&](const char* what) {
    failures.fetch_add(1);
    ADD_FAILURE() << what;
  };

  // Writers: overwrite every row at monotonically increasing versions.
  // Version k always carries "val<k>", so any read can be validated
  // against its own version.
  std::thread writer([&] {
    for (int round = 2; round < 2 + kWriterRounds; ++round) {
      std::vector<Cell> batch;
      const std::string value = "val" + std::to_string(round);
      for (uint32_t i = 0; i < kRows; ++i) {
        batch.push_back({CellKey{RowKey(i), "cf", "q", static_cast<uint64_t>(round)},
                         value, false});
      }
      if (!store->PutBatch(batch).ok()) fail("PutBatch failed");
    }
  });

  // Snapshot readers pinned at version 1: must observe exactly "val1"
  // for every row, always — newer versions are invisible at snapshot 1.
  std::thread frozen_reader([&] {
    ReadPin pin;
    std::vector<std::string> keys(kRows);
    std::vector<ColumnProbeView> probes(kRows);
    std::vector<StatusOr<std::string_view>> out(
        kRows, StatusOr<std::string_view>(std::string_view()));
    for (uint32_t i = 0; i < kRows; ++i) {
      keys[i] = RowKey(i);
      probes[i] = {keys[i], "cf", "q"};
    }
    for (int round = 0; round < kReaderRounds && !stop.load(); ++round) {
      pin.Reset();
      store->MultiGetView(probes.data(), probes.size(), &pin, out.data(), /*snapshot=*/1);
      for (uint32_t i = 0; i < kRows; ++i) {
        if (!out[i].ok() || *out[i] != "val1") {
          fail("snapshot-1 reader saw something other than val1");
          return;
        }
      }
    }
  });

  // Latest readers: whatever version wins must carry its own value
  // ("val<k>" at version k) — a torn or mixed read fails the match.
  std::thread latest_reader([&] {
    ReadPin pin;
    std::vector<std::string> keys(kRows);
    std::vector<ColumnProbeView> probes(kRows);
    std::vector<StatusOr<std::string_view>> out(
        kRows, StatusOr<std::string_view>(std::string_view()));
    for (uint32_t i = 0; i < kRows; ++i) {
      keys[i] = RowKey(i);
      probes[i] = {keys[i], "cf", "q"};
    }
    for (int round = 0; round < kReaderRounds && !stop.load(); ++round) {
      pin.Reset();
      store->MultiGetView(probes.data(), probes.size(), &pin, out.data());
      for (uint32_t i = 0; i < kRows; ++i) {
        if (!out[i].ok()) {
          fail("latest reader missed a prefilled row");
          return;
        }
        const std::string_view value = *out[i];
        if (value.substr(0, 3) != "val") {
          fail("latest reader saw a malformed value");
          return;
        }
      }
    }
  });

  // Maintenance: flushes and compactions race the reads and writes;
  // each stripe's flush blocks only that stripe.
  std::thread flusher([&] {
    for (int round = 0; round < 20 && !stop.load(); ++round) {
      if (!store->Flush().ok()) fail("Flush failed");
    }
  });
  std::thread compactor([&] {
    for (int round = 0; round < 8 && !stop.load(); ++round) {
      if (!store->Compact().ok()) fail("Compact failed");
    }
  });

  writer.join();
  flusher.join();
  compactor.join();
  stop.store(true);
  frozen_reader.join();
  latest_reader.join();

  EXPECT_EQ(failures.load(), 0);

  // Settled state: the final overwrite wins everywhere, and snapshot 1
  // still resolves to the original value.
  const int last = 2 + kWriterRounds - 1;
  for (uint32_t i = 0; i < kRows; i += 7) {
    auto latest = store->Get(RowKey(i), "cf", "q");
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(*latest, "val" + std::to_string(last));
    auto frozen = store->Get(RowKey(i), "cf", "q", /*snapshot=*/1);
    ASSERT_TRUE(frozen.ok());
    EXPECT_EQ(*frozen, "val1");
  }
}

// Same reader/writer mix, but the stripes are rewritten underneath by the
// background maintenance thread (low flush threshold, low compaction
// trigger, small block cache) while a commit sink — the WAL shipper's
// tap — listens. Snapshot isolation must hold through every background
// flush/compact swap, and the sink must observe a gap-free, strictly
// ordered commit stream (background rewrites are not commits and must
// never tick or reorder it).
TEST(KvStoreStressTest, BackgroundMaintenanceKeepsSnapshotsAndCommitStream) {
  const std::string dir = "/tmp/titant_kvstress_maint";
  fs::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.column_families = {"cf"};
  options.durable = true;
  options.num_shards = kShards;
  options.memtable_flush_cells = 128;
  options.compaction_trigger_sstables = 2;
  options.background_maintenance = true;
  options.block_cache_bytes = 256 * 1024;
  options.max_versions = 0;  // Snapshot-1 readers need version 1 alive.
  auto store_or = AliHBase::Open(std::move(options));
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(*store_or);
  ASSERT_NE(store->maintenance(), nullptr);

  // The shipper tap: calls are serialized by the store, so plain fields
  // are safe; any gap or empty commit is a replication-stream bug.
  uint64_t last_seq = 0;
  uint64_t sink_commits = 0;
  uint64_t sink_cells = 0;
  bool sink_ok = true;
  store->SetCommitSink([&](uint64_t seq, const Cell* const* cells, std::size_t n) {
    if (seq != last_seq + 1 || n == 0 || cells == nullptr) sink_ok = false;
    last_seq = seq;
    ++sink_commits;
    sink_cells += n;
  });

  {
    std::vector<Cell> batch;
    for (uint32_t i = 0; i < kRows; ++i) {
      batch.push_back({CellKey{RowKey(i), "cf", "q", 1}, "val1", false});
    }
    ASSERT_TRUE(store->PutBatch(batch).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto fail = [&](const char* what) {
    failures.fetch_add(1);
    ADD_FAILURE() << what;
  };

  std::thread writer([&] {
    for (int round = 2; round < 2 + kWriterRounds; ++round) {
      std::vector<Cell> batch;
      const std::string value = "val" + std::to_string(round);
      for (uint32_t i = 0; i < kRows; ++i) {
        batch.push_back({CellKey{RowKey(i), "cf", "q", static_cast<uint64_t>(round)},
                         value, false});
      }
      if (!store->PutBatch(batch).ok()) fail("PutBatch failed");
    }
  });
  std::thread frozen_reader([&] {
    ReadPin pin;
    std::vector<std::string> keys(kRows);
    std::vector<ColumnProbeView> probes(kRows);
    std::vector<StatusOr<std::string_view>> out(
        kRows, StatusOr<std::string_view>(std::string_view()));
    for (uint32_t i = 0; i < kRows; ++i) {
      keys[i] = RowKey(i);
      probes[i] = {keys[i], "cf", "q"};
    }
    for (int round = 0; round < kReaderRounds && !stop.load(); ++round) {
      pin.Reset();
      store->MultiGetView(probes.data(), probes.size(), &pin, out.data(), /*snapshot=*/1);
      for (uint32_t i = 0; i < kRows; ++i) {
        if (!out[i].ok() || *out[i] != "val1") {
          fail("snapshot-1 reader lost version 1 under background maintenance");
          return;
        }
      }
    }
  });
  writer.join();
  stop.store(true);
  frozen_reader.join();
  store->maintenance()->WaitIdle();
  ASSERT_EQ(failures.load(), 0);

  // Background flushes/compactions actually ran...
  const KvStoreStats stats = store->kv_stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.compactions, 0u);
  // ...and the commit stream is exactly the write traffic: gap-free seqs
  // ending at the store's commit watermark, one cell per written cell.
  EXPECT_TRUE(sink_ok);
  EXPECT_EQ(last_seq, store->commit_seq());
  EXPECT_EQ(sink_commits, store->commit_seq());
  EXPECT_EQ(sink_cells, static_cast<uint64_t>(kRows) * (1 + kWriterRounds));

  const int last = 2 + kWriterRounds - 1;
  for (uint32_t i = 0; i < kRows; i += 7) {
    auto latest = store->Get(RowKey(i), "cf", "q");
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(*latest, "val" + std::to_string(last));
    auto frozen = store->Get(RowKey(i), "cf", "q", /*snapshot=*/1);
    ASSERT_TRUE(frozen.ok());
    EXPECT_EQ(*frozen, "val1");
  }
}

TEST(KvStoreStressTest, ConcurrentPutBatchesFromManyThreadsAllLand) {
  auto store = OpenStressStore("/tmp/titant_kvstress_writers");

  // Disjoint row ranges per writer thread — the parallel daily-upload
  // pattern. Every cell must land exactly as written.
  constexpr int kThreads = 4;
  constexpr uint32_t kRowsPerThread = 128;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::vector<Cell> batch;
      for (uint32_t i = 0; i < kRowsPerThread; ++i) {
        const uint32_t row = static_cast<uint32_t>(t) * kRowsPerThread + i;
        batch.push_back({CellKey{RowKey(row), "cf", "q", 5}, "t" + std::to_string(t), false});
        if (batch.size() >= 32) {
          ASSERT_TRUE(store->PutBatch(batch).ok());
          batch.clear();
        }
      }
      if (!batch.empty()) {
        ASSERT_TRUE(store->PutBatch(batch).ok());
      }
    });
  }
  for (std::thread& w : writers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    for (uint32_t i = 0; i < kRowsPerThread; i += 13) {
      const uint32_t row = static_cast<uint32_t>(t) * kRowsPerThread + i;
      auto got = store->Get(RowKey(row), "cf", "q");
      ASSERT_TRUE(got.ok()) << RowKey(row);
      EXPECT_EQ(*got, "t" + std::to_string(t));
    }
  }
}

}  // namespace
}  // namespace titant::kvstore
