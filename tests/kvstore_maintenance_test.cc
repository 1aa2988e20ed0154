// Background LSM maintenance and the machinery under it: the token-bucket
// RateLimiter, the sharded BlockCache, the MaintenanceThread's
// flush/compact scheduling (with WaitIdle determinism), the per-stripe
// maintenance mutex that serializes concurrent Compact()/Flush(), and
// loud DataLoss on corrupt SSTables.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/block_cache.h"
#include "kvstore/maintenance.h"
#include "kvstore/sstable.h"
#include "kvstore/store.h"

namespace titant::kvstore {
namespace {

namespace fs = std::filesystem;

std::string RowKey(uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%06u", i);
  return std::string(buf);
}

/// Sorted, duplicate-free cells for direct SSTable writes.
std::vector<Cell> SortedCells(uint32_t n, uint64_t version = 1) {
  std::vector<Cell> cells;
  cells.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    cells.push_back({CellKey{RowKey(i), "cf", "q", version}, "v" + std::to_string(i), false});
  }
  return cells;
}

/// The `.sst` files directly inside `dir`, sorted by path.
std::vector<std::string> ListSstFiles(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (path.size() > 4 && path.substr(path.size() - 4) == ".sst") paths.push_back(path);
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// ---------------------------------------------------------------------------
// RateLimiter

TEST(RateLimiterTest, ZeroRateNeverThrottles) {
  RateLimiter limiter(0);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) limiter.Acquire(1 << 30);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 100);
}

TEST(RateLimiterTest, BurstIsFreeThenDebtIsSleptOff) {
  // 64 MiB/s with a one-second burst bucket: the first 64 MiB is free,
  // the next 16 MiB must cost about a quarter second of sleep.
  constexpr uint64_t kRate = 64ull << 20;
  RateLimiter limiter(kRate);
  EXPECT_EQ(limiter.rate_bytes_per_sec(), kRate);

  const auto t0 = std::chrono::steady_clock::now();
  limiter.Acquire(kRate);  // Drains the initial full bucket, no sleep.
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0).count(), 100);

  limiter.Acquire(kRate / 4);  // 16 MiB of debt at 64 MiB/s => ~250 ms.
  const auto t2 = std::chrono::steady_clock::now();
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(t2 - t1).count(), 150);
}

// ---------------------------------------------------------------------------
// BlockCache

BlockCache::Block MakeBlock(std::size_t bytes, char fill) {
  return std::make_shared<const std::string>(std::string(bytes, fill));
}

TEST(BlockCacheTest, HitMissAndLruEviction) {
  // One shard so the LRU order is fully deterministic.
  BlockCache cache(/*capacity_bytes=*/8192, /*num_shards=*/1);

  BlockCache::Block out;
  EXPECT_FALSE(cache.Get(1, 0, &out));
  cache.Insert(1, 0, MakeBlock(4096, 'a'));
  cache.Insert(1, 1, MakeBlock(4096, 'b'));
  ASSERT_TRUE(cache.Get(1, 0, &out));
  EXPECT_EQ((*out)[0], 'a');

  // Block (1,0) was just touched, so inserting a third block evicts the
  // LRU tail (1,1), not the hot block.
  cache.Insert(1, 2, MakeBlock(4096, 'c'));
  EXPECT_TRUE(cache.Get(1, 0, &out));
  EXPECT_FALSE(cache.Get(1, 1, &out));
  EXPECT_TRUE(cache.Get(1, 2, &out));

  const BlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.capacity_bytes, 8192u);
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.bytes, 8192u);
}

TEST(BlockCacheTest, EvictionCannotFreeAPinnedBlock) {
  BlockCache cache(4096, 1);
  cache.Insert(7, 0, MakeBlock(4096, 'x'));
  BlockCache::Block pin;
  ASSERT_TRUE(cache.Get(7, 0, &pin));
  // Evict it: the cache drops its reference, the pin keeps the bytes.
  cache.Insert(7, 1, MakeBlock(4096, 'y'));
  BlockCache::Block probe;
  EXPECT_FALSE(cache.Get(7, 0, &probe));
  EXPECT_EQ((*pin)[100], 'x');
}

TEST(BlockCacheTest, EraseTableDropsEveryBlockOfThatTable) {
  BlockCache cache(1 << 20, 4);
  for (uint32_t b = 0; b < 16; ++b) {
    cache.Insert(3, b, MakeBlock(512, 'a'));
    cache.Insert(4, b, MakeBlock(512, 'b'));
  }
  cache.EraseTable(3);
  BlockCache::Block out;
  for (uint32_t b = 0; b < 16; ++b) {
    EXPECT_FALSE(cache.Get(3, b, &out)) << b;
    EXPECT_TRUE(cache.Get(4, b, &out)) << b;
  }
  EXPECT_EQ(cache.stats().bytes, 16u * 512u);
}

TEST(BlockCacheTest, TableIdsAreProcessUnique) {
  const uint64_t a = BlockCache::NextTableId();
  const uint64_t b = BlockCache::NextTableId();
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// Background maintenance scheduling

TEST(MaintenanceTest, BackgroundThreadFlushesAndCompactsToBelowThresholds) {
  const std::string dir = "/tmp/titant_maint_bg";
  fs::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.column_families = {"cf"};
  options.durable = true;
  options.num_shards = 2;
  options.memtable_flush_cells = 64;
  options.compaction_trigger_sstables = 2;
  options.background_maintenance = true;
  options.block_cache_bytes = 1 << 20;
  auto store_or = AliHBase::Open(std::move(options));
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(*store_or);
  ASSERT_NE(store->maintenance(), nullptr);

  // Three write bursts, each pushing every stripe past the flush
  // threshold, with a WaitIdle barrier between them so each burst lands
  // in its own SSTable generation. By the second barrier some stripe has
  // crossed compaction_trigger_sstables and the thread must have merged
  // it back below — a single mega-flush can't satisfy this shape.
  constexpr uint32_t kRows = 512;
  constexpr uint32_t kBurst = kRows / 3 + 1;
  for (uint32_t base = 0; base < kRows; base += kBurst) {
    std::vector<Cell> batch;
    for (uint32_t i = base; i < base + kBurst && i < kRows; ++i) {
      batch.push_back({CellKey{RowKey(i), "cf", "q", 1}, "v" + std::to_string(i), false});
    }
    ASSERT_TRUE(store->PutBatch(batch).ok());
    store->maintenance()->WaitIdle();
  }

  // Idle means every stripe is back under both thresholds.
  for (std::size_t s = 0; s < store->num_shards(); ++s) {
    const AliHBase::ShardLoad load = store->ShardLoadAt(s);
    EXPECT_LT(load.memtable_cells, 64u) << "shard " << s;
    EXPECT_LT(load.sstables, 2u) << "shard " << s;
  }
  const KvStoreStats stats = store->kv_stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.maintenance_bytes_written, 0u);
  EXPECT_EQ(stats.compaction_backlog, 0u);

  for (uint32_t i = 0; i < kRows; i += 37) {
    auto got = store->Get(RowKey(i), "cf", "q");
    ASSERT_TRUE(got.ok()) << RowKey(i) << ": " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }

  // Reopen cold (the destructor joins the maintenance thread first): the
  // background-written SSTables must serve the same image.
  store.reset();
  StoreOptions reopen;
  reopen.dir = dir;
  reopen.column_families = {"cf"};
  reopen.durable = true;
  auto reopened = AliHBase::Open(std::move(reopen));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (uint32_t i = 0; i < kRows; i += 37) {
    auto got = (*reopened)->Get(RowKey(i), "cf", "q");
    ASSERT_TRUE(got.ok()) << RowKey(i);
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
}

TEST(MaintenanceTest, NotifyOnIdleStoreIsHarmless) {
  StoreOptions options;
  options.dir = "/tmp/titant_maint_idle";
  fs::remove_all(options.dir);
  options.column_families = {"cf"};
  options.durable = true;
  options.background_maintenance = true;
  auto store = AliHBase::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 8; ++i) (*store)->maintenance()->Notify();
  (*store)->maintenance()->WaitIdle();
  (*store)->maintenance()->WaitIdle();  // Idempotent.
  EXPECT_EQ((*store)->kv_stats().flushes, 0u);
}

// The satellite regression: before the per-stripe maintenance mutex, two
// Compact() calls racing on one stripe could snapshot the same input
// tables and both swap "their" merge in, resurrecting dropped versions or
// double-counting files. Now every Flush()/Compact()/background pass on a
// stripe serializes, so hammering them from many threads while a writer
// stacks versions must preserve every version exactly.
TEST(MaintenanceTest, ConcurrentCompactAndFlushOnOneStripeSerialize) {
  const std::string dir = "/tmp/titant_maint_serialize";
  fs::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.column_families = {"cf"};
  options.durable = true;
  options.num_shards = 1;  // Every call lands on the same stripe.
  options.max_versions = 0;  // Keep all versions: loss would be visible.
  options.memtable_flush_cells = 1 << 20;  // Only explicit flushes.
  auto store_or = AliHBase::Open(std::move(options));
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);

  constexpr uint32_t kRows = 32;
  constexpr int kVersions = 12;
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (int v = 1; v <= kVersions; ++v) {
      std::vector<Cell> batch;
      for (uint32_t i = 0; i < kRows; ++i) {
        batch.push_back({CellKey{RowKey(i), "cf", "q", static_cast<uint64_t>(v)},
                         "val" + std::to_string(v), false});
      }
      if (!store->PutBatch(batch).ok()) failures.fetch_add(1);
    }
  });
  std::vector<std::thread> maintainers;
  for (int t = 0; t < 3; ++t) {
    maintainers.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        if (!store->FlushShard(0).ok()) failures.fetch_add(1);
        if (!store->CompactShard(0).ok()) failures.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : maintainers) t.join();
  ASSERT_EQ(failures.load(), 0);

  // A final settle pass, then every version of every row must resolve.
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(store->num_sstables(), 1u);
  for (uint32_t i = 0; i < kRows; ++i) {
    for (int v = 1; v <= kVersions; ++v) {
      auto got = store->Get(RowKey(i), "cf", "q", static_cast<uint64_t>(v));
      ASSERT_TRUE(got.ok()) << RowKey(i) << " @" << v;
      EXPECT_EQ(*got, "val" + std::to_string(v));
    }
  }
}

// ---------------------------------------------------------------------------
// Corruption is loud

TEST(MaintenanceTest, CorruptSSTableFailsStoreOpenWithDataLossNamingTheFile) {
  const std::string dir = "/tmp/titant_maint_corrupt";
  fs::remove_all(dir);
  {
    StoreOptions options;
    options.dir = dir;
    options.column_families = {"cf"};
    options.durable = true;
    options.num_shards = 1;
    auto store = AliHBase::Open(std::move(options));
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < 64; ++i) {
      ASSERT_TRUE((*store)->Put(RowKey(i), "cf", "q", "value" + std::to_string(i), 1).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  const std::vector<std::string> ssts = ListSstFiles(dir + "/shard-0");
  ASSERT_EQ(ssts.size(), 1u);

  // Flip one byte inside the data region: the whole-file CRC must catch it.
  {
    std::fstream f(ssts[0], std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(32);
    char c = 0;
    f.read(&c, 1);
    f.seekp(32);
    c = static_cast<char>(c ^ 0x5a);
    f.write(&c, 1);
  }
  StoreOptions reopen;
  reopen.dir = dir;
  reopen.column_families = {"cf"};
  reopen.durable = true;
  auto damaged = AliHBase::Open(std::move(reopen));
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss) << damaged.status().ToString();
  // The status names the damaged file, not just "open failed".
  EXPECT_NE(damaged.status().message().find(ssts[0]), std::string::npos)
      << damaged.status().ToString();
}

TEST(MaintenanceTest, TruncatedSSTableOpensAsDataLoss) {
  const std::string path = "/tmp/titant_maint_truncated.sst";
  ASSERT_TRUE(SSTable::Write(path, SortedCells(128)).ok());
  fs::resize_file(path, 10);
  StatusOr<SSTable> table = SSTable::Open(path);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(table.status().message().find(path), std::string::npos);
  fs::remove(path);
}

TEST(MaintenanceTest, BlockCrcCatchesBitRotAfterOpen) {
  // The whole-file CRC only runs at Open; rot that lands after a table is
  // already serving must be caught by the per-block checksum on the next
  // disk read of the damaged block — as DataLoss naming the file, through
  // both the point-read and iterator paths.
  const std::string path = "/tmp/titant_maint_bitrot.sst";
  ASSERT_TRUE(SSTable::Write(path, SortedCells(256)).ok());
  StatusOr<SSTable> table = SSTable::Open(path);  // No cache: every read hits disk.
  ASSERT_TRUE(table.ok());

  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(48);
    char c = 0;
    f.read(&c, 1);
    f.seekp(48);
    c = static_cast<char>(c ^ 0x5a);
    f.write(&c, 1);
  }

  CellViewRec rec;
  BlockCache::Block pin;
  Status io;
  EXPECT_FALSE(
      table->GetView(RowKey(0), "cf", "q", 1, BloomHashOf(RowKey(0)), &rec, &pin, &io));
  EXPECT_EQ(io.code(), StatusCode::kDataLoss) << io.ToString();
  EXPECT_NE(io.message().find(path), std::string::npos) << io.ToString();

  SSTable::Iterator it(&*table);
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
  EXPECT_EQ(it.status().code(), StatusCode::kDataLoss) << it.status().ToString();
  EXPECT_NE(it.status().message().find(path), std::string::npos);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Cache behavior through the store

TEST(MaintenanceTest, RepeatReadsHitTheCacheAndCompactionInvalidates) {
  const std::string dir = "/tmp/titant_maint_cache";
  fs::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.column_families = {"cf"};
  options.durable = true;
  options.num_shards = 1;
  options.block_cache_bytes = 1 << 20;
  auto store_or = AliHBase::Open(std::move(options));
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);

  constexpr uint32_t kRows = 256;
  const std::string padding(100, 'p');  // Several 4 KiB blocks of data.
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(store->Put(RowKey(i), "cf", "q", padding + std::to_string(i), 1).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_EQ(store->memtable_cells(), 0u);  // Reads must come off disk.

  auto read_all = [&] {
    for (uint32_t i = 0; i < kRows; ++i) {
      auto got = store->Get(RowKey(i), "cf", "q");
      ASSERT_TRUE(got.ok()) << RowKey(i);
      ASSERT_EQ(*got, padding + std::to_string(i));
    }
  };
  read_all();  // Cold: populates the cache.
  const KvStoreStats after_cold = store->kv_stats();
  EXPECT_GT(after_cold.cache_misses, 0u);
  read_all();  // Warm: the same blocks serve from memory.
  const KvStoreStats after_warm = store->kv_stats();
  EXPECT_GT(after_warm.cache_hits, after_cold.cache_hits);
  EXPECT_EQ(after_warm.cache_misses, after_cold.cache_misses);

  // Compaction retires the table: its cached blocks are erased, the
  // merged table reads cold under a fresh id — and stays correct.
  ASSERT_TRUE(store->Compact().ok());
  read_all();
  const KvStoreStats after_compact = store->kv_stats();
  EXPECT_GT(after_compact.cache_misses, after_warm.cache_misses);
  read_all();
  EXPECT_GT(store->kv_stats().cache_hits, after_compact.cache_hits);
}

TEST(MaintenanceTest, CacheDisabledStoreStillServesDiskReads) {
  const std::string dir = "/tmp/titant_maint_nocache";
  fs::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.column_families = {"cf"};
  options.durable = true;
  options.block_cache_bytes = 0;  // Every block read goes to disk.
  auto store_or = AliHBase::Open(std::move(options));
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  EXPECT_EQ(store->block_cache(), nullptr);

  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(store->Put(RowKey(i), "cf", "q", "v" + std::to_string(i), 1).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  for (uint32_t i = 0; i < 64; i += 7) {
    auto got = store->Get(RowKey(i), "cf", "q");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
  const KvStoreStats stats = store->kv_stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_bytes, 0u);
}

}  // namespace
}  // namespace titant::kvstore
