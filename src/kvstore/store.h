#ifndef TITANT_KVSTORE_STORE_H_
#define TITANT_KVSTORE_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/statusor.h"
#include "kvstore/block_cache.h"
#include "kvstore/cell.h"
#include "kvstore/skiplist.h"
#include "kvstore/sstable.h"
#include "kvstore/wal.h"

namespace titant::kvstore {

class MaintenanceThread;  // maintenance.h
class RateLimiter;        // maintenance.h

/// Configuration of one Ali-HBase-style table.
struct StoreOptions {
  /// Data directory (WAL + SSTables). Required when `durable`.
  std::string dir;
  /// Declared column families; Put/Get against undeclared families fail
  /// (HBase semantics).
  std::vector<std::string> column_families;
  /// Memtable size (cell count) that triggers an automatic flush.
  /// Applied per shard.
  std::size_t memtable_flush_cells = 64 * 1024;
  /// Number of versions per column retained by Compact().
  int max_versions = 3;
  /// When false the store is purely in-memory (no WAL, no SSTables);
  /// useful for tests and latency benchmarks isolating CPU cost.
  bool durable = true;
  /// Failpoint namespace for this instance's chaos hooks. Empty (the
  /// default) evaluates the global "kvstore.get"/"kvstore.put" points;
  /// a scope S evaluates "kvstore.S.get"/"kvstore.S.put" instead, so a
  /// failover test can kill one replica of a primary/standby pair while
  /// the other keeps serving.
  std::string failpoint_scope;
  /// Lock-striped shards the table is split into by row-key hash. Each
  /// shard owns its own memtable, WAL segment, SSTable set, sequence
  /// counter, and reader-writer lock, so a flush or bulk upload on one
  /// shard never blocks reads on the others. 1 (the default) reproduces
  /// the original single-striped store. For durable stores the count is
  /// recorded in `dir/SHARDS` on first open and the recorded value wins
  /// on reopen (re-sharding an existing directory is not supported).
  int num_shards = 1;
  /// Block-cache budget shared by every shard's SSTable reads. 0 turns
  /// the cache off (every block read hits the disk).
  std::size_t block_cache_bytes = 32 * 1024 * 1024;
  /// A stripe whose SSTable count reaches this is compaction-eligible
  /// (the maintenance thread's trigger; Compact() always compacts).
  int compaction_trigger_sstables = 4;
  /// Byte/sec budget for compaction output (token bucket, 1s burst).
  /// Flushes are never paced — they run under the stripe's exclusive
  /// lock, so throttling them would stall writers. 0 = unthrottled.
  uint64_t maintenance_rate_bytes_per_sec = 0;
  /// When true, Open starts a background maintenance thread that flushes
  /// and compacts stripes by threshold score, and the write path signals
  /// it instead of flushing inline (writes only stall at the 4x hard
  /// cap). When false (the default), flushes stay inline on the write
  /// path and compaction only runs when Compact() is called — the
  /// pre-maintenance behavior, byte for byte.
  bool background_maintenance = false;
};

/// Aggregate store health counters (the "kvstore" metrics provider).
struct KvStoreStats {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bytes = 0;
  /// Memtable flushes (inline and background).
  uint64_t flushes = 0;
  /// Stripe compactions completed.
  uint64_t compactions = 0;
  /// Stripes currently at/over compaction_trigger_sstables.
  uint64_t compaction_backlog = 0;
  /// SSTable bytes written by flush + compaction.
  uint64_t maintenance_bytes_written = 0;
  /// Wall time writers spent in hard-cap inline flushes while background
  /// maintenance was supposed to absorb them (backpressure indicator).
  uint64_t stall_us = 0;
};

/// One column coordinate of a MultiGetView batch (a CellKey without the
/// version — the snapshot applies to the whole batch). Non-owning: the
/// caller keeps the key bytes alive for the duration of the call
/// (typically a stack or scratch buffer the row keys were formatted into).
struct ColumnProbeView {
  std::string_view row;
  std::string_view family;
  std::string_view qualifier;
};

/// Owns the memory behind MultiGetView results. Every returned
/// std::string_view points into the pin's arena; the views stay valid —
/// across store flushes and compactions — until the pin is Reset or
/// destroyed. Reset rewinds the arena without freeing, so a pin reused
/// across batches reaches a steady state with zero heap traffic. Under
/// AddressSanitizer, Reset poisons the reclaimed bytes: touching a stale
/// view faults instead of silently reading reused memory.
class ReadPin {
 public:
  ReadPin() = default;
  ReadPin(const ReadPin&) = delete;
  ReadPin& operator=(const ReadPin&) = delete;

  /// Invalidates all views handed out since the last Reset and recycles
  /// their memory for the next batch.
  void Reset() { arena_.Reset(); }

  /// Bytes currently reserved (diagnostics).
  std::size_t capacity() const { return arena_.capacity(); }

 private:
  friend class AliHBase;
  Arena arena_;
  std::vector<std::size_t> order_;  // MultiGetView visit-order scratch.
  std::vector<uint32_t> shards_;    // MultiGetView per-probe shard scratch.
};

/// The narrow store surface the online serving tier runs against: the
/// zero-allocation batched read (ModelServer::ScoreSpan's single store
/// touchpoint) and the batched write (counter publishes, wire puts).
/// AliHBase is the canonical implementation; replication::FailoverStore
/// fronts a primary/standby pair behind the same interface so the
/// serving layer fails over without knowing replication exists. The
/// interface is deliberately this small — everything else (Scan, Flush,
/// Compact, bulk upload) is offline-path machinery that talks to a
/// concrete AliHBase.
class KvTable {
 public:
  virtual ~KvTable() = default;

  /// Zero-allocation batched read; see AliHBase::MultiGetView for the
  /// full contract (per-probe semantics, pin-owned views, message-free
  /// miss statuses).
  virtual void MultiGetView(const ColumnProbeView* probes, std::size_t n, ReadPin* pin,
                            StatusOr<std::string_view>* out,
                            uint64_t snapshot = UINT64_MAX) const = 0;

  /// Batched write; see AliHBase::PutBatch.
  virtual Status PutBatch(const std::vector<Cell>& cells) = 0;

  /// True while reads may be stale relative to the authoritative copy —
  /// a failover tier serving from a warm standby reports true so the
  /// scorer can set the degraded-verdict bit instead of failing closed.
  /// A plain store is never stale relative to itself.
  virtual bool degraded_reads() const { return false; }
};

/// A single-table, column-family KV store with timestamp versions —
/// the Ali-HBase stand-in serving the online feature fetches (§4.4,
/// Fig. 7): row key = user, one family for basic features, one for the
/// user node embeddings, versioned by upload date.
///
/// The table is horizontally partitioned into `num_shards` lock-striped
/// shards by row-key hash, mirroring the paper's partitioned Ali-HBase
/// tier: every cell of a row lives in exactly one shard, and each shard
/// is an independent little LSM tree (WAL append -> memtable skiplist;
/// memtable flushes to immutable SSTables). Read path: merge the shard's
/// memtable + SSTables, newest version <= snapshot wins. Crash recovery
/// replays each shard's WAL independently. Thread-safe: reads share a
/// per-shard lock, writes are exclusive per shard — so a flush, compaction
/// or bulk upload on one shard never blocks reads on the others.
class AliHBase : public KvTable {
 public:
  /// Opens the table, replaying any WALs and loading existing SSTables.
  static StatusOr<std::unique_ptr<AliHBase>> Open(StoreOptions options);

  /// Stops the background maintenance thread (when running) and joins it
  /// before any shard state is torn down.
  ~AliHBase() override;

  /// Observer of committed writes — the WAL-shipping tap. Invoked once
  /// per shard commit, after the cells are in the WAL and memtable, with
  /// the store-wide replication sequence assigned to that commit and the
  /// committed cells. Calls are serialized and strictly seq-ordered
  /// (seq 1, 2, 3, ...), so a shipper can treat the stream as a log.
  /// The sink runs under the committing shard's write lock: it must be
  /// cheap (encode + enqueue) and must never call back into the store.
  using CommitSink = std::function<void(uint64_t seq, const Cell* const* cells, std::size_t n)>;

  /// Attaches (or, with nullptr, detaches) the commit sink. Attach
  /// before the store takes concurrent write traffic; commits made
  /// before attachment are not replayed to the sink — a standby that
  /// missed them detects the sequence gap and catches up from a
  /// CatchupSnapshot instead.
  void SetCommitSink(CommitSink sink);

  /// Store-wide commit sequence: the seq of the most recent shard
  /// commit (0 before the first write). Advances on every commit,
  /// sink attached or not, so "standby caught up" is exactly
  /// `acked watermark == primary commit_seq`.
  uint64_t commit_seq() const { return commit_seq_.load(std::memory_order_acquire); }

  /// Snapshot for standby catch-up: fills `cells` with every visible
  /// cell (the merged memtable+SSTable image — newest version per
  /// column, the same image reads see) and returns the commit sequence
  /// the snapshot is guaranteed to cover. Commits racing past the
  /// returned watermark may also be included; re-applying them from the
  /// shipped log is idempotent (a cell is keyed by row/family/qualifier/
  /// version), so the snapshot may overstate but never understate.
  StatusOr<uint64_t> CatchupSnapshot(std::vector<Cell>* cells) const;

  /// Writes one cell version.
  Status Put(const std::string& row, const std::string& family, const std::string& qualifier,
             const std::string& value, uint64_t version);

  /// Writes a batch (the daily bulk upload from offline training writes
  /// one batch per user row). Validation rejects the whole batch before
  /// anything is written; past that point the batch commits shard by
  /// shard (atomic per shard, cells of one row always land together).
  Status PutBatch(const std::vector<Cell>& cells) override;

  /// Deletes a column at `version` (tombstone shadows older versions).
  Status Delete(const std::string& row, const std::string& family,
                const std::string& qualifier, uint64_t version);

  /// Returns the newest value with version <= snapshot. NotFound if the
  /// column has no visible value.
  StatusOr<std::string> Get(const std::string& row, const std::string& family,
                            const std::string& qualifier,
                            uint64_t snapshot = UINT64_MAX) const;

  /// Zero-allocation batched Get: one result per probe, written into the
  /// caller's `out` array (length n) in probe order. Probes are grouped by
  /// shard and visited in sorted key order within each shard (seek
  /// locality in the memtable and SSTable indexes; duplicate coordinates
  /// collapse to one lookup), taking each shard's read lock exactly once.
  /// Per-probe semantics match Get exactly — a probe that fails
  /// (undeclared family, injected fault, no visible value) fails alone,
  /// never its batch siblings. Value bytes are copied once into `pin`'s
  /// arena — the returned views are valid until the pin is Reset or
  /// destroyed, independent of later flushes or compactions. Miss and
  /// fault Statuses are message-free canonical values, so with a reused
  /// pin the steady state performs no heap allocation on hits **or**
  /// misses. This is the hot path under ModelServer::ScoreSpan; concurrent
  /// callers only contend when their probes hash to the same shard.
  void MultiGetView(const ColumnProbeView* probes, std::size_t n, ReadPin* pin,
                    StatusOr<std::string_view>* out,
                    uint64_t snapshot = UINT64_MAX) const override;

  /// Scans visible cells with start_row <= row < end_row (end empty =
  /// unbounded), at most `limit` cells. Returns the newest visible
  /// version per column, merged across shards in global key order.
  StatusOr<std::vector<Cell>> Scan(const std::string& start_row, const std::string& end_row,
                                   uint64_t snapshot = UINT64_MAX,
                                   std::size_t limit = SIZE_MAX) const;

  /// Forces every shard's memtable to an SSTable (no-op when empty).
  Status Flush();

  /// Per shard, merges all SSTables into one, dropping tombstoned data
  /// and versions beyond max_versions.
  Status Compact();

  /// Flush/compact one stripe by index. These are the maintenance
  /// thread's entry points, and they serialize with each other (and with
  /// Flush()/Compact()) on the stripe's maintenance mutex, so a
  /// foreground Compact() racing the background sweep never merges the
  /// same input tables twice. CompactShard holds the stripe's write lock
  /// only to snapshot inputs and to swap in the merged table — the merge
  /// and the (rate-limited) output write run with readers and writers
  /// live on the stripe.
  Status FlushShard(std::size_t shard);
  Status CompactShard(std::size_t shard);

  /// Per-stripe pressure, read under the stripe's shared lock — the
  /// maintenance thread's scoring input.
  struct ShardLoad {
    std::size_t memtable_cells = 0;
    std::size_t memtable_bytes = 0;  // Approximate encoded size.
    std::size_t sstables = 0;
  };
  ShardLoad ShardLoadAt(std::size_t shard) const;

  /// Diagnostics. Counts aggregate across shards.
  std::size_t memtable_cells() const;
  std::size_t num_sstables() const;
  std::size_t num_shards() const { return shards_.size(); }
  const StoreOptions& options() const { return options_; }

  /// Aggregate health counters (cache + maintenance); cheap to call.
  KvStoreStats kv_stats() const;

  /// The shared block cache; nullptr when block_cache_bytes is 0.
  BlockCache* block_cache() const { return cache_.get(); }

  /// The maintenance thread; nullptr unless background_maintenance.
  /// Exposed for tests/benches that need WaitIdle-style determinism.
  MaintenanceThread* maintenance() const { return maintenance_.get(); }

 private:
  struct MemEntry {
    Cell cell;
    uint64_t seq = 0;  // Overwrite order within equal CellKeys.

    friend bool operator<(const MemEntry& a, const MemEntry& b) {
      if (a.cell.key < b.cell.key) return true;
      if (b.cell.key < a.cell.key) return false;
      return a.seq > b.seq;  // Newer writes first.
    }
  };

  /// One lock stripe: an independent LSM tree over the rows that hash
  /// here. Equal row keys always map to the same shard, so the per-shard
  /// `next_seq` preserves overwrite order exactly as the global counter
  /// did, and snapshot reads of a row never straddle stripes.
  struct Shard {
    mutable std::shared_mutex mu;
    /// Serializes maintenance (flush/compact) on this stripe. Always
    /// acquired BEFORE mu, never while holding mu — the inline
    /// threshold flush inside WriteShardCells (which already holds mu)
    /// skips it, which is safe because every flush mutation happens
    /// under exclusive mu and output file ids are reserved under mu.
    mutable std::mutex maint_mu;
    std::unique_ptr<SkipList<MemEntry>> memtable;
    /// Approximate encoded bytes in the memtable (maintenance scoring).
    std::size_t memtable_bytes = 0;
    uint64_t next_seq = 1;
    std::optional<WriteAheadLog> wal;
    /// Oldest first. shared_ptr so compaction can snapshot its inputs
    /// and merge them outside the stripe lock while readers (and the
    /// swap) hold their own references.
    std::vector<std::shared_ptr<SSTable>> sstables;
    uint64_t next_sstable_id = 1;
    std::string dir;  // "<options.dir>/shard-<k>"; empty when not durable.
  };

  explicit AliHBase(StoreOptions options);

  /// Shard index for a row key (FNV-1a 64); 0 when unsharded.
  std::size_t ShardOf(std::string_view row) const;

  Status CheckFamily(std::string_view family) const;
  Status WriteCells(const std::vector<Cell>& cells);
  /// Appends `cells` (non-null pointers) to one shard: WAL record,
  /// memtable inserts, threshold flush. All cells must hash to `shard`.
  Status WriteShardCells(Shard& shard, const Cell* const* cells, std::size_t n);
  Status FlushShardLocked(Shard& shard);
  /// Flush under maint_mu (takes the stripe's write lock itself).
  Status MaintainFlushShard(Shard& shard);
  /// Split-phase merge under maint_mu; see CompactShard(std::size_t).
  Status MaintainCompactShard(Shard& shard);
  /// Loads a shard's SSTables, replays its WAL, opens the WAL for append.
  Status OpenShardFiles(Shard& shard);
  /// Point lookup under the shard's mu, allocation-free for keys within
  /// the string SSO limit (the 11/6-char feature row keys qualify).
  /// `row_hash` is BloomHashOf(row), computed once per probe and reused
  /// against every SSTable's row-prefix filter. On a hit, fills `out`
  /// with views into the memtable or an SSTable block; `pin` receives
  /// the winning block's cache reference. The views are valid while the
  /// shard lock is held AND the pin is alive; callers copy what they
  /// keep before releasing either. A block-read failure surfaces
  /// through `io_status` (when non-null) as DataLoss.
  bool FindViewLocked(const Shard& shard, std::string_view row, std::string_view family,
                      std::string_view qualifier, uint64_t snapshot, uint64_t row_hash,
                      CellViewRec* out, BlockCache::Block* pin,
                      Status* io_status = nullptr) const;
  std::vector<Cell> ScanShardLocked(const Shard& shard, const std::string& start_row,
                                    const std::string& end_row, uint64_t snapshot,
                                    std::size_t limit) const;

  StoreOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Shared SSTable block cache (null when disabled) and the background
  /// maintenance machinery (null unless background_maintenance).
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<RateLimiter> rate_limiter_;
  std::unique_ptr<MaintenanceThread> maintenance_;

  /// Maintenance counters (see KvStoreStats).
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> maintenance_bytes_written_{0};
  std::atomic<uint64_t> stall_us_{0};

  /// Scoped chaos-hook names, resolved once from failpoint_scope.
  std::string get_failpoint_;
  std::string put_failpoint_;

  /// Replication tap. `commit_seq_` always advances (one tick per shard
  /// commit); when a sink is attached, the seq assignment and the sink
  /// call share `sink_mu_` so the sink observes a gap-free, ordered
  /// stream even with writers on different shards.
  std::atomic<uint64_t> commit_seq_{0};
  std::atomic<bool> has_sink_{false};
  mutable std::mutex sink_mu_;
  CommitSink commit_sink_;
};

}  // namespace titant::kvstore

#endif  // TITANT_KVSTORE_STORE_H_
