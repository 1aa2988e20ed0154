#include "kvstore/store.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <tuple>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "kvstore/maintenance.h"

namespace titant::kvstore {

namespace fs = std::filesystem;

namespace {

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string out;
  char buf[256];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Collects "<id>.sst" files directly inside `dir`, sorted by id
/// (oldest first).
StatusOr<std::vector<std::pair<uint64_t, std::string>>> ListSSTables(const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      TITANT_ASSIGN_OR_RETURN(int64_t id, ParseInt64(name.substr(0, name.size() - 4)));
      found.emplace_back(static_cast<uint64_t>(id), entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

/// Approximate encoded footprint of a cell (maintenance scoring only).
std::size_t ApproxCellBytes(const Cell& cell) {
  return cell.key.row.size() + cell.key.family.size() + cell.key.qualifier.size() +
         cell.value.size() + 24;
}

}  // namespace

AliHBase::AliHBase(StoreOptions options) : options_(std::move(options)) {
  const std::string scope =
      options_.failpoint_scope.empty() ? "" : options_.failpoint_scope + ".";
  get_failpoint_ = "kvstore." + scope + "get";
  put_failpoint_ = "kvstore." + scope + "put";
  if (options_.block_cache_bytes > 0) {
    cache_ = std::make_unique<BlockCache>(options_.block_cache_bytes);
  }
  if (options_.maintenance_rate_bytes_per_sec > 0) {
    rate_limiter_ = std::make_unique<RateLimiter>(options_.maintenance_rate_bytes_per_sec);
  }
}

AliHBase::~AliHBase() {
  if (maintenance_) maintenance_->Stop();
}

void AliHBase::SetCommitSink(CommitSink sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  commit_sink_ = std::move(sink);
  has_sink_.store(commit_sink_ != nullptr, std::memory_order_release);
}

StatusOr<uint64_t> AliHBase::CatchupSnapshot(std::vector<Cell>* cells) const {
  // Read the watermark BEFORE scanning: a commit bumps the sequence only
  // after its memtable insert, so every commit at or below the value read
  // here is visible to the scan. Commits racing past it may also appear —
  // the shipped log re-applies them idempotently — so the snapshot can
  // overstate its coverage but never understate it.
  const uint64_t watermark = commit_seq_.load(std::memory_order_acquire);
  TITANT_ASSIGN_OR_RETURN(*cells, Scan("", "", UINT64_MAX, SIZE_MAX));
  return watermark;
}

StatusOr<std::unique_ptr<AliHBase>> AliHBase::Open(StoreOptions options) {
  if (options.column_families.empty()) {
    return Status::InvalidArgument("at least one column family is required");
  }
  if (options.durable && options.dir.empty()) {
    return Status::InvalidArgument("durable store requires a data directory");
  }
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  auto store = std::unique_ptr<AliHBase>(new AliHBase(std::move(options)));

  if (store->options_.durable) {
    std::error_code ec;
    fs::create_directories(store->options_.dir, ec);
    if (ec) return Status::IOError("cannot create " + store->options_.dir);

    // The shard count is a property of the directory, not the open call:
    // rows are routed by hash-mod-count, so the manifest written on first
    // open wins over the requested count forever after — a reopen with a
    // different count must not silently mis-route existing rows. The
    // manifest is written before any shard state, and atomically (tmp +
    // rename, like an SSTable), so a crash at any point reopens under
    // the same count: a crash before the rename leaves no manifest and a
    // stray SHARDS.tmp, and the next open writes the manifest afresh.
    const std::string manifest = store->options_.dir + "/SHARDS";
    if (fs::exists(manifest)) {
      TITANT_ASSIGN_OR_RETURN(std::string text, ReadFileToString(manifest));
      std::string digits;
      for (const char c : text) {
        if (!std::isspace(static_cast<unsigned char>(c))) digits.push_back(c);
      }
      const StatusOr<int64_t> recorded = ParseInt64(digits);
      if (!recorded.ok() || *recorded < 1 || *recorded > (1 << 16)) {
        return Status::Corruption("invalid shard count in " + manifest);
      }
      store->options_.num_shards = static_cast<int>(*recorded);
    } else {
      TITANT_RETURN_IF_ERROR(
          WriteFileAtomic(manifest, std::to_string(store->options_.num_shards) + "\n"));
    }
  }

  const int num_shards = store->options_.num_shards;
  store->shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int k = 0; k < num_shards; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->memtable = std::make_unique<SkipList<MemEntry>>();
    if (store->options_.durable) {
      shard->dir = store->options_.dir + "/shard-" + std::to_string(k);
      std::error_code ec;
      fs::create_directories(shard->dir, ec);
      if (ec) return Status::IOError("cannot create " + shard->dir);
    }
    store->shards_.push_back(std::move(shard));
  }
  if (store->options_.durable) {
    for (auto& shard : store->shards_) {
      TITANT_RETURN_IF_ERROR(store->OpenShardFiles(*shard));
    }
    if (store->options_.background_maintenance) {
      store->maintenance_ = std::make_unique<MaintenanceThread>(store.get());
      store->maintenance_->Start();
    }
  }
  return store;
}

Status AliHBase::OpenShardFiles(Shard& shard) {
  // Load SSTables in id order (oldest first). A table that fails to open
  // fails the whole shard — and thus the whole Open — with the DataLoss
  // status naming the damaged file, rather than serving the stripe as if
  // the file's cells never existed.
  TITANT_ASSIGN_OR_RETURN(auto found, ListSSTables(shard.dir));
  for (const auto& [id, path] : found) {
    StatusOr<SSTable> table = SSTable::Open(path, cache_.get());
    if (!table.ok()) {
      return Status(table.status().code(),
                    "shard " + shard.dir + ": " + table.status().message());
    }
    shard.sstables.push_back(std::make_shared<SSTable>(std::move(*table)));
    shard.next_sstable_id = std::max(shard.next_sstable_id, id + 1);
  }

  // Replay the WAL's intact records into the memtable. Open truncates a
  // torn tail, so the puts acknowledged from now on replay after them.
  const std::string wal_path = shard.dir + "/wal.log";
  std::vector<std::string> records;
  TITANT_ASSIGN_OR_RETURN(WriteAheadLog wal, WriteAheadLog::Open(wal_path, &records));
  for (const std::string& record : records) {
    ByteReader cells(record);
    while (!cells.done()) {
      Cell cell;
      if (!DecodeCell(&cells, &cell)) {
        return Status::Corruption("corrupt WAL record in " + wal_path);
      }
      shard.memtable->Insert(MemEntry{std::move(cell), shard.next_seq++});
    }
  }
  shard.wal.emplace(std::move(wal));
  return Status::OK();
}

namespace {

// "row/family:qualifier" for NotFound messages (error paths only; the
// zero-alloc view path returns message-free canonical statuses instead).
std::string ColumnName(std::string_view row, std::string_view family,
                       std::string_view qualifier) {
  std::string name;
  name.reserve(row.size() + family.size() + qualifier.size() + 2);
  name.append(row);
  name.push_back('/');
  name.append(family);
  name.push_back(':');
  name.append(qualifier);
  return name;
}

}  // namespace

std::size_t AliHBase::ShardOf(std::string_view row) const {
  if (shards_.size() <= 1) return 0;
  // FNV-1a 64: cheap, allocation-free, and stable across runs (the
  // on-disk shard layout depends on it — never change the constants).
  uint64_t h = 14695981039346656037ull;
  for (const char c : row) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % shards_.size());
}

Status AliHBase::CheckFamily(std::string_view family) const {
  for (const auto& cf : options_.column_families) {
    if (cf == family) return Status::OK();
  }
  return Status::InvalidArgument("undeclared column family: " + std::string(family));
}

Status AliHBase::Put(const std::string& row, const std::string& family,
                     const std::string& qualifier, const std::string& value,
                     uint64_t version) {
  Cell cell;
  cell.key = CellKey{row, family, qualifier, version};
  cell.value = value;
  return WriteCells({std::move(cell)});
}

Status AliHBase::Delete(const std::string& row, const std::string& family,
                        const std::string& qualifier, uint64_t version) {
  Cell cell;
  cell.key = CellKey{row, family, qualifier, version};
  cell.tombstone = true;
  return WriteCells({std::move(cell)});
}

Status AliHBase::PutBatch(const std::vector<Cell>& cells) { return WriteCells(cells); }

Status AliHBase::WriteCells(const std::vector<Cell>& cells) {
  if (cells.empty()) return Status::OK();
  // Chaos hook for the write path (scoped per instance, like reads):
  // injected errors model a dead or wedged region server, evaluated
  // before any shard has written a byte so a killed node's puts fail
  // atomically.
  if (failpoint_internal::AnyArmed()) {
    TITANT_RETURN_IF_ERROR(Failpoints::Eval(put_failpoint_));
  }
  // Validate everything up front so a bad cell rejects the whole batch
  // before any shard has written a byte.
  for (const Cell& cell : cells) {
    TITANT_RETURN_IF_ERROR(CheckFamily(cell.key.family));
    if (cell.key.row.empty()) return Status::InvalidArgument("empty row key");
  }
  if (shards_.size() == 1) {
    std::vector<const Cell*> ptrs;
    ptrs.reserve(cells.size());
    for (const Cell& cell : cells) ptrs.push_back(&cell);
    return WriteShardCells(*shards_[0], ptrs.data(), ptrs.size());
  }
  // Group by shard, then commit one shard at a time — each under its own
  // exclusive lock, so a bulk upload to one stripe never blocks readers
  // (or other writers) on the rest of the keyspace.
  std::vector<std::vector<const Cell*>> groups(shards_.size());
  for (const Cell& cell : cells) groups[ShardOf(cell.key.row)].push_back(&cell);
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    TITANT_RETURN_IF_ERROR(WriteShardCells(*shards_[s], groups[s].data(), groups[s].size()));
  }
  return Status::OK();
}

Status AliHBase::WriteShardCells(Shard& shard, const Cell* const* cells, std::size_t n) {
  std::unique_lock lock(shard.mu);
  if (shard.wal) {
    std::string record;
    for (std::size_t i = 0; i < n; ++i) {
      EncodeCellTo(&record, cells[i]->key, cells[i]->tombstone, cells[i]->value);
    }
    TITANT_RETURN_IF_ERROR(shard.wal->Append(record));
    TITANT_RETURN_IF_ERROR(shard.wal->Flush());  // The shard commit point.
  }
  for (std::size_t i = 0; i < n; ++i) {
    shard.memtable_bytes += ApproxCellBytes(*cells[i]);
    shard.memtable->Insert(MemEntry{*cells[i], shard.next_seq++});
  }
  // Replication tap: assign the store-wide commit sequence and hand the
  // committed cells to the sink. Sequence assignment and the sink call
  // share sink_mu_ so shippers see a gap-free ordered stream even when
  // writers land on different shards concurrently.
  if (has_sink_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> sink_lock(sink_mu_);
    const uint64_t seq = commit_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (commit_sink_) commit_sink_(seq, cells, n);
  } else {
    commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  }
  if (shard.memtable->size() >= options_.memtable_flush_cells && options_.durable) {
    if (maintenance_ == nullptr) return FlushShardLocked(shard);
    // Background maintenance owns the flush. Writers only pay for one
    // themselves at the hard cap — the memtable ran 4x past its budget,
    // meaning the background thread is not keeping up — and that stall
    // is measured and exported (kv_stall_us) as the backpressure signal.
    if (shard.memtable->size() >= 4 * options_.memtable_flush_cells) {
      const auto start = std::chrono::steady_clock::now();
      const Status flushed = FlushShardLocked(shard);
      stall_us_.fetch_add(
          static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                    std::chrono::steady_clock::now() - start)
                                    .count()),
          std::memory_order_relaxed);
      return flushed;
    }
    // Signal with the stripe lock released: Notify takes the maintenance
    // mutex, and the maintenance thread takes stripe locks to score the
    // backlog — signaling under the stripe lock would order the two
    // mutexes both ways.
    lock.unlock();
    maintenance_->Notify();
  }
  return Status::OK();
}

bool AliHBase::FindViewLocked(const Shard& shard, std::string_view row,
                              std::string_view family, std::string_view qualifier,
                              uint64_t snapshot, uint64_t row_hash, CellViewRec* out,
                              BlockCache::Block* pin, Status* io_status) const {
  bool found = false;
  pin->reset();
  // Memtable: entries for this column are ordered by version desc, then
  // write order; the first entry at or below the snapshot wins there.
  // The seek key is a std::string triple, but short keys (the feature
  // store's 11/6-char row keys, family/qualifier names) stay inside the
  // small-string buffer, so building it does not touch the heap.
  {
    SkipList<MemEntry>::Iterator it(shard.memtable.get());
    MemEntry target;
    target.cell.key.row.assign(row);
    target.cell.key.family.assign(family);
    target.cell.key.qualifier.assign(qualifier);
    target.cell.key.version = snapshot;
    target.seq = UINT64_MAX;  // Before any real entry of that exact key.
    it.Seek(target);
    if (it.Valid()) {
      const Cell& cell = it.key().cell;
      if (cell.key.row == row && cell.key.family == family &&
          cell.key.qualifier == qualifier && cell.key.version <= snapshot) {
        out->row = cell.key.row;
        out->family = cell.key.family;
        out->qualifier = cell.key.qualifier;
        out->version = cell.key.version;
        out->tombstone = cell.tombstone;
        out->value = cell.value;
        found = true;
      }
    }
  }
  // SSTables: any of them may hold a newer version. Iterate newest file
  // first and require a strictly greater version to override, so that
  // same-version overwrites resolve to the memtable, then the newest file.
  // The winning table's block pin is handed through `pin` so the caller
  // can copy the value even after the block falls out of the cache.
  BlockCache::Block cur;
  CellViewRec rec;
  for (auto it = shard.sstables.rbegin(); it != shard.sstables.rend(); ++it) {
    cur.reset();
    if ((*it)->GetView(row, family, qualifier, snapshot, row_hash, &rec, &cur, io_status) &&
        (!found || rec.version > out->version)) {
      *out = rec;
      *pin = std::move(cur);
      found = true;
    }
  }
  return found;
}

StatusOr<std::string> AliHBase::Get(const std::string& row, const std::string& family,
                                    const std::string& qualifier, uint64_t snapshot) const {
  // Chaos hook for the online feature fetch: injected latency models an
  // HBase region-server hiccup, injected errors a lost region. Evaluated
  // before the shared lock so a latency spike never blocks writers.
  if (failpoint_internal::AnyArmed()) {
    TITANT_RETURN_IF_ERROR(Failpoints::Eval(get_failpoint_));
  }
  TITANT_RETURN_IF_ERROR(CheckFamily(family));
  const Shard& shard = *shards_[ShardOf(row)];
  std::shared_lock lock(shard.mu);
  CellViewRec rec;
  BlockCache::Block pin;
  Status io = Status::OK();
  const bool hit =
      FindViewLocked(shard, row, family, qualifier, snapshot, BloomHashOf(row), &rec, &pin, &io);
  if (!io.ok()) return io;  // Damaged block: loud DataLoss, not a miss.
  if (!hit || rec.tombstone) {
    return Status::NotFound(ColumnName(row, family, qualifier));
  }
  return std::string(rec.value);
}

void AliHBase::MultiGetView(const ColumnProbeView* probes, std::size_t n, ReadPin* pin,
                            StatusOr<std::string_view>* out, uint64_t snapshot) const {
  // Per-probe admission mirrors Get: the chaos hook and the family check
  // run key by key, in INPUT order (chaos draws stay deterministic per
  // probe position) and before any shard lock, so one injected fault or
  // one bad family fails one probe, never its batch siblings.
  std::vector<std::size_t>& live = pin->order_;
  live.clear();
  const bool any_armed = failpoint_internal::AnyArmed();
  for (std::size_t i = 0; i < n; ++i) {
    Status admitted = any_armed ? Failpoints::Eval(get_failpoint_) : Status::OK();
    if (admitted.ok()) admitted = CheckFamily(probes[i].family);
    if (admitted.ok()) {
      live.push_back(i);
      out[i] = StatusOr<std::string_view>(std::string_view());  // Overwritten below.
    } else {
      // Hand back the code alone: the admission Status may carry an
      // allocated message (failpoint text, the family name), and dropping
      // it keeps the fault path allocation-free. Callers branch on codes.
      out[i] = StatusOr<std::string_view>(Status(admitted.code(), std::string()));
    }
  }

  // Group the surviving probes by shard, sorted by key within each group:
  // every shard's read lock is taken exactly once per batch, lookups sweep
  // the memtable and SSTable block indexes forward instead of seeking
  // randomly, and duplicate coordinates collapse into one lookup (the
  // bloom-filter and index probes are paid once per distinct column, not
  // per request). Equal keys always share a shard, so the dedup still
  // holds across the whole batch.
  const bool sharded = shards_.size() > 1;
  std::vector<uint32_t>& stripe = pin->shards_;
  if (sharded) {
    stripe.resize(n);
    for (const std::size_t idx : live) {
      stripe[idx] = static_cast<uint32_t>(ShardOf(probes[idx].row));
    }
  }
  auto key_of = [&probes](std::size_t i) {
    const ColumnProbeView& p = probes[i];
    return std::tie(p.row, p.family, p.qualifier);
  };
  auto stripe_of = [&](std::size_t i) -> uint32_t { return sharded ? stripe[i] : 0; };
  std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
    const uint32_t sa = stripe_of(a);
    const uint32_t sb = stripe_of(b);
    if (sa != sb) return sa < sb;
    return key_of(a) < key_of(b);
  });

  std::size_t pos = 0;
  while (pos < live.size()) {
    const uint32_t cur = stripe_of(live[pos]);
    std::size_t end = pos + 1;
    while (end < live.size() && stripe_of(live[end]) == cur) ++end;

    const Shard& shard = *shards_[cur];
    std::shared_lock lock(shard.mu);  // One acquisition per shard run.
    CellViewRec rec;
    bool hit = false;
    bool lost = false;
    std::string_view pinned;
    BlockCache::Block block_pin;
    bool have_prev = false;
    std::size_t prev = 0;
    for (std::size_t k = pos; k < end; ++k) {
      const std::size_t idx = live[k];
      const ColumnProbeView& probe = probes[idx];
      if (!have_prev || key_of(prev) != key_of(idx)) {
        Status io = Status::OK();
        hit = FindViewLocked(shard, probe.row, probe.family, probe.qualifier, snapshot,
                             BloomHashOf(probe.row), &rec, &block_pin, &io);
        lost = !io.ok();
        if (hit && !rec.tombstone) {
          // The winning value is copied into the pin's arena while the lock
          // (and the block pin) still holds the backing bytes — after that,
          // the view is immune to flushes, compactions and cache evictions.
          // One copy per distinct column; duplicate probes share it.
          pinned = std::string_view(pin->arena_.Copy(rec.value.data(), rec.value.size()),
                                    rec.value.size());
        }
        prev = idx;
        have_prev = true;
      }
      if (lost) {
        // A damaged block fails the probe loudly (message-free canonical
        // DataLoss — the code is the signal, the heap stays untouched).
        out[idx] = StatusOr<std::string_view>(Status(StatusCode::kDataLoss, std::string()));
      } else if (!hit || rec.tombstone) {
        // Canonical message-free NotFound: the miss path is as hot as the
        // hit path under cold-start traffic and must not touch the heap.
        out[idx] = StatusOr<std::string_view>(Status(StatusCode::kNotFound, std::string()));
      } else {
        out[idx] = StatusOr<std::string_view>(pinned);
      }
    }
    pos = end;
  }
}

StatusOr<std::vector<Cell>> AliHBase::Scan(const std::string& start_row,
                                           const std::string& end_row, uint64_t snapshot,
                                           std::size_t limit) const {
  if (shards_.size() == 1) {
    const Shard& shard = *shards_[0];
    std::shared_lock lock(shard.mu);
    return ScanShardLocked(shard, start_row, end_row, snapshot, limit);
  }
  // Cross-shard merge: each shard contributes its own consistent view
  // under its own read lock (locks are taken one at a time, never
  // nested); the caller's snapshot version — not lock timing — defines
  // which writes are visible, so the merged result is exactly the union
  // of per-shard results at that snapshot. Shards partition the row
  // space by hash, so no column appears twice and a global sort by
  // (row, family, qualifier) restores scan order; each shard is asked
  // for at most `limit` cells since the global first-`limit` is a subset
  // of the per-shard first-`limit` sets.
  std::vector<Cell> merged;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    std::vector<Cell> part = ScanShardLocked(*shard, start_row, end_row, snapshot, limit);
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  std::sort(merged.begin(), merged.end(), [](const Cell& a, const Cell& b) {
    return std::tie(a.key.row, a.key.family, a.key.qualifier) <
           std::tie(b.key.row, b.key.family, b.key.qualifier);
  });
  if (merged.size() > limit) merged.resize(limit);
  return merged;
}

std::vector<Cell> AliHBase::ScanShardLocked(const Shard& shard, const std::string& start_row,
                                            const std::string& end_row, uint64_t snapshot,
                                            std::size_t limit) const {
  // Merge the shard's sources into (key -> cell), keeping the winning
  // version per column. Simplicity over peak throughput: scans here back
  // bulk verification jobs, not the latency-critical point reads.
  // Winner per column. Sources are visited in authority order within each
  // equal version — memtable newest-seq first, then newest SSTable — so on
  // ties the FIRST writer must win and later ones must not overwrite.
  struct Winner {
    Cell cell;
    bool from_memtable;
  };
  std::map<std::tuple<std::string, std::string, std::string>, Winner> merged;
  auto consider = [&](const Cell& cell, bool from_memtable) {
    if (cell.key.version > snapshot) return;
    if (!end_row.empty() && cell.key.row >= end_row) return;
    if (cell.key.row < start_row) return;
    auto column =
        std::make_tuple(cell.key.row, cell.key.family, cell.key.qualifier);
    auto it = merged.find(column);
    if (it == merged.end()) {
      merged.emplace(std::move(column), Winner{cell, from_memtable});
      return;
    }
    const bool newer = cell.key.version > it->second.cell.key.version;
    const bool tie_beats_sstable = cell.key.version == it->second.cell.key.version &&
                                   from_memtable && !it->second.from_memtable;
    if (newer || tie_beats_sstable) it->second = Winner{cell, from_memtable};
  };

  {
    SkipList<MemEntry>::Iterator it(shard.memtable.get());
    MemEntry target;
    target.cell.key = CellKey{start_row, "", "", UINT64_MAX};
    target.seq = UINT64_MAX;
    it.Seek(target);
    for (; it.Valid(); it.Next()) {
      const Cell& cell = it.key().cell;
      if (!end_row.empty() && cell.key.row >= end_row) break;
      consider(cell, /*from_memtable=*/true);
    }
  }
  // Newest file first: `consider` keeps the first writer on equal
  // versions (after the memtable).
  for (auto table = shard.sstables.rbegin(); table != shard.sstables.rend(); ++table) {
    SSTable::Iterator it(table->get());
    it.Seek(CellKey{start_row, "", "", UINT64_MAX});
    for (; it.Valid(); it.Next()) {
      if (!end_row.empty() && it.cell().key.row >= end_row) break;
      consider(it.cell(), /*from_memtable=*/false);
    }
  }

  std::vector<Cell> out;
  for (auto& [column, winner] : merged) {
    if (winner.cell.tombstone) continue;
    out.push_back(std::move(winner.cell));
    if (out.size() >= limit) break;
  }
  return out;
}

Status AliHBase::FlushShardLocked(Shard& shard) {
  if (shard.memtable->empty()) return Status::OK();
  if (!options_.durable) return Status::OK();

  std::vector<Cell> cells;
  cells.reserve(shard.memtable->size());
  SkipList<MemEntry>::Iterator it(shard.memtable.get());
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    const Cell& cell = it.key().cell;
    // Entries with equal CellKey are ordered newest-seq first: keep the
    // first (latest overwrite), drop the rest.
    if (!cells.empty() && cells.back().key == cell.key) continue;
    cells.push_back(cell);
  }

  const std::string path =
      shard.dir + "/" + std::to_string(shard.next_sstable_id) + ".sst";
  uint64_t bytes = 0;
  // Unthrottled: a flush runs under the stripe's exclusive lock, so
  // pacing it would stall writers — the rate limiter only applies to the
  // lock-free compaction merge.
  TITANT_RETURN_IF_ERROR(SSTable::Write(path, cells, nullptr, &bytes));
  TITANT_ASSIGN_OR_RETURN(SSTable table, SSTable::Open(path, cache_.get()));
  shard.sstables.push_back(std::make_shared<SSTable>(std::move(table)));
  ++shard.next_sstable_id;
  shard.memtable = std::make_unique<SkipList<MemEntry>>();
  shard.memtable_bytes = 0;
  if (shard.wal) TITANT_RETURN_IF_ERROR(shard.wal->Reset());
  flushes_.fetch_add(1, std::memory_order_relaxed);
  maintenance_bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  return Status::OK();
}

Status AliHBase::MaintainFlushShard(Shard& shard) {
  std::lock_guard<std::mutex> maint(shard.maint_mu);
  std::unique_lock lock(shard.mu);
  return FlushShardLocked(shard);
}

Status AliHBase::Flush() {
  for (auto& shard : shards_) {
    TITANT_RETURN_IF_ERROR(MaintainFlushShard(*shard));
  }
  return Status::OK();
}

Status AliHBase::FlushShard(std::size_t shard) {
  if (shard >= shards_.size()) return Status::InvalidArgument("shard index out of range");
  return MaintainFlushShard(*shards_[shard]);
}

Status AliHBase::CompactShard(std::size_t shard) {
  if (shard >= shards_.size()) return Status::InvalidArgument("shard index out of range");
  return MaintainCompactShard(*shards_[shard]);
}

AliHBase::ShardLoad AliHBase::ShardLoadAt(std::size_t shard) const {
  ShardLoad load;
  if (shard >= shards_.size()) return load;
  const Shard& s = *shards_[shard];
  std::shared_lock lock(s.mu);
  load.memtable_cells = s.memtable->size();
  load.memtable_bytes = s.memtable_bytes;
  load.sstables = s.sstables.size();
  return load;
}

Status AliHBase::Compact() {
  // Shard by shard: compacting one stripe contends only with that
  // stripe's maintenance; the rest of the keyspace stays fully available.
  for (auto& shard : shards_) {
    TITANT_RETURN_IF_ERROR(MaintainCompactShard(*shard));
  }
  return Status::OK();
}

Status AliHBase::MaintainCompactShard(Shard& shard) {
  if (!options_.durable) return Status::OK();
  // The per-stripe maintenance mutex is what makes concurrent Compact()
  // calls (foreground + background scheduler) safe: both would snapshot
  // the same input tables and both would try to remove them from the
  // stripe — serialized here, the second merge sees the already-merged
  // single table and no-ops.
  std::lock_guard<std::mutex> maint(shard.maint_mu);
  {
    std::unique_lock lock(shard.mu);
    TITANT_RETURN_IF_ERROR(FlushShardLocked(shard));
  }

  // Phase 1 (brief exclusive lock): snapshot the input tables and
  // reserve the output file id, so concurrent flushes appending to the
  // stripe can neither race the id nor be lost by the swap below.
  std::vector<std::shared_ptr<SSTable>> inputs;
  uint64_t merged_id = 0;
  {
    std::unique_lock lock(shard.mu);
    if (shard.sstables.size() <= 1 && options_.max_versions <= 0) return Status::OK();
    if (shard.sstables.empty()) return Status::OK();
    inputs = shard.sstables;
    merged_id = shard.next_sstable_id++;
  }

  // Phase 2 (no stripe lock): merge the snapshot and write the output,
  // paced by the maintenance rate limiter. Readers and writers proceed
  // on the stripe the whole time; the shared_ptrs keep the inputs alive
  // even if something else drops them from the stripe meanwhile.
  std::map<CellKey, Cell> all;
  for (const auto& table : inputs) {  // Oldest first: later overwrite.
    SSTable::Iterator it(table.get());
    for (it.SeekToFirst(); it.Valid(); it.Next()) all[it.cell().key] = it.cell();
    if (!it.status().ok()) return it.status();  // Loud DataLoss mid-sweep.
  }

  // Version GC: keep at most max_versions per column, drop data shadowed
  // by a tombstone, drop the tombstones themselves.
  std::vector<Cell> kept;
  kept.reserve(all.size());
  const std::string* cur_row = nullptr;
  const std::string* cur_family = nullptr;
  const std::string* cur_qualifier = nullptr;
  int versions_kept = 0;
  bool shadowed = false;
  for (auto& [key, cell] : all) {  // Sorted: version desc within a column.
    const bool new_column = cur_row == nullptr || *cur_row != key.row ||
                            *cur_family != key.family || *cur_qualifier != key.qualifier;
    if (new_column) {
      cur_row = &key.row;
      cur_family = &key.family;
      cur_qualifier = &key.qualifier;
      versions_kept = 0;
      shadowed = false;
    }
    if (shadowed) continue;
    if (cell.tombstone) {
      shadowed = true;  // Everything older is deleted.
      continue;
    }
    if (options_.max_versions > 0 && versions_kept >= options_.max_versions) continue;
    kept.push_back(std::move(cell));
    ++versions_kept;
  }

  const std::string path = shard.dir + "/" + std::to_string(merged_id) + ".sst";
  uint64_t bytes = 0;
  TITANT_RETURN_IF_ERROR(SSTable::Write(path, kept, rate_limiter_.get(), &bytes));
  TITANT_ASSIGN_OR_RETURN(SSTable merged_table, SSTable::Open(path, cache_.get()));
  auto merged = std::make_shared<SSTable>(std::move(merged_table));

  // Phase 3 (brief exclusive lock): swap. The merged table takes the
  // OLDEST position — tables flushed during the merge hold newer data
  // and must stay after it in the newest-file-wins read order.
  {
    std::unique_lock lock(shard.mu);
    std::vector<std::shared_ptr<SSTable>> next;
    next.reserve(shard.sstables.size());
    next.push_back(merged);
    for (const auto& table : shard.sstables) {
      const bool was_input =
          std::find(inputs.begin(), inputs.end(), table) != inputs.end();
      if (!was_input) next.push_back(table);
    }
    shard.sstables = std::move(next);
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  maintenance_bytes_written_.fetch_add(bytes, std::memory_order_relaxed);

  // Phase 4: drop the dead tables' cache entries and unlink their files.
  // In-flight readers still holding a shared_ptr (or a pinned block)
  // keep the bytes alive; POSIX keeps an unlinked file readable through
  // its open descriptor.
  for (const auto& table : inputs) {
    if (cache_ != nullptr) cache_->EraseTable(table->table_id());
    std::error_code ec;
    fs::remove(table->path(), ec);  // Best effort; stale files re-merge later.
  }
  return Status::OK();
}

KvStoreStats AliHBase::kv_stats() const {
  KvStoreStats stats;
  if (cache_ != nullptr) {
    const BlockCacheStats cache = cache_->stats();
    stats.cache_hits = cache.hits;
    stats.cache_misses = cache.misses;
    stats.cache_bytes = cache.bytes;
  }
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  stats.compactions = compactions_.load(std::memory_order_relaxed);
  stats.maintenance_bytes_written =
      maintenance_bytes_written_.load(std::memory_order_relaxed);
  stats.stall_us = stall_us_.load(std::memory_order_relaxed);
  const std::size_t trigger =
      static_cast<std::size_t>(std::max(1, options_.compaction_trigger_sstables));
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    if (shard->sstables.size() >= trigger) ++stats.compaction_backlog;
  }
  return stats;
}

std::size_t AliHBase::memtable_cells() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    total += shard->memtable->size();
  }
  return total;
}

std::size_t AliHBase::num_sstables() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    total += shard->sstables.size();
  }
  return total;
}

}  // namespace titant::kvstore
