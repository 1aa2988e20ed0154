#ifndef TITANT_KVSTORE_SSTABLE_H_
#define TITANT_KVSTORE_SSTABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "kvstore/block_cache.h"
#include "kvstore/bloom.h"
#include "kvstore/cell.h"

namespace titant::kvstore {

class RateLimiter;  // maintenance.h — byte/sec throttle for background writes.

/// Writes `file` to `path` atomically: a crash leaves either the old file
/// or the new one, never a torn one. The bytes go to `path + ".tmp"`
/// first and are renamed over `path`. A non-null `limiter` paces the
/// write in chunks, so a background compaction's disk bandwidth is bounded
/// while foreground traffic shares the device.
Status WriteFileAtomic(const std::string& path, std::string_view file,
                       RateLimiter* limiter = nullptr);

/// Immutable sorted run of cells on disk (the HFile analogue).
///
/// Format v3 (written by Write): cell records grouped into ~4 KiB blocks
/// (records never straddle a block boundary), a per-block index (first key
/// + file offset + CRC32 of every block), a column-coordinate Bloom
/// filter, a row-prefix Bloom filter, and a versioned footer holding one
/// CRC32 over the data region and one over the metadata. Readers keep
/// only the index and the filters in memory; data blocks are fetched on
/// demand with pread through the store's shared BlockCache, so the
/// resident set is the hot blocks, not the table. Every disk read verifies
/// its block's checksum before the bytes are served or cached — bit rot
/// after open surfaces as DataLoss on first touch, and cache hits skip the
/// verification because cached blocks are pre-verified.
class SSTable {
 public:
  /// Writes `cells` (must already be sorted by CellKey and free of exact
  /// duplicates) to `path` in format v3, replacing any existing file.
  /// A non-null `limiter` throttles the file write (background compaction
  /// pacing against foreground traffic); `bytes_written` (optional)
  /// returns the file size for maintenance accounting.
  static Status Write(const std::string& path, const std::vector<Cell>& cells,
                      RateLimiter* limiter = nullptr, uint64_t* bytes_written = nullptr);

  /// Opens and validates an SSTable file. Corrupt files (short footer,
  /// bad magic, a version other than 3, CRC mismatch, bad geometry) fail
  /// loudly with a DataLoss status naming the path. `cache` (nullable)
  /// serves this table's block reads.
  static StatusOr<SSTable> Open(const std::string& path, BlockCache* cache = nullptr);

  SSTable(SSTable&& other) noexcept;
  SSTable& operator=(SSTable&& other) noexcept;
  SSTable(const SSTable&) = delete;
  SSTable& operator=(const SSTable&) = delete;
  ~SSTable();

  /// Returns the newest cell of (row, family, qualifier) with
  /// version <= snapshot, including tombstones (the store interprets
  /// them); nullopt if the column has no visible cell here.
  std::optional<Cell> Get(const std::string& row, const std::string& family,
                          const std::string& qualifier, uint64_t snapshot) const;

  /// Zero-allocation twin of Get. `row_hash` is BloomHashOf(row), computed
  /// once per probe by the store and checked against the row-prefix filter
  /// before the column filter or any block is touched. On a hit, fills
  /// `out` with views into the block backing the record and hands the
  /// block's strong cache reference back through `pin` — the views stay
  /// valid exactly as long as the pin is alive. A cache hit performs no
  /// heap allocation; a cache miss reads the block from disk. A failed
  /// disk read reports DataLoss through `io_status` (when non-null) and
  /// returns false.
  bool GetView(std::string_view row, std::string_view family, std::string_view qualifier,
               uint64_t snapshot, uint64_t row_hash, CellViewRec* out, BlockCache::Block* pin,
               Status* io_status = nullptr) const;

  /// Iterates cells in key order starting at the first key >= start.
  /// Reads blocks directly (bypassing the cache) so compaction sweeps do
  /// not evict the foreground working set. A disk read failure ends the
  /// iteration (Valid() false) with status() holding the DataLoss.
  class Iterator {
   public:
    explicit Iterator(const SSTable* table) : table_(table) {}
    void SeekToFirst();
    void Seek(const CellKey& start);
    bool Valid() const { return valid_; }
    const Cell& cell() const { return current_; }
    void Next();
    const Status& status() const { return status_; }

   private:
    /// Positions the iterator at `pos` within block `block` and decodes.
    void LoadAt(std::size_t block, std::size_t pos);
    bool LoadBlock(std::size_t block);

    const SSTable* table_;
    std::size_t block_ = 0;  // Current block.
    std::string buffer_;     // Owned bytes of the current block.
    std::size_t pos_ = 0;    // Offset of the NEXT record in the block.
    Cell current_;
    bool valid_ = false;
    Status status_;
  };

  std::size_t num_cells() const { return num_cells_; }
  std::size_t num_blocks() const { return index_offsets_.size(); }
  const std::string& path() const { return path_; }
  uint64_t table_id() const { return table_id_; }

 private:
  friend class Iterator;

  static constexpr uint32_t kMagic = 0x32545354;   // "TST2"
  static constexpr uint32_t kFormatVersion = 3;    // Footer layout version.
  static constexpr std::size_t kBlockSize = 4096;  // Target block bytes.

  SSTable() = default;

  /// Returns a view of block `b`, cache-first, pinned by `pin`. Without a
  /// cache the bytes sit in a reused per-thread buffer, valid while `pin`
  /// holds it.
  bool ReadBlockView(std::size_t b, BlockCache::Block* pin, std::string_view* out,
                     Status* io_status) const;
  /// Size in bytes of block `b`.
  std::size_t BlockSizeOf(std::size_t b) const;
  /// First block that could contain (row, family, qualifier, <=snapshot).
  std::size_t SeekBlock(std::string_view row, std::string_view family,
                        std::string_view qualifier, uint64_t snapshot) const;

  std::string path_;
  int fd_ = -1;  // Open file for block pread.
  uint64_t data_size_ = 0;
  uint64_t table_id_ = 0;
  BlockCache* cache_ = nullptr;
  std::vector<CellKey> index_keys_;      // First key of every block.
  std::vector<uint64_t> index_offsets_;  // Matching data-region offsets.
  std::vector<uint32_t> block_crcs_;     // Per-block CRC32, checked per read.
  BloomFilter bloom_ = BloomFilter::FromPayload("");      // Column coordinates.
  BloomFilter row_bloom_ = BloomFilter::FromPayload("");  // Row keys.
  std::size_t num_cells_ = 0;
};

}  // namespace titant::kvstore

#endif  // TITANT_KVSTORE_SSTABLE_H_
