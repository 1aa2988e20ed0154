#include "kvstore/sstable.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <memory>

#include "kvstore/maintenance.h"  // RateLimiter
#include "kvstore/wal.h"          // Crc32

namespace titant::kvstore {

namespace {

// Three-way compare of (row, family, qualifier) coordinates; the callers
// layer CellKey's descending-version rule on top.
int CompareRfq(std::string_view ar, std::string_view af, std::string_view aq,
               std::string_view br, std::string_view bf, std::string_view bq) {
  int c = ar.compare(br);
  if (c != 0) return c;
  c = af.compare(bf);
  if (c != 0) return c;
  return aq.compare(bq);
}

Status CheckSorted(const std::vector<Cell>& cells) {
  for (std::size_t i = 1; i < cells.size(); ++i) {
    if (!(cells[i - 1].key < cells[i].key)) {
      return Status::InvalidArgument("SSTable cells must be strictly sorted");
    }
  }
  return Status::OK();
}

/// Reads exactly `n` bytes at `offset` of `fd` into `out`; false on an
/// I/O error or a short file.
bool ReadFull(int fd, char* out, std::size_t n, uint64_t offset) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return true;
}

// Footer (64 bytes): data, index, block-count, cell-count, column-bloom
// and row-bloom sizes (u64 each), then the data CRC, the metadata CRC,
// the format version and the magic (u32 each).
constexpr std::size_t kFooterSize = 6 * sizeof(uint64_t) + 4 * sizeof(uint32_t);

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view file, RateLimiter* limiter) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot create " + tmp);
    constexpr std::size_t kChunk = 256 * 1024;
    for (std::size_t off = 0; off < file.size(); off += kChunk) {
      const std::size_t n = std::min(kChunk, file.size() - off);
      if (limiter != nullptr) limiter->Acquire(n);
      out.write(file.data() + off, static_cast<std::streamsize>(n));
    }
    if (!out) return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " -> " + path);
  }
  return Status::OK();
}

Status SSTable::Write(const std::string& path, const std::vector<Cell>& cells,
                      RateLimiter* limiter, uint64_t* bytes_written) {
  TITANT_RETURN_IF_ERROR(CheckSorted(cells));

  // The file is built in one string. Data region first: whole records
  // packed into blocks. A block closes once it reaches kBlockSize, so
  // records never straddle a boundary and a block is independently
  // decodable.
  std::string file;
  std::string index;
  std::vector<uint64_t> offsets;
  BloomFilter bloom(cells.size());
  BloomFilter row_bloom(cells.size(), /*bits_per_key=*/10);
  std::size_t block_start = 0;
  for (const Cell& cell : cells) {
    if (offsets.empty() || file.size() - block_start >= kBlockSize) {
      block_start = file.size();
      offsets.push_back(block_start);
      EncodeCellTo(&index, cell.key, /*tombstone=*/false, /*value=*/{});
    }
    bloom.Add(BloomKeyOf(cell.key.row, cell.key.family, cell.key.qualifier));
    row_bloom.AddHash(BloomHashOf(cell.key.row));
    EncodeCellTo(&file, cell.key, cell.tombstone, cell.value);
  }
  const std::size_t data_size = file.size();
  const uint32_t data_crc = Crc32(file);

  // Per-block checksums, verified on every disk read (a cache hit serves
  // pre-verified bytes, so the read path only pays this on a miss).
  std::vector<uint32_t> block_crcs(offsets.size());
  for (std::size_t b = 0; b < offsets.size(); ++b) {
    const std::size_t start = static_cast<std::size_t>(offsets[b]);
    const std::size_t end =
        b + 1 < offsets.size() ? static_cast<std::size_t>(offsets[b + 1]) : data_size;
    block_crcs[b] = Crc32(std::string_view(file).substr(start, end - start));
  }

  // Metadata region, appended after the data and covered by its own CRC.
  ByteWriter w(&file);
  w.Bytes(index);
  w.Array(offsets.data(), offsets.size());
  w.Array(block_crcs.data(), block_crcs.size());
  w.Bytes(bloom.payload());
  w.Bytes(row_bloom.payload());
  const uint32_t meta_crc = Crc32(std::string_view(file).substr(data_size));

  w.U64(data_size);
  w.U64(index.size());
  w.U64(offsets.size());
  w.U64(cells.size());
  w.U64(bloom.payload().size());
  w.U64(row_bloom.payload().size());
  w.U32(data_crc);
  w.U32(meta_crc);
  w.U32(kFormatVersion);
  w.U32(kMagic);

  TITANT_RETURN_IF_ERROR(WriteFileAtomic(path, file, limiter));
  if (bytes_written != nullptr) *bytes_written = file.size();
  return Status::OK();
}

StatusOr<SSTable> SSTable::Open(const std::string& path, BlockCache* cache) {
  // The descriptor stays open for block preads; the table's destructor
  // closes it on every early return below.
  SSTable table;
  table.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (table.fd_ < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(table.fd_, &st) != 0) return Status::IOError("cannot stat " + path);
  // One read of the whole file; every check and decode below works on
  // views of this buffer, which is dropped when Open returns.
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  const auto buffer = std::make_unique_for_overwrite<char[]>(size);
  if (!ReadFull(table.fd_, buffer.get(), size, 0)) {
    return Status::IOError("cannot read " + path);
  }
  const std::string_view file(buffer.get(), size);

  if (file.size() < sizeof(uint32_t)) {
    return Status::DataLoss("SSTable too small (no magic): " + path);
  }
  uint32_t magic = 0;
  ByteReader(file.substr(file.size() - sizeof(magic))).U32(&magic);
  if (magic != kMagic) return Status::DataLoss("bad SSTable magic: " + path);

  if (file.size() < kFooterSize) return Status::DataLoss("short SSTable footer: " + path);
  ByteReader footer(file.substr(file.size() - kFooterSize));
  uint64_t data_size = 0, index_size = 0, num_blocks = 0, num_cells = 0;
  uint64_t bloom_size = 0, row_bloom_size = 0;
  uint32_t data_crc = 0, meta_crc = 0, version = 0;
  footer.U64(&data_size);
  footer.U64(&index_size);
  footer.U64(&num_blocks);
  footer.U64(&num_cells);
  footer.U64(&bloom_size);
  footer.U64(&row_bloom_size);
  footer.U32(&data_crc);
  footer.U32(&meta_crc);
  footer.U32(&version);
  // The version sits 8 bytes before the end in every footer layout, so a
  // table written by an older layout is named as such here.
  if (version != kFormatVersion) {
    return Status::DataLoss("unsupported SSTable version: " + path);
  }
  // Bound every count by the bytes before the footer before multiplying
  // or adding: a flipped high bit of num_blocks would otherwise wrap the
  // sum below back to the file size (12 * 2^62 == 0 mod 2^64) and size
  // the index reservation from the bogus count.
  const uint64_t body = file.size() - kFooterSize;
  if (data_size > body || index_size > body || bloom_size > body || row_bloom_size > body ||
      !CountFits(num_blocks, sizeof(uint64_t) + sizeof(uint32_t), body)) {
    return Status::DataLoss("bad SSTable geometry: " + path);
  }
  const uint64_t offsets_size = num_blocks * sizeof(uint64_t);
  const uint64_t crcs_size = num_blocks * sizeof(uint32_t);
  if (data_size + index_size + offsets_size + crcs_size + bloom_size + row_bloom_size != body) {
    return Status::DataLoss("bad SSTable geometry: " + path);
  }

  // The metadata (index keys, block offsets and CRCs, both filters) is
  // verified before any of it is decoded; a flipped bit there would
  // otherwise open cleanly and answer NotFound for present cells. The
  // data region is verified in one sequential pass here, then re-read
  // block by block on demand.
  const std::string_view meta = file.substr(data_size, body - data_size);
  if (Crc32(meta) != meta_crc) {
    return Status::DataLoss("SSTable metadata CRC mismatch: " + path);
  }
  if (Crc32(file.substr(0, data_size)) != data_crc) {
    return Status::DataLoss("SSTable data CRC mismatch: " + path);
  }

  table.path_ = path;
  table.table_id_ = BlockCache::NextTableId();
  table.data_size_ = data_size;
  table.num_cells_ = static_cast<std::size_t>(num_cells);
  table.cache_ = cache;

  ByteReader index(meta.substr(0, index_size));
  table.index_keys_.reserve(static_cast<std::size_t>(num_blocks));
  for (uint64_t i = 0; i < num_blocks; ++i) {
    CellViewRec key;
    if (!DecodeCellView(&index, &key)) return Status::DataLoss("bad SSTable index: " + path);
    table.index_keys_.push_back(CellKey{std::string(key.row), std::string(key.family),
                                        std::string(key.qualifier), key.version});
  }
  // Both arrays fit: the geometry check above bounded num_blocks.
  ByteReader arrays(meta.substr(index_size, offsets_size + crcs_size));
  arrays.Array(num_blocks, &table.index_offsets_);
  arrays.Array(num_blocks, &table.block_crcs_);
  // Blocks tile the data region from offset 0 in increasing order, so
  // every block size the read paths derive from these is positive.
  const std::vector<uint64_t>& offsets = table.index_offsets_;
  for (std::size_t b = 0; b < offsets.size(); ++b) {
    const bool ordered = b == 0 ? offsets[b] == 0 : offsets[b] > offsets[b - 1];
    if (!ordered || offsets[b] >= data_size) {
      return Status::DataLoss("bad SSTable block offsets: " + path);
    }
  }
  if (offsets.empty() && data_size != 0) {
    return Status::DataLoss("bad SSTable block offsets: " + path);
  }
  const std::string_view blooms = meta.substr(index_size + offsets_size + crcs_size);
  table.bloom_ = BloomFilter::FromPayload(std::string(blooms.substr(0, bloom_size)));
  table.row_bloom_ = BloomFilter::FromPayload(std::string(blooms.substr(bloom_size)));
  return table;
}

SSTable::SSTable(SSTable&& other) noexcept { *this = std::move(other); }

SSTable& SSTable::operator=(SSTable&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) ::close(fd_);
  path_ = std::move(other.path_);
  fd_ = other.fd_;
  other.fd_ = -1;
  data_size_ = other.data_size_;
  table_id_ = other.table_id_;
  cache_ = other.cache_;
  index_keys_ = std::move(other.index_keys_);
  index_offsets_ = std::move(other.index_offsets_);
  block_crcs_ = std::move(other.block_crcs_);
  bloom_ = std::move(other.bloom_);
  row_bloom_ = std::move(other.row_bloom_);
  num_cells_ = other.num_cells_;
  return *this;
}

SSTable::~SSTable() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t SSTable::BlockSizeOf(std::size_t b) const {
  const uint64_t start = index_offsets_[b];
  const uint64_t end = b + 1 < index_offsets_.size() ? index_offsets_[b + 1] : data_size_;
  return static_cast<std::size_t>(end - start);
}

namespace {

/// Without a block cache nothing keeps a block past its reader's pin, so
/// reads reuse per-thread buffers instead of allocating one per block.
/// Two cover every reader: AliHBase::FindViewLocked keeps the winning
/// table's block pinned while it reads the older tables' blocks. A buffer
/// is free when this thread holds its only reference; should both be
/// pinned, a fresh one is made.
std::shared_ptr<std::string> UncachedBlockBuffer() {
  thread_local std::shared_ptr<std::string> buffers[2] = {std::make_shared<std::string>(),
                                                          std::make_shared<std::string>()};
  for (const auto& buffer : buffers) {
    if (buffer.use_count() == 1) return buffer;
  }
  return std::make_shared<std::string>();
}

}  // namespace

bool SSTable::ReadBlockView(std::size_t b, BlockCache::Block* pin, std::string_view* out,
                            Status* io_status) const {
  if (cache_ != nullptr && cache_->Get(table_id_, static_cast<uint32_t>(b), pin)) {
    *out = **pin;
    return true;
  }
  // A cached block outlives this read, so it gets its own buffer.
  std::shared_ptr<std::string> block =
      cache_ != nullptr ? std::make_shared<std::string>() : UncachedBlockBuffer();
  block->resize(BlockSizeOf(b));
  if (!ReadFull(fd_, block->data(), block->size(), index_offsets_[b])) {
    if (io_status != nullptr) *io_status = Status::DataLoss("SSTable block read failed: " + path_);
    return false;
  }
  // Verify before the block becomes visible: cached blocks are always
  // pre-verified, so bit rot surfaces as loud DataLoss on the first read.
  if (Crc32(*block) != block_crcs_[b]) {
    if (io_status != nullptr) {
      *io_status = Status::DataLoss("SSTable block CRC mismatch: " + path_);
    }
    return false;
  }
  BlockCache::Block shared = std::move(block);
  if (cache_ != nullptr) cache_->Insert(table_id_, static_cast<uint32_t>(b), shared);
  *pin = std::move(shared);
  *out = **pin;
  return true;
}

std::optional<Cell> SSTable::Get(const std::string& row, const std::string& family,
                                 const std::string& qualifier, uint64_t snapshot) const {
  CellViewRec rec;
  BlockCache::Block pin;
  if (!GetView(row, family, qualifier, snapshot, BloomHashOf(row), &rec, &pin)) {
    return std::nullopt;
  }
  Cell cell;
  cell.key.row = std::string(rec.row);
  cell.key.family = std::string(rec.family);
  cell.key.qualifier = std::string(rec.qualifier);
  cell.key.version = rec.version;
  cell.tombstone = rec.tombstone;
  cell.value = std::string(rec.value);
  return cell;
}

std::size_t SSTable::SeekBlock(std::string_view row, std::string_view family,
                               std::string_view qualifier, uint64_t snapshot) const {
  // Binary-search the index for the first key > target, where the target
  // sits at (row, family, qualifier, snapshot) in CellKey order (versions
  // descend within a column). Hand-rolled so the probe compares
  // string_views against the index keys without materializing a CellKey.
  const auto& keys = index_keys_;
  std::size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const CellKey& k = keys[mid];
    const int c = CompareRfq(row, family, qualifier, k.row, k.family, k.qualifier);
    if (c < 0 || (c == 0 && snapshot > k.version)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

bool SSTable::GetView(std::string_view row, std::string_view family, std::string_view qualifier,
                      uint64_t snapshot, uint64_t row_hash, CellViewRec* out,
                      BlockCache::Block* pin, Status* io_status) const {
  if (!row_bloom_.MayContainHash(row_hash)) return false;
  if (!bloom_.MayContainColumn(row, family, qualifier)) return false;
  if (index_keys_.empty()) return false;

  // Scan forward from the candidate block. The target column usually
  // resolves within it; a column whose versions span a boundary continues
  // into the next block.
  CellViewRec rec;
  for (std::size_t b = SeekBlock(row, family, qualifier, snapshot); b < index_offsets_.size();
       ++b) {
    std::string_view data;
    if (!ReadBlockView(b, pin, &data, io_status)) return false;
    ByteReader records(data);
    while (!records.done()) {
      if (!DecodeCellView(&records, &rec)) return false;
      const int c = CompareRfq(rec.row, rec.family, rec.qualifier, row, family, qualifier);
      if (c < 0) continue;                   // Still before the column.
      if (c > 0) return false;               // Past it without a hit: absent.
      if (rec.version > snapshot) continue;  // Too new for this snapshot.
      *out = rec;                            // Newest version <= snapshot.
      return true;
    }
  }
  return false;
}

bool SSTable::Iterator::LoadBlock(std::size_t block) {
  block_ = block;
  pos_ = 0;
  if (block >= table_->index_offsets_.size()) return false;
  buffer_.resize(table_->BlockSizeOf(block));
  if (!ReadFull(table_->fd_, buffer_.data(), buffer_.size(), table_->index_offsets_[block])) {
    status_ = Status::DataLoss("SSTable block read failed: " + table_->path_);
    return false;
  }
  if (Crc32(buffer_) != table_->block_crcs_[block]) {
    status_ = Status::DataLoss("SSTable block CRC mismatch: " + table_->path_);
    return false;
  }
  return true;
}

void SSTable::Iterator::LoadAt(std::size_t block, std::size_t pos) {
  valid_ = false;
  if (!LoadBlock(block)) return;
  pos_ = pos;
  Next();
}

void SSTable::Iterator::SeekToFirst() {
  valid_ = false;
  status_ = Status::OK();
  if (table_->index_offsets_.empty()) return;
  LoadAt(0, 0);
}

void SSTable::Iterator::Seek(const CellKey& start) {
  valid_ = false;
  status_ = Status::OK();
  const auto& keys = table_->index_keys_;
  if (keys.empty()) return;
  // Find the last index key <= start, then scan forward.
  auto it = std::upper_bound(keys.begin(), keys.end(), start);
  const std::size_t entry =
      it == keys.begin() ? 0 : static_cast<std::size_t>(it - keys.begin()) - 1;
  LoadAt(entry, 0);
  while (valid_ && current_.key < start) Next();
}

void SSTable::Iterator::Next() {
  valid_ = false;
  while (true) {
    if (pos_ < buffer_.size()) {
      ByteReader records(std::string_view(buffer_).substr(pos_));
      valid_ = DecodeCell(&records, &current_);
      pos_ = buffer_.size() - records.remaining();
      return;
    }
    if (!LoadBlock(block_ + 1)) return;  // Cross the block boundary.
  }
}

}  // namespace titant::kvstore
