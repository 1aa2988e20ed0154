// Tests for the Ali-HBase substrate: skiplist, cell codec, WAL, SSTable
// and the column-family store (versioning, tombstones, recovery,
// compaction, concurrency).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>

#include "common/random.h"
#include "kvstore/bloom.h"
#include "kvstore/cell.h"
#include "kvstore/skiplist.h"
#include "kvstore/sstable.h"
#include "kvstore/store.h"
#include "kvstore/wal.h"

namespace titant::kvstore {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  const std::string dir = "/tmp/titant_kvtest_" + tag;
  fs::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// SkipList
// ---------------------------------------------------------------------------

class SkipListParamTest : public ::testing::TestWithParam<int> {};

TEST_P(SkipListParamTest, BehavesLikeOrderedSet) {
  const int n = GetParam();
  SkipList<int> list;
  std::set<int> reference;
  Rng rng(static_cast<uint64_t>(n));
  for (int i = 0; i < n; ++i) {
    const int key = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
    EXPECT_EQ(list.Insert(key), reference.insert(key).second);
  }
  EXPECT_EQ(list.size(), reference.size());

  // Iteration order matches the set.
  SkipList<int>::Iterator it(&list);
  it.SeekToFirst();
  for (int expected : reference) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), expected);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());

  // Contains and Seek agree with the set.
  for (int probe = -5; probe < n + 5; ++probe) {
    EXPECT_EQ(list.Contains(probe), reference.count(probe) > 0);
    it.Seek(probe);
    auto lower = reference.lower_bound(probe);
    if (lower == reference.end()) {
      EXPECT_FALSE(it.Valid());
    } else {
      ASSERT_TRUE(it.Valid());
      EXPECT_EQ(it.key(), *lower);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SkipListParamTest, ::testing::Values(1, 10, 200, 3000));

// ---------------------------------------------------------------------------
// Cell codec
// ---------------------------------------------------------------------------

TEST(CellTest, EncodeDecodeRoundTrip) {
  Cell cell;
  cell.key = CellKey{"rowkey", "bf", "snapshot", 20170410};
  cell.value = std::string("binary\0data", 11);
  cell.tombstone = true;
  std::string blob;
  EncodeCellTo(&blob, cell.key, cell.tombstone, cell.value);
  ByteReader reader(blob);
  Cell parsed;
  ASSERT_TRUE(DecodeCell(&reader, &parsed));
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(parsed.key, cell.key);
  EXPECT_EQ(parsed.value, cell.value);
  EXPECT_TRUE(parsed.tombstone);
}

TEST(CellTest, DecodeRejectsTruncation) {
  const CellKey key{"r", "f", "q", 1};
  std::string blob;
  EncodeCellTo(&blob, key, /*tombstone=*/false, "v");
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    Cell out;
    CellViewRec view;
    ByteReader reader(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(DecodeCell(&reader, &out)) << "cut=" << cut;
    ByteReader view_reader(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(DecodeCellView(&view_reader, &view)) << "cut=" << cut;
  }
  // The smallest record is an all-empty cell.
  std::string empty;
  EncodeCellTo(&empty, CellKey{}, /*tombstone=*/false, "");
  EXPECT_EQ(empty.size(), kCellMinBytes);
}

TEST(CellTest, KeyOrderingNewestVersionFirst) {
  const CellKey a{"r", "f", "q", 5};
  const CellKey b{"r", "f", "q", 3};
  EXPECT_LT(a, b);  // Higher version sorts first within a column.
  const CellKey c{"r", "f", "r", 9};
  EXPECT_LT(b, c);  // Qualifier order dominates version.
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

// The bytewise table loop Crc32 used before its slicing-by-8 kernel, kept
// verbatim as the reference the kernel must match.
uint32_t ReferenceCrc32(std::string_view data) {
  static uint32_t table[256];
  static bool initialized = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return true;
  }();
  (void)initialized;
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char ch : data) crc = table[(crc ^ ch) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string(4096, '\0')), 0xC71C0011u);
}

// Every length 0..4999 from every start offset 0..7, so each tail length
// and each alignment of the 8-byte loads meets the reference.
TEST(Crc32Test, MatchesTheBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(2019);
  std::string bytes(5000 + 8, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
  const std::string_view all(bytes);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len < 5000; ++len) {
      const std::string_view data = all.substr(offset, len);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data)) << "offset " << offset << " len " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

TEST(WalTest, AppendAndReadAll) {
  const std::string dir = TempDir("wal");
  fs::create_directories(dir);
  const std::string path = dir + "/wal.log";
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append("first").ok());
    ASSERT_TRUE(wal->Append("").ok());
    ASSERT_TRUE(wal->Append("third record").ok());
  }
  const auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, (std::vector<std::string>{"first", "", "third record"}));
}

TEST(WalTest, TornTailIsDropped) {
  const std::string dir = TempDir("waltear");
  fs::create_directories(dir);
  const std::string path = dir + "/wal.log";
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append("intact").ok());
    ASSERT_TRUE(wal->Append("to be torn").ok());
  }
  // Truncate mid-record.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 4);
  const auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, std::vector<std::string>{"intact"});
}

TEST(WalTest, CorruptCrcStopsReplay) {
  const std::string dir = TempDir("walcrc");
  fs::create_directories(dir);
  const std::string path = dir + "/wal.log";
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append("good").ok());
    ASSERT_TRUE(wal->Append("bad!").ok());
  }
  // Flip a payload byte of the second record.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, -1, SEEK_END);
  std::fputc('X', f);
  std::fclose(f);
  const auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, std::vector<std::string>{"good"});
}

TEST(WalTest, MissingFileIsEmpty) {
  const auto records = WriteAheadLog::ReadAll("/tmp/titant_no_such_wal.log");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}


// ---------------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(1000);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back("key_" + std::to_string(i));
  for (const auto& key : keys) filter.Add(key);
  for (const auto& key : keys) EXPECT_TRUE(filter.MayContain(key)) << key;
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter filter(2000, 10);
  for (int i = 0; i < 2000; ++i) filter.Add("present_" + std::to_string(i));
  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    false_positives += filter.MayContain("absent_" + std::to_string(i));
  }
  // 10 bits/key targets ~1%; allow generous slack.
  EXPECT_LT(false_positives, probes / 20);
}

TEST(BloomFilterTest, PayloadRoundTripAndMatchAll) {
  BloomFilter filter(100);
  filter.Add("x");
  const BloomFilter restored = BloomFilter::FromPayload(filter.payload());
  EXPECT_TRUE(restored.MayContain("x"));
  const BloomFilter match_all = BloomFilter::FromPayload("");
  EXPECT_TRUE(match_all.MayContain("anything"));
}

// ---------------------------------------------------------------------------
// SSTable
// ---------------------------------------------------------------------------

// Zero-padded row helper (keeps lexicographic == numeric order).
std::string StrCatRow(int r) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "row%06d", r);
  return buf;
}

std::vector<Cell> MakeSortedCells(int rows, int versions) {
  std::vector<Cell> cells;
  for (int r = 0; r < rows; ++r) {
    for (int v = versions; v >= 1; --v) {  // Version descending within key.
      Cell cell;
      cell.key = CellKey{StrCatRow(r), "bf", "q", static_cast<uint64_t>(v)};
      cell.value = "val_" + std::to_string(r) + "_" + std::to_string(v);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

TEST(SSTableTest, WriteOpenGet) {
  const std::string dir = TempDir("sst");
  fs::create_directories(dir);
  const std::string path = dir + "/1.sst";
  const auto cells = MakeSortedCells(100, 3);
  ASSERT_TRUE(SSTable::Write(path, cells).ok());
  const auto table = SSTable::Open(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_cells(), 300u);

  // Latest version at unbounded snapshot.
  auto cell = table->Get(StrCatRow(42), "bf", "q", UINT64_MAX);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, "val_42_3");
  // Snapshot pinned to version 2.
  cell = table->Get(StrCatRow(42), "bf", "q", 2);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, "val_42_2");
  // Missing row.
  EXPECT_FALSE(table->Get("rowZZZ", "bf", "q", UINT64_MAX).has_value());
  // Missing qualifier.
  EXPECT_FALSE(table->Get(StrCatRow(42), "bf", "nope", UINT64_MAX).has_value());
}

TEST(SSTableTest, IteratorCoversAllCellsInOrder) {
  const std::string dir = TempDir("sstiter");
  fs::create_directories(dir);
  const std::string path = dir + "/1.sst";
  const auto cells = MakeSortedCells(50, 2);
  ASSERT_TRUE(SSTable::Write(path, cells).ok());
  const auto table = SSTable::Open(path);
  ASSERT_TRUE(table.ok());
  SSTable::Iterator it(&*table);
  std::size_t count = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    ASSERT_LT(count, cells.size());
    EXPECT_EQ(it.cell().key, cells[count].key);
    EXPECT_EQ(it.cell().value, cells[count].value);
    ++count;
  }
  EXPECT_EQ(count, cells.size());
}

TEST(SSTableTest, RejectsUnsortedInput) {
  auto cells = MakeSortedCells(5, 1);
  std::swap(cells[0], cells[1]);
  EXPECT_FALSE(SSTable::Write("/tmp/titant_bad.sst", cells).ok());
}

TEST(SSTableTest, DetectsCorruption) {
  const std::string dir = TempDir("sstcorrupt");
  fs::create_directories(dir);
  const std::string path = dir + "/1.sst";
  ASSERT_TRUE(SSTable::Write(path, MakeSortedCells(20, 1)).ok());
  // Flip a data byte.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 10, SEEK_SET);
  std::fputc('X', f);
  std::fclose(f);
  EXPECT_FALSE(SSTable::Open(path).ok());

  // A file ending in "TSST", the magic of the retired v1 layout, is not
  // an SSTable either.
  ASSERT_TRUE(SSTable::Write(path, MakeSortedCells(20, 1)).ok());
  f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, -4, SEEK_END);
  std::fwrite("TSST", 1, 4, f);
  std::fclose(f);
  const auto v1 = SSTable::Open(path);
  ASSERT_FALSE(v1.ok());
  EXPECT_EQ(v1.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(v1.status().message().find("bad SSTable magic"), std::string::npos);
}

// A damaged SSTable must never abort the process or serve a wrong cell.
// Every single-bit flip of the 64-byte footer, and every truncation of
// the file, opens as DataLoss or reads every cell back unchanged. Every
// single-bit flip of the metadata (index keys, block offsets, block CRCs,
// both Bloom filters) fails Open as DataLoss: a flip there would
// otherwise open cleanly and answer NotFound for present cells.
TEST(SSTableTest, DamagedFooterOrOffsetsFailAsDataLoss) {
  const std::string dir = TempDir("sstdamage");
  fs::create_directories(dir);
  const std::string path = dir + "/1.sst";
  const auto cells = MakeSortedCells(100, 2);  // Three blocks.
  ASSERT_TRUE(SSTable::Write(path, cells).ok());
  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  constexpr std::size_t kFooter = 6 * sizeof(uint64_t) + 4 * sizeof(uint32_t);
  ASSERT_GT(file.size(), kFooter);
  const char* footer = file.data() + file.size() - kFooter;
  uint64_t data_size = 0, index_size = 0, num_blocks = 0, bloom_size = 0, row_bloom_size = 0;
  uint32_t version = 0;
  std::memcpy(&data_size, footer, 8);
  std::memcpy(&index_size, footer + 8, 8);
  std::memcpy(&num_blocks, footer + 16, 8);
  std::memcpy(&bloom_size, footer + 32, 8);
  std::memcpy(&row_bloom_size, footer + 40, 8);
  std::memcpy(&version, footer + 56, 4);
  ASSERT_EQ(num_blocks, 3u);
  ASSERT_EQ(version, 3u);
  const std::size_t offsets_at = data_size + index_size;
  const std::size_t crcs_at = offsets_at + num_blocks * sizeof(uint64_t);
  const std::size_t bloom_at = crcs_at + num_blocks * sizeof(uint32_t);
  const std::size_t row_bloom_at = bloom_at + bloom_size;
  ASSERT_EQ(row_bloom_at + row_bloom_size, file.size() - kFooter);

  // Each case damages the file in place, then opens and reads it back.
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  auto check = [&](bool must_fail_open, const std::string& what) {
    StatusOr<SSTable> table = SSTable::Open(path);
    if (!table.ok()) {
      EXPECT_EQ(table.status().code(), StatusCode::kDataLoss) << what;
      return;
    }
    EXPECT_FALSE(must_fail_open) << what << " opened";
    SSTable::Iterator it(&*table);
    std::size_t n = 0;
    for (it.SeekToFirst(); it.Valid(); it.Next(), ++n) {
      ASSERT_LT(n, cells.size()) << what;
      ASSERT_EQ(it.cell().key, cells[n].key) << what;
      ASSERT_EQ(it.cell().value, cells[n].value) << what;
    }
    EXPECT_TRUE(it.status().ok()) << what;
    EXPECT_EQ(n, cells.size()) << what;
  };
  auto check_flips = [&](std::size_t first_byte, std::size_t bytes, bool must_fail_open,
                         const std::string& region) {
    ASSERT_GT(bytes, 0u) << region;
    for (std::size_t bit = 0; bit < bytes * 8; ++bit) {
      const std::size_t pos = first_byte + bit / 8;
      const char damaged = static_cast<char>(file[pos] ^ (1 << (bit % 8)));
      ASSERT_EQ(::pwrite(fd, &damaged, 1, static_cast<off_t>(pos)), 1);
      check(must_fail_open, region + " bit " + std::to_string(bit));
      ASSERT_EQ(::pwrite(fd, &file[pos], 1, static_cast<off_t>(pos)), 1);
    }
  };
  check_flips(file.size() - kFooter, kFooter, false, "footer");
  check_flips(data_size, index_size, true, "index key");
  check_flips(offsets_at, crcs_at - offsets_at, true, "offset");
  check_flips(crcs_at, bloom_at - crcs_at, true, "block crc");
  check_flips(bloom_at, bloom_size, true, "column bloom");
  check_flips(row_bloom_at, row_bloom_size, true, "row bloom");
  for (std::size_t cut = file.size(); cut-- > 0;) {
    ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(cut)), 0);
    check(false, "prefix " + std::to_string(cut));
  }
  ::close(fd);
}

// A table written with the version-2 footer (60 bytes, no metadata CRC)
// is named as an older layout, not misread.
TEST(SSTableTest, VersionTwoFooterFailsAsUnsupported) {
  const std::string dir = TempDir("sstv2");
  fs::create_directories(dir);
  const std::string path = dir + "/1.sst";
  ASSERT_TRUE(SSTable::Write(path, MakeSortedCells(20, 1)).ok());
  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // v2 footer: the same six sizes and data CRC, then version 2 and the
  // magic; v3 adds the metadata CRC after the data CRC.
  const std::size_t footer_at = file.size() - 64;
  std::string v2 = file.substr(0, footer_at + 52);
  const uint32_t two = 2;
  v2.append(reinterpret_cast<const char*>(&two), sizeof(two));
  v2.append(file, file.size() - 4, 4);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(v2.data(), static_cast<std::streamsize>(v2.size()));
  }
  const auto table = SSTable::Open(path);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(table.status().message().find("unsupported SSTable version"), std::string::npos);
}

// ---------------------------------------------------------------------------
// AliHBase store
// ---------------------------------------------------------------------------

StoreOptions MemOptions() {
  StoreOptions options;
  options.column_families = {"bf", "emb"};
  options.durable = false;
  return options;
}

TEST(StoreTest, PutGetLatestAndVersioned) {
  auto store = AliHBase::Open(MemOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("alice", "bf", "age", "30", 100).ok());
  ASSERT_TRUE((*store)->Put("alice", "bf", "age", "31", 200).ok());

  EXPECT_EQ(*(*store)->Get("alice", "bf", "age"), "31");
  EXPECT_EQ(*(*store)->Get("alice", "bf", "age", 150), "30");
  EXPECT_FALSE((*store)->Get("alice", "bf", "age", 50).ok());
  EXPECT_TRUE((*store)->Get("bob", "bf", "age").status().IsNotFound());
}

TEST(StoreTest, RejectsUndeclaredFamily) {
  auto store = AliHBase::Open(MemOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Put("r", "nope", "q", "v", 1).IsInvalidArgument());
  EXPECT_TRUE((*store)->Get("r", "nope", "q").status().IsInvalidArgument());
  EXPECT_FALSE((*store)->Put("", "bf", "q", "v", 1).ok());
}

TEST(StoreTest, DeleteShadowsOlderVersions) {
  auto store = AliHBase::Open(MemOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("u", "bf", "x", "old", 10).ok());
  ASSERT_TRUE((*store)->Delete("u", "bf", "x", 20).ok());
  EXPECT_TRUE((*store)->Get("u", "bf", "x").status().IsNotFound());
  // Reading below the tombstone still sees the old value.
  EXPECT_EQ(*(*store)->Get("u", "bf", "x", 15), "old");
  // A later write over the tombstone is visible.
  ASSERT_TRUE((*store)->Put("u", "bf", "x", "new", 30).ok());
  EXPECT_EQ(*(*store)->Get("u", "bf", "x"), "new");
}

TEST(StoreTest, OverwriteSameVersionTakesLatestWrite) {
  auto store = AliHBase::Open(MemOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("u", "bf", "x", "first", 7).ok());
  ASSERT_TRUE((*store)->Put("u", "bf", "x", "second", 7).ok());
  EXPECT_EQ(*(*store)->Get("u", "bf", "x"), "second");
}

// The range [row, row + '\0') holds exactly one row key.
std::string RowEnd(const std::string& row) { return row + '\0'; }

// One MultiGetView batch; the views stay valid while `pin` does.
std::vector<StatusOr<std::string_view>> ViewBatch(const AliHBase& store,
                                                  const std::vector<ColumnProbeView>& probes,
                                                  ReadPin* pin,
                                                  uint64_t snapshot = UINT64_MAX) {
  std::vector<StatusOr<std::string_view>> out(probes.size(),
                                              StatusOr<std::string_view>(std::string_view()));
  store.MultiGetView(probes.data(), probes.size(), pin, out.data(), snapshot);
  return out;
}

TEST(StoreTest, ScanReadsOneRowAndARange) {
  auto store = AliHBase::Open(MemOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("u1", "bf", "age", "30", 1).ok());
  ASSERT_TRUE((*store)->Put("u1", "emb", "vec", "E1", 1).ok());
  ASSERT_TRUE((*store)->Put("u2", "bf", "age", "40", 1).ok());
  ASSERT_TRUE((*store)->Put("u3", "bf", "age", "50", 1).ok());

  // Every visible column of one row, in (family, qualifier) order.
  const auto row = (*store)->Scan("u1", RowEnd("u1"));
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->size(), 2u);
  EXPECT_EQ((*row)[0].key, (CellKey{"u1", "bf", "age", 1}));
  EXPECT_EQ((*row)[0].value, "30");
  EXPECT_EQ((*row)[1].key, (CellKey{"u1", "emb", "vec", 1}));
  EXPECT_EQ((*row)[1].value, "E1");

  const auto scan = (*store)->Scan("u1", "u3");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 3u);  // u1 x2 + u2 x1; u3 excluded.
  const auto limited = (*store)->Scan("u1", "", UINT64_MAX, 2);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 2u);
}

TEST(StoreTest, MultiGetViewPreservesProbeOrderAndPerProbeErrors) {
  auto store = AliHBase::Open(MemOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("u1", "bf", "age", "30", 1).ok());
  ASSERT_TRUE((*store)->Put("u2", "bf", "age", "40", 1).ok());
  ASSERT_TRUE((*store)->Put("u1", "emb", "vec", "E1", 1).ok());

  // Deliberately unsorted probe order, with failures interleaved: results
  // must come back in probe order, and a failing probe must not poison
  // its batch siblings.
  const std::vector<ColumnProbeView> probes = {
      {"u2", "bf", "age"},       // hit
      {"u9", "bf", "age"},       // NotFound: absent row
      {"u1", "emb", "vec"},      // hit
      {"u1", "nope", "q"},       // InvalidArgument: undeclared family
      {"u1", "bf", "age"},       // hit
  };
  ReadPin pin;
  const auto results = ViewBatch(**store, probes, &pin);
  EXPECT_EQ(*results[0], "40");
  EXPECT_TRUE(results[1].status().IsNotFound());
  EXPECT_EQ(*results[2], "E1");
  EXPECT_TRUE(results[3].status().IsInvalidArgument());
  EXPECT_EQ(*results[4], "30");
}

TEST(StoreTest, MultiGetViewDuplicateProbesAndSnapshot) {
  auto store = AliHBase::Open(MemOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("u", "bf", "x", "old", 10).ok());
  ASSERT_TRUE((*store)->Put("u", "bf", "x", "new", 20).ok());

  // Duplicate coordinates collapse to one lookup internally but still get
  // one result slot each.
  const std::vector<ColumnProbeView> probes = {
      {"u", "bf", "x"}, {"u", "bf", "x"}, {"u", "bf", "x"}};
  ReadPin pin;
  for (const auto& value : ViewBatch(**store, probes, &pin)) EXPECT_EQ(*value, "new");

  // The snapshot applies to every probe of the batch.
  for (const auto& value : ViewBatch(**store, probes, &pin, 15)) EXPECT_EQ(*value, "old");
  for (const auto& value : ViewBatch(**store, probes, &pin, 5)) {
    EXPECT_TRUE(value.status().IsNotFound());
  }

  // An empty batch reads nothing and writes no result slot.
  StatusOr<std::string_view> untouched(Status::Unavailable("sentinel"));
  (*store)->MultiGetView(nullptr, 0, &pin, &untouched);
  EXPECT_TRUE(untouched.status().IsUnavailable());
}

TEST(StoreTest, MultiGetViewMatchesGetAcrossMemtableAndSSTablesAndReusesPin) {
  const std::string dir = TempDir("multigetview");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  auto store = AliHBase::Open(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        (*store)->Put("row" + std::to_string(i), "bf", "q", "sst" + std::to_string(i), 1).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  // Overwrite a few rows so the memtable shadows the SSTable for them.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        (*store)->Put("row" + std::to_string(i), "bf", "q", "mem" + std::to_string(i), 2).ok());
  }

  // Probe keys live in caller storage (here: strings; in serving: stack
  // buffers) — the store must not need owned keys.
  std::vector<std::string> keys;
  std::vector<ColumnProbeView> probes;
  for (int i = 39; i >= 0; --i) keys.push_back("row" + std::to_string(i));
  for (const std::string& key : keys) probes.push_back({key, "bf", "q"});
  probes.push_back({"row3", "bf", "q"});       // Duplicate coordinate.
  probes.push_back({"absent", "bf", "q"});     // NotFound.
  probes.push_back({"row1", "nope", "q"});     // InvalidArgument.

  ReadPin pin;
  std::vector<StatusOr<std::string_view>> views(
      probes.size(), StatusOr<std::string_view>(std::string_view()));
  // Two rounds through one pin: results must be identical and the second
  // round must be able to reuse the arena after Reset.
  for (int round = 0; round < 2; ++round) {
    pin.Reset();
    (*store)->MultiGetView(probes.data(), probes.size(), &pin, views.data());
    for (std::size_t p = 0; p < keys.size(); ++p) {
      const auto single = (*store)->Get(keys[p], "bf", "q");
      ASSERT_TRUE(single.ok());
      ASSERT_TRUE(views[p].ok()) << keys[p];
      EXPECT_EQ(*views[p], *single) << keys[p];
    }
    ASSERT_TRUE(views[keys.size()].ok());
    EXPECT_EQ(*views[keys.size()], "mem3");
    EXPECT_TRUE(views[keys.size() + 1].status().IsNotFound());
    EXPECT_TRUE(views[keys.size() + 2].status().IsInvalidArgument());
  }
}

TEST(StoreTest, MultiGetViewSurvivesFlushAndCompaction) {
  const std::string dir = TempDir("multigetview_flush");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  auto store = AliHBase::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("u", "bf", "x", "pinned-value", 1).ok());

  const ColumnProbeView probe{"u", "bf", "x"};
  ReadPin pin;
  StatusOr<std::string_view> view{std::string_view()};
  (*store)->MultiGetView(&probe, 1, &pin, &view);
  ASSERT_TRUE(view.ok());
  // The view is a copy in the pin's arena, not a pointer into the
  // memtable: flushing (which tears the memtable down) must not move it.
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ(*view, "pinned-value");
}

#ifdef TITANT_ARENA_ASAN
TEST(StoreTest, MultiGetViewStaleAfterPinResetIsPoisoned) {
  auto store = AliHBase::Open(MemOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("u", "bf", "x", "soon-to-be-stale-value", 1).ok());

  const ColumnProbeView probe{"u", "bf", "x"};
  ReadPin pin;
  StatusOr<std::string_view> view{std::string_view()};
  (*store)->MultiGetView(&probe, 1, &pin, &view);
  ASSERT_TRUE(view.ok());
  const char* data = view->data();
  EXPECT_FALSE(__asan_address_is_poisoned(data));
  // Releasing the pin poisons the arena: a stale view now faults loudly
  // under ASan instead of silently reading recycled bytes.
  pin.Reset();
  EXPECT_TRUE(__asan_address_is_poisoned(data));
}
#endif

TEST(StoreTest, FlushMovesDataToSSTable) {
  const std::string dir = TempDir("flush");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  auto store = AliHBase::Open(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        (*store)->Put("row" + std::to_string(i), "bf", "q", std::to_string(i), 1).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->memtable_cells(), 0u);
  EXPECT_EQ((*store)->num_sstables(), 1u);
  EXPECT_EQ(*(*store)->Get("row42", "bf", "q"), "42");
  // Memtable value written after the flush wins over the SSTable.
  ASSERT_TRUE((*store)->Put("row42", "bf", "q", "updated", 2).ok());
  EXPECT_EQ(*(*store)->Get("row42", "bf", "q"), "updated");
}

TEST(StoreTest, RecoversFromWalAfterCrash) {
  const std::string dir = TempDir("recover");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  {
    auto store = AliHBase::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("alice", "bf", "age", "30", 1).ok());
    ASSERT_TRUE((*store)->Put("bob", "emb", "vec", "E", 1).ok());
    // "Crash": no flush, store dropped.
  }
  auto reopened = AliHBase::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("alice", "bf", "age"), "30");
  EXPECT_EQ(*(*reopened)->Get("bob", "emb", "vec"), "E");
  EXPECT_EQ((*reopened)->memtable_cells(), 2u);  // Replayed into memtable.
}

// A crash mid-append leaves a torn record at the WAL's end. Recovery must
// truncate it before the reopened store appends, or the next replay stops
// at the torn record and loses every put acknowledged after it.
TEST(StoreTest, PutAcknowledgedAfterATornWalTailSurvivesTheNextRecovery) {
  const std::string dir = TempDir("torn_wal_tail");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  {
    auto store = AliHBase::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "bf", "q", "A", 1).ok());
  }
  const std::string wal = dir + "/shard-0/wal.log";
  const auto intact = fs::file_size(wal);
  {
    // A header that claims 100 payload bytes, then only 10 of them.
    std::ofstream out(wal, std::ios::binary | std::ios::app);
    const uint32_t len = 100, crc = 0;
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.write("0123456789", 10);
  }
  ASSERT_EQ(fs::file_size(wal), intact + 18);
  {
    auto store = AliHBase::Open(options);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(*(*store)->Get("a", "bf", "q"), "A");
    EXPECT_EQ(fs::file_size(wal), intact);  // The torn tail is gone.
    ASSERT_TRUE((*store)->Put("b", "bf", "q", "B", 1).ok());
  }
  auto reopened = AliHBase::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("a", "bf", "q"), "A");
  const auto b = (*reopened)->Get("b", "bf", "q");
  ASSERT_TRUE(b.ok()) << b.status().message();
  EXPECT_EQ(*b, "B");
  EXPECT_EQ((*reopened)->memtable_cells(), 2u);
}

TEST(StoreTest, RecoversFlushedAndUnflushedData) {
  const std::string dir = TempDir("recover2");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  {
    auto store = AliHBase::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "bf", "q", "flushed", 1).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put("b", "bf", "q", "in_wal", 1).ok());
  }
  auto reopened = AliHBase::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("a", "bf", "q"), "flushed");
  EXPECT_EQ(*(*reopened)->Get("b", "bf", "q"), "in_wal");
}

TEST(StoreTest, CompactionDropsOldVersionsAndTombstones) {
  const std::string dir = TempDir("compact");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  options.max_versions = 2;
  auto store = AliHBase::Open(options);
  ASSERT_TRUE(store.ok());
  for (uint64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE((*store)->Put("u", "bf", "x", "v" + std::to_string(v), v).ok());
  }
  ASSERT_TRUE((*store)->Put("dead", "bf", "x", "gone", 1).ok());
  ASSERT_TRUE((*store)->Delete("dead", "bf", "x", 2).ok());
  ASSERT_TRUE((*store)->Compact().ok());
  EXPECT_EQ((*store)->num_sstables(), 1u);
  // Latest two versions kept.
  EXPECT_EQ(*(*store)->Get("u", "bf", "x"), "v5");
  EXPECT_EQ(*(*store)->Get("u", "bf", "x", 4), "v4");
  EXPECT_FALSE((*store)->Get("u", "bf", "x", 3).ok());  // GC'd.
  // Tombstoned column fully gone.
  EXPECT_TRUE((*store)->Get("dead", "bf", "x").status().IsNotFound());
  EXPECT_TRUE((*store)->Get("dead", "bf", "x", 1).status().IsNotFound());
}

TEST(StoreTest, AutomaticFlushOnThreshold) {
  const std::string dir = TempDir("autoflush");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  options.memtable_flush_cells = 64;
  auto store = AliHBase::Open(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*store)->Put("r" + std::to_string(i), "bf", "q", "v", 1).ok());
  }
  EXPECT_GE((*store)->num_sstables(), 2u);
  EXPECT_LT((*store)->memtable_cells(), 64u);
  EXPECT_EQ(*(*store)->Get("r0", "bf", "q"), "v");
  EXPECT_EQ(*(*store)->Get("r199", "bf", "q"), "v");
}

TEST(StoreTest, ConcurrentReadersAndWriter) {
  auto store_or = AliHBase::Open(MemOptions());
  ASSERT_TRUE(store_or.ok());
  AliHBase* store = store_or->get();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store->Put("u" + std::to_string(i), "bf", "q", std::to_string(i), 1).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t));
      while (!stop.load()) {
        const int i = static_cast<int>(rng.Uniform(500));
        auto v = store->Get("u" + std::to_string(i), "bf", "q");
        if (!v.ok() || *v != std::to_string(i)) read_errors.fetch_add(1);
      }
    });
  }
  for (int i = 500; i < 1000; ++i) {
    ASSERT_TRUE(store->Put("u" + std::to_string(i), "bf", "q", std::to_string(i), 1).ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_errors.load(), 0);
}

TEST(StoreTest, OpenValidatesOptions) {
  StoreOptions options;
  EXPECT_FALSE(AliHBase::Open(options).ok());  // No families.
  options.column_families = {"bf"};
  options.durable = true;  // No dir.
  EXPECT_FALSE(AliHBase::Open(options).ok());
  options.durable = false;
  options.num_shards = 0;  // Must be >= 1.
  EXPECT_FALSE(AliHBase::Open(options).ok());
}

// ---------------------------------------------------------------------------
// Sharded store
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, MatchesSingleShardSemantics) {
  // The same operation sequence against a 1-shard and an 8-shard store
  // must be observationally identical: sharding is an implementation
  // detail of locking and file layout, never of semantics.
  StoreOptions single = MemOptions();
  StoreOptions sharded = MemOptions();
  sharded.num_shards = 8;
  auto a = AliHBase::Open(single);
  auto b = AliHBase::Open(sharded);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*b)->num_shards(), 8u);

  for (AliHBase* store : {a->get(), b->get()}) {
    for (int i = 0; i < 50; ++i) {
      const std::string row = "user" + std::to_string(i);
      ASSERT_TRUE(store->Put(row, "bf", "q", "v1-" + std::to_string(i), 1).ok());
      ASSERT_TRUE(store->Put(row, "bf", "q", "v2-" + std::to_string(i), 2).ok());
    }
    ASSERT_TRUE(store->Delete("user7", "bf", "q", 3).ok());
    ASSERT_TRUE(store->Put("user7", "bf", "q", "reborn", 4).ok());
  }

  // Point reads at several snapshots.
  for (const uint64_t snapshot : std::vector<uint64_t>{1, 2, 3, UINT64_MAX}) {
    for (int i = 0; i < 50; ++i) {
      const std::string row = "user" + std::to_string(i);
      const auto va = (*a)->Get(row, "bf", "q", snapshot);
      const auto vb = (*b)->Get(row, "bf", "q", snapshot);
      ASSERT_EQ(va.ok(), vb.ok()) << row << " @" << snapshot;
      if (va.ok()) {
        EXPECT_EQ(*va, *vb);
      } else {
        EXPECT_EQ(va.status().code(), vb.status().code());
      }
    }
  }

  // Scans merge across shards back into global key order.
  const auto sa = (*a)->Scan("", "");
  const auto sb = (*b)->Scan("", "");
  ASSERT_TRUE(sa.ok() && sb.ok());
  ASSERT_EQ(sa->size(), sb->size());
  for (std::size_t i = 0; i < sa->size(); ++i) {
    EXPECT_EQ((*sa)[i].key.row, (*sb)[i].key.row);
    EXPECT_EQ((*sa)[i].key.version, (*sb)[i].key.version);
    EXPECT_EQ((*sa)[i].value, (*sb)[i].value);
  }
  // Limited scans truncate identically.
  const auto la = (*a)->Scan("", "", UINT64_MAX, 9);
  const auto lb = (*b)->Scan("", "", UINT64_MAX, 9);
  ASSERT_TRUE(la.ok() && lb.ok());
  ASSERT_EQ(la->size(), 9u);
  ASSERT_EQ(lb->size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ((*la)[i].key.row, (*lb)[i].key.row);

  // One-row scans and batched reads across stripes.
  const auto ra = (*a)->Scan("user7", RowEnd("user7"));
  const auto rb = (*b)->Scan("user7", RowEnd("user7"));
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra->size(), 1u);
  ASSERT_EQ(rb->size(), 1u);
  EXPECT_EQ((*ra)[0].key, (*rb)[0].key);
  EXPECT_EQ((*ra)[0].value, "reborn");
  EXPECT_EQ((*rb)[0].value, "reborn");
  const std::vector<std::string> rows = {"user9", "user1", "user30", "absent", "user7"};
  std::vector<ColumnProbeView> probes;
  for (const std::string& row : rows) probes.push_back({row, "bf", "q"});
  for (const uint64_t snapshot : std::vector<uint64_t>{2, 3, UINT64_MAX}) {
    ReadPin pin_a, pin_b;
    const auto ma = ViewBatch(**a, probes, &pin_a, snapshot);
    const auto mb = ViewBatch(**b, probes, &pin_b, snapshot);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(ma[i].ok(), mb[i].ok()) << rows[i] << " @" << snapshot;
      if (ma[i].ok()) {
        EXPECT_EQ(*ma[i], *mb[i]);
      } else {
        EXPECT_EQ(ma[i].status().code(), mb[i].status().code());
      }
    }
  }
}

TEST(ShardedStoreTest, DurableShardedWritesRecoverAfterCrash) {
  const std::string dir = TempDir("sharded_recover");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  options.num_shards = 4;
  {
    auto store = AliHBase::Open(options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          (*store)->Put("row" + std::to_string(i), "bf", "q", std::to_string(i), 1).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    // Post-flush writes stay in the per-shard WALs ("crash" below).
    for (int i = 40; i < 60; ++i) {
      ASSERT_TRUE(
          (*store)->Put("row" + std::to_string(i), "bf", "q", std::to_string(i), 1).ok());
    }
  }
  auto reopened = AliHBase::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_shards(), 4u);
  for (int i = 0; i < 60; i += 3) {
    const auto got = (*reopened)->Get("row" + std::to_string(i), "bf", "q");
    ASSERT_TRUE(got.ok()) << "row" << i;
    EXPECT_EQ(*got, std::to_string(i));
  }
}

TEST(ShardedStoreTest, ShardCountIsPinnedByTheDirectory) {
  const std::string dir = TempDir("sharded_manifest");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  options.num_shards = 4;
  {
    auto store = AliHBase::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("alice", "bf", "q", "A", 1).ok());
  }
  // Reopening with a different requested count must keep the recorded 4 —
  // rows were routed by hash mod 4 and must stay findable.
  options.num_shards = 16;
  auto reopened = AliHBase::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_shards(), 4u);
  EXPECT_EQ((*reopened)->options().num_shards, 4);
  EXPECT_EQ(*(*reopened)->Get("alice", "bf", "q"), "A");
}

TEST(ShardedStoreTest, EmptyShardManifestIsCorruptionNamingTheFile) {
  // What an in-place manifest write left behind when the process died
  // between creating the file and writing it.
  const std::string dir = TempDir("sharded_manifest_empty");
  fs::create_directories(dir);
  { std::ofstream(dir + "/SHARDS", std::ios::binary); }
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  const auto store = AliHBase::Open(options);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption) << store.status().ToString();
  EXPECT_NE(store.status().message().find(dir + "/SHARDS"), std::string::npos)
      << store.status().ToString();
}

TEST(ShardedStoreTest, StrayManifestTempFileIsReplacedOnOpen) {
  // A crash before the manifest's rename leaves only SHARDS.tmp: the
  // directory holds no recorded count, so the requested one is written.
  const std::string dir = TempDir("sharded_manifest_tmp");
  fs::create_directories(dir);
  { std::ofstream(dir + "/SHARDS.tmp", std::ios::binary) << "1"; }
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  options.num_shards = 4;
  {
    auto store = AliHBase::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->num_shards(), 4u);
  }
  std::ifstream manifest(dir + "/SHARDS");
  std::string recorded;
  manifest >> recorded;
  EXPECT_EQ(recorded, "4");
  EXPECT_FALSE(fs::exists(dir + "/SHARDS.tmp"));
}

TEST(ShardedStoreTest, FlushAndCompactWorkPerShard) {
  const std::string dir = TempDir("sharded_compact");
  StoreOptions options = MemOptions();
  options.durable = true;
  options.dir = dir;
  options.num_shards = 4;
  options.max_versions = 1;
  auto store = AliHBase::Open(options);
  ASSERT_TRUE(store.ok());
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE((*store)
                      ->Put("row" + std::to_string(i), "bf", "q",
                            "v" + std::to_string(round), static_cast<uint64_t>(round))
                      .ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // 32 rows over 4 shards, 3 flushes: more than one table per shard.
  EXPECT_GT((*store)->num_sstables(), 4u);
  ASSERT_TRUE((*store)->Compact().ok());
  // Compaction leaves exactly one table per non-empty shard and applies
  // max_versions per column.
  EXPECT_LE((*store)->num_sstables(), 4u);
  EXPECT_EQ(*(*store)->Get("row9", "bf", "q"), "v3");
  EXPECT_TRUE((*store)->Get("row9", "bf", "q", /*snapshot=*/1).status().IsNotFound());
}

TEST(ShardedStoreTest, MultiGetViewMissesAreMessageFreeAndOrdered) {
  StoreOptions options = MemOptions();
  options.num_shards = 8;
  auto store = AliHBase::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("hit1", "bf", "q", "A", 1).ok());
  ASSERT_TRUE((*store)->Put("hit2", "emb", "q", "B", 1).ok());

  const std::vector<std::string> keys = {"hit2", "miss1", "hit1", "miss2", "hit1"};
  std::vector<ColumnProbeView> probes;
  probes.push_back({keys[0], "emb", "q"});
  probes.push_back({keys[1], "bf", "q"});
  probes.push_back({keys[2], "bf", "q"});
  probes.push_back({keys[3], "nope", "q"});  // Undeclared family.
  probes.push_back({keys[4], "bf", "q"});
  ReadPin pin;
  std::vector<StatusOr<std::string_view>> out(
      probes.size(), StatusOr<std::string_view>(std::string_view()));
  (*store)->MultiGetView(probes.data(), probes.size(), &pin, out.data());

  EXPECT_EQ(*out[0], "B");
  EXPECT_TRUE(out[1].status().IsNotFound());
  EXPECT_TRUE(out[1].status().message().empty());  // Canonical, no alloc.
  EXPECT_EQ(*out[2], "A");
  EXPECT_TRUE(out[3].status().IsInvalidArgument());
  EXPECT_TRUE(out[3].status().message().empty());
  EXPECT_EQ(*out[4], "A");
}

}  // namespace
}  // namespace titant::kvstore
