// Tests for the embedded MaxCompute platform: values, tables, Pangu, the
// SQL subset, and SQL jobs over the table catalog.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "maxcompute/odps.h"
#include "maxcompute/pangu.h"
#include "maxcompute/sql.h"
#include "maxcompute/table.h"
#include "maxcompute/value.h"

namespace titant::maxcompute {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  const std::string dir = "/tmp/titant_mctest_" + tag;
  fs::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Values and tables
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndCoercion) {
  EXPECT_EQ(Value(static_cast<int64_t>(7)).type(), ValueType::kInt);
  EXPECT_EQ(Value(1.5).AsInt(), 1);
  EXPECT_DOUBLE_EQ(Value(static_cast<int64_t>(3)).AsDouble(), 3.0);
  EXPECT_TRUE(Value(std::string("x")).AsBool());
  EXPECT_FALSE(Value(std::string("")).AsBool());
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Null().AsString(), "NULL");
  EXPECT_EQ(Value(true).AsInt(), 1);
}

TEST(ValueTest, ComparisonSemantics) {
  EXPECT_EQ(Value::Compare(Value(static_cast<int64_t>(2)), Value(2.0)), 0);
  EXPECT_LT(Value::Compare(Value(1.0), Value(static_cast<int64_t>(2))), 0);
  EXPECT_LT(Value::Compare(Value(std::string("a")), Value(std::string("b"))), 0);
  EXPECT_LT(Value::Compare(Value::Null(), Value(0.0)), 0);  // Nulls first.
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
}

Table PeopleTable() {
  Table table{Schema({{"name", ValueType::kString},
                      {"age", ValueType::kInt},
                      {"city", ValueType::kString},
                      {"amount", ValueType::kDouble}})};
  auto add = [&](const char* name, int64_t age, const char* city, double amount) {
    EXPECT_TRUE(
        table
            .Append({Value(std::string(name)), Value(age), Value(std::string(city)),
                     Value(amount)})
            .ok());
  };
  add("zoe", 30, "hz", 120.0);
  add("sam", 45, "bj", 80.0);
  add("liam", 30, "hz", 40.0);
  add("ana", 62, "sh", 900.0);
  add("bob", 45, "bj", 10.0);
  return table;
}

TEST(TableTest, SchemaEnforcedOnAppend) {
  Table table{Schema({{"a", ValueType::kInt}})};
  EXPECT_TRUE(table.Append({Value(static_cast<int64_t>(1))}).ok());
  EXPECT_FALSE(table.Append({Value(static_cast<int64_t>(1)), Value(2.0)}).ok());
}

TEST(TableTest, SerializeRoundTrip) {
  const Table table = PeopleTable();
  const auto parsed = Table::Deserialize(table.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), table.num_rows());
  EXPECT_EQ(parsed->schema().num_columns(), 4u);
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(Value::Compare(parsed->row(r)[c], table.row(r)[c]), 0);
    }
  }
  EXPECT_FALSE(Table::Deserialize("nonsense").ok());
}

TEST(TableTest, NullsSurviveColumnarRoundTrip) {
  Table table{Schema({{"a", ValueType::kInt},
                      {"b", ValueType::kString},
                      {"c", ValueType::kDouble}})};
  ASSERT_TRUE(table.Append({Value(int64_t{1}), Value(), Value(1.5)}).ok());
  ASSERT_TRUE(table.Append({Value(), Value(std::string("s")), Value()}).ok());
  ASSERT_TRUE(table.Append({Value(int64_t{3}), Value(std::string("")), Value(-0.5)}).ok());
  const auto parsed = Table::Deserialize(table.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_rows(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(parsed->row(r).IsNull(c), table.row(r).IsNull(c)) << r << "," << c;
      EXPECT_EQ(Value::Compare(parsed->row(r)[c], table.row(r)[c]), 0) << r << "," << c;
    }
  }
}

// The retired row-major v1 layout, which had no magic: u32 column count,
// u32-prefixed names with u8 types, u32 row count, then every cell as a
// type tag and its payload (here only the string, bigint and double cells
// PeopleTable holds).
std::string RowMajorV1Blob(const Table& table) {
  std::string out;
  auto u32 = [&out](uint32_t v) { out.append(reinterpret_cast<const char*>(&v), sizeof(v)); };
  u32(static_cast<uint32_t>(table.schema().num_columns()));
  for (const auto& col : table.schema().columns()) {
    u32(static_cast<uint32_t>(col.name.size()));
    out += col.name;
    out.push_back(static_cast<char>(col.type));
  }
  u32(static_cast<uint32_t>(table.num_rows()));
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.schema().num_columns(); ++c) {
      const Value v = table.row(r)[c];
      out.push_back(static_cast<char>(v.type()));
      if (v.type() == ValueType::kString) {
        u32(static_cast<uint32_t>(v.AsString().size()));
        out += v.AsString();
      } else if (v.type() == ValueType::kInt) {
        const int64_t x = v.AsInt();
        out.append(reinterpret_cast<const char*>(&x), sizeof(x));
      } else if (v.type() == ValueType::kDouble) {
        const double x = v.AsDouble();
        out.append(reinterpret_cast<const char*>(&x), sizeof(x));
      }
    }
  }
  return out;
}

// Hostile blobs: truncations, forged counts and blobs without the "TTC2"
// magic (the retired v1 layout among them) must return DataLoss, never
// read past the buffer or allocate absurdly.
TEST(TableTest, HostileBlobsAreRejected) {
  const Table table = PeopleTable();
  const std::string v1 = RowMajorV1Blob(table);
  const std::string v2 = table.Serialize();

  const auto legacy = Table::Deserialize(v1);
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kDataLoss);

  // Every prefix either parses to the full table (only the complete v2
  // blob) or errors cleanly.
  for (const std::string* blob : {&v1, &v2}) {
    for (std::size_t cut = 0; cut < blob->size(); ++cut) {
      const auto parsed = Table::Deserialize(blob->substr(0, cut));
      EXPECT_FALSE(parsed.ok()) << "accepted prefix of length " << cut;
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
      }
    }
    // Trailing garbage is also corruption, not ignored padding.
    EXPECT_FALSE(Table::Deserialize(*blob + "x").ok());
  }

  // Forged row count promising more rows than the buffer holds.
  {
    std::string forged = v2;
    // Locate the row-count field: after magic, ncols, and the schema.
    // Cheaper to forge from the writer side: serialize, then bump the
    // stored count by rewriting the last 4 bytes of the header region is
    // format-dependent, so instead corrupt every aligned u32 and require
    // no crash (either parse failure or equal table is acceptable).
    for (std::size_t off = 0; off + 4 <= forged.size(); off += 4) {
      std::string mutated = forged;
      mutated[off] = '\xff';
      mutated[off + 1] = '\xff';
      mutated[off + 2] = '\xff';
      mutated[off + 3] = '\x7f';
      (void)Table::Deserialize(mutated);  // Must not crash or over-read.
    }
  }
}

// ---------------------------------------------------------------------------
// Pangu
// ---------------------------------------------------------------------------

TEST(PanguTest, BlobAndTableRoundTrip) {
  auto pangu = PanguStore::Open(TempDir("pangu"));
  ASSERT_TRUE(pangu.ok());
  ASSERT_TRUE(pangu->PutBlob("a/b c", "payload").ok());
  EXPECT_EQ(*pangu->GetBlob("a/b c"), "payload");
  EXPECT_TRUE(pangu->GetBlob("missing").status().IsNotFound());
  ASSERT_TRUE(pangu->PutTable("table/people", PeopleTable()).ok());
  const auto table = pangu->GetTable("table/people");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 5u);
  const auto names = pangu->List();
  EXPECT_EQ(names.size(), 2u);
  ASSERT_TRUE(pangu->DeleteBlob("a/b c").ok());
  EXPECT_EQ(pangu->List().size(), 1u);
}

// ---------------------------------------------------------------------------
// SQL engine
// ---------------------------------------------------------------------------

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() : people_(PeopleTable()) {}

  StatusOr<Table> Run(const std::string& query) {
    return ExecuteSql(query, [this](const std::string& name) -> StatusOr<const Table*> {
      if (name == "PEOPLE") return &people_;
      if (name == "CITIES") {
        if (!cities_) {
          cities_ = std::make_unique<Table>(
              Schema({{"code", ValueType::kString}, {"label", ValueType::kString}}));
          (void)cities_->Append({Value(std::string("hz")), Value(std::string("Hangzhou"))});
          (void)cities_->Append({Value(std::string("bj")), Value(std::string("Beijing"))});
        }
        return cities_.get();
      }
      return Status::NotFound(name);
    });
  }

  Table people_;
  std::unique_ptr<Table> cities_;
};

TEST_F(SqlTest, SelectStar) {
  const auto result = Run("SELECT * FROM people");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 5u);
  EXPECT_EQ(result->schema().num_columns(), 4u);
}

TEST_F(SqlTest, ProjectionAndArithmetic) {
  const auto result = Run("SELECT name, amount * 2 + 1 AS doubled FROM people LIMIT 2");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->schema().columns()[1].name, "doubled");
  EXPECT_DOUBLE_EQ(result->row(0)[1].AsDouble(), 241.0);
}

TEST_F(SqlTest, WhereFilters) {
  const auto result = Run("SELECT name FROM people WHERE city = 'hz' AND age <= 30");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->row(0)[0].AsString(), "zoe");
  EXPECT_EQ(result->row(1)[0].AsString(), "liam");
}

TEST_F(SqlTest, WhereWithOrNotAndComparisons) {
  const auto result =
      Run("SELECT name FROM people WHERE NOT (city = 'hz') AND (age > 60 OR amount < 50)");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);  // ana (62) and bob (10.0).
}

TEST_F(SqlTest, GroupByWithAggregates) {
  const auto result = Run(
      "SELECT city, COUNT(*) AS n, SUM(amount) AS total, AVG(age) AS mean_age "
      "FROM people GROUP BY city ORDER BY city");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  // bj: sam+bob.
  EXPECT_EQ(result->row(0)[0].AsString(), "bj");
  EXPECT_EQ(result->row(0)[1].AsInt(), 2);
  EXPECT_DOUBLE_EQ(result->row(0)[2].AsDouble(), 90.0);
  EXPECT_DOUBLE_EQ(result->row(0)[3].AsDouble(), 45.0);
  // hz: zoe+liam.
  EXPECT_EQ(result->row(1)[0].AsString(), "hz");
  EXPECT_DOUBLE_EQ(result->row(1)[2].AsDouble(), 160.0);
}

TEST_F(SqlTest, GlobalAggregatesOverEmptyFilter) {
  const auto result = Run("SELECT COUNT(*) AS n, MAX(amount) AS m FROM people WHERE age > 99");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->row(0)[0].AsInt(), 0);
  EXPECT_TRUE(result->row(0)[1].is_null());
}

TEST_F(SqlTest, MinMaxAndScalarFunctions) {
  const auto result =
      Run("SELECT MIN(age) AS lo, MAX(age) AS hi, ROUND(AVG(amount)) AS avg_amt FROM people");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row(0)[0].AsInt(), 30);
  EXPECT_EQ(result->row(0)[1].AsInt(), 62);
  EXPECT_DOUBLE_EQ(result->row(0)[2].AsDouble(), 230.0);
}

TEST_F(SqlTest, OrderByMultipleKeysAndDirections) {
  const auto result = Run("SELECT name, age FROM people ORDER BY age DESC, name ASC");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 5u);
  EXPECT_EQ(result->row(0)[0].AsString(), "ana");
  EXPECT_EQ(result->row(1)[0].AsString(), "bob");  // 45, before sam.
  EXPECT_EQ(result->row(2)[0].AsString(), "sam");
}

TEST_F(SqlTest, OrderByAggregate) {
  const auto result =
      Run("SELECT city, SUM(amount) AS total FROM people GROUP BY city ORDER BY total DESC");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row(0)[0].AsString(), "sh");
  EXPECT_EQ(result->row(2)[0].AsString(), "bj");
}

TEST_F(SqlTest, JoinOnEquality) {
  const auto result = Run(
      "SELECT people.name, cities.label FROM people JOIN cities ON city = code "
      "ORDER BY people.name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 4u);  // ana (sh) has no city row.
  EXPECT_EQ(result->row(0)[0].AsString(), "bob");
  EXPECT_EQ(result->row(0)[1].AsString(), "Beijing");
}

TEST_F(SqlTest, StringEscapesAndModulo) {
  const auto result = Run("SELECT name FROM people WHERE name != 'o''brien' AND age % 2 = 0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3u);  // ages 30, 30, 62.
}

TEST_F(SqlTest, DivisionByZeroIsNull) {
  const auto result = Run("SELECT amount / 0 AS d FROM people LIMIT 1");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->row(0)[0].is_null());
}

TEST_F(SqlTest, ParseErrors) {
  EXPECT_FALSE(Run("SELEC name FROM people").ok());
  EXPECT_FALSE(Run("SELECT FROM people").ok());
  EXPECT_FALSE(Run("SELECT name people").ok());
  EXPECT_FALSE(Run("SELECT name FROM people WHERE").ok());
  EXPECT_FALSE(Run("SELECT name FROM people LIMIT x").ok());
  EXPECT_FALSE(Run("SELECT name FROM people extra").ok());
  EXPECT_FALSE(Run("SELECT nosuch FROM people").ok());
  EXPECT_FALSE(Run("SELECT name FROM missing_table").ok());
  EXPECT_FALSE(Run("SELECT UNKNOWNFN(age) FROM people").ok());
  EXPECT_FALSE(Run("SELECT name FROM people WHERE name = 'unterminated").ok());
}

// ---------------------------------------------------------------------------
// MaxCompute facade
// ---------------------------------------------------------------------------

TEST(MaxComputeTest, SqlJobEndToEnd) {
  MaxComputeOptions options;
  options.pangu_dir = TempDir("odps_sql");
  auto mc = MaxCompute::Open(options);
  ASSERT_TRUE(mc.ok());
  ASSERT_TRUE((*mc)->CreateTable("people", PeopleTable()).ok());

  const auto output =
      (*mc)->SubmitSqlJob("SELECT city, COUNT(*) AS n FROM people GROUP BY city", "by_city");
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ((*output)->num_rows(), 3u);

  // The returned table is the stored output.
  const auto result = (*mc)->GetTable("by_city");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, *output);
}

TEST(MaxComputeTest, FailedSqlJobWritesNoTable) {
  MaxComputeOptions options;
  options.pangu_dir = TempDir("odps_fail");
  auto mc = MaxCompute::Open(options);
  ASSERT_TRUE(mc.ok());
  const auto missing = (*mc)->SubmitSqlJob("SELECT * FROM missing", "out");
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
  const auto malformed = (*mc)->SubmitSqlJob("SELECT FROM", "out");
  EXPECT_TRUE(malformed.status().IsInvalidArgument()) << malformed.status().ToString();
  EXPECT_TRUE((*mc)->GetTable("out").status().IsNotFound());
  EXPECT_EQ((*mc)->sql_stats().queries_executed, 0u);
}

TEST(MaxComputeTest, TablesPersistAcrossReopen) {
  MaxComputeOptions options;
  options.pangu_dir = TempDir("odps_persist");
  {
    auto mc = MaxCompute::Open(options);
    ASSERT_TRUE(mc.ok());
    ASSERT_TRUE((*mc)->CreateTable("people", PeopleTable()).ok());
  }
  auto reopened = MaxCompute::Open(options);
  ASSERT_TRUE(reopened.ok());
  // A job resolves the persisted table by its name in any case.
  const auto count = (*reopened)->SubmitSqlJob("SELECT COUNT(*) AS n FROM PEOPLE", "n");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ((*count)->row(0)[0].AsInt(), 5);
  const auto table = (*reopened)->GetTable("people");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 5u);
}

TEST(MaxComputeTest, RepeatedJobsAndSqlStats) {
  MaxComputeOptions options;
  options.pangu_dir = TempDir("odps_sqlstats");
  auto mc = MaxCompute::Open(options);
  ASSERT_TRUE(mc.ok());
  ASSERT_TRUE((*mc)->CreateTable("people", PeopleTable()).ok());

  const std::string query = "SELECT COUNT(*) AS n FROM people WHERE age >= 30";
  ASSERT_TRUE((*mc)->SubmitSqlJob(query, "count1").ok());
  ASSERT_TRUE((*mc)->SubmitSqlJob(query, "count2").ok());
  EXPECT_FALSE((*mc)->SubmitSqlJob("SELECT COUNT( FROM people", "bad").ok());

  const auto stats = (*mc)->sql_stats();
  EXPECT_EQ(stats.queries_executed, 2u);
  EXPECT_EQ(stats.parse_failures, 1u);
  EXPECT_EQ(stats.rows_scanned, 2u * PeopleTable().num_rows());
  EXPECT_EQ(stats.batches_scanned, 2u);

  // Both executions of the same text produced the same result.
  const auto first = (*mc)->GetTable("count1");
  const auto second = (*mc)->GetTable("count2");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*first)->row(0)[0].AsInt(), (*second)->row(0)[0].AsInt());
}

// A job reads each table it names at one version: a concurrent
// CreateTable of the same name neither frees the rows under the scan
// (large enough to fan out over the scan pool) nor mixes two versions.
TEST(MaxComputeTest, ReplacingATableDuringAQueryKeepsTheQueryOnOneVersion) {
  constexpr int64_t kRows = 200'000;
  MaxComputeOptions options;
  options.pangu_dir = TempDir("odps_replace");
  auto mc = MaxCompute::Open(options);
  ASSERT_TRUE(mc.ok());
  std::vector<Table> versions;
  for (int64_t v : {1, 2}) {
    Table table{Schema({{"v", ValueType::kInt}})};
    for (int64_t r = 0; r < kRows; ++r) ASSERT_TRUE(table.Append({Value(v)}).ok());
    versions.push_back(std::move(table));
  }
  ASSERT_TRUE((*mc)->CreateTable("t", versions[0]).ok());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 1; i <= 24; ++i) {
      EXPECT_TRUE((*mc)->CreateTable("t", versions[i % 2]).ok());
    }
    done.store(true);
  });
  int queries = 0;
  while (!done.load() || queries < 8) {
    const auto out = (*mc)->SubmitSqlJob("SELECT SUM(v) AS s, COUNT(*) AS c FROM t", "out");
    if (!out.ok()) {
      ADD_FAILURE() << out.status().ToString();
      break;  // Still joins the writer below.
    }
    const int64_t sum = (*out)->row(0)[0].AsInt();
    EXPECT_EQ((*out)->row(0)[1].AsInt(), kRows);
    EXPECT_TRUE(sum == kRows || sum == 2 * kRows) << "sum " << sum;
    ++queries;
  }
  writer.join();
}

// A file that PutBlob could not have written, such as a name with a
// malformed '%' escape, is not a table: listing skips it and jobs run.
TEST(MaxComputeTest, StrayFileInThePanguDirIsIgnored) {
  MaxComputeOptions options;
  options.pangu_dir = TempDir("odps_stray");
  auto mc = MaxCompute::Open(options);
  ASSERT_TRUE(mc.ok());
  ASSERT_TRUE((*mc)->CreateTable("people", PeopleTable()).ok());
  for (const char* stray : {"%zz.blob", "%4.blob", "%0g.blob", "table%2.blob"}) {
    std::ofstream(options.pangu_dir + "/" + stray) << "not a table";
  }

  const auto count = (*mc)->SubmitSqlJob("SELECT COUNT(*) AS n FROM people", "n");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ((*count)->row(0)[0].AsInt(), 5);
  auto pangu = PanguStore::Open(options.pangu_dir);
  ASSERT_TRUE(pangu.ok());
  EXPECT_EQ(pangu->List(), (std::vector<std::string>{"table/n", "table/people"}));
}

}  // namespace
}  // namespace titant::maxcompute
