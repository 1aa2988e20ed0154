#ifndef TITANT_MAXCOMPUTE_ODPS_H_
#define TITANT_MAXCOMPUTE_ODPS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/statusor.h"
#include "maxcompute/pangu.h"
#include "maxcompute/table.h"

namespace titant {
class ThreadPool;
}

namespace titant::maxcompute {

/// Configuration of the embedded MaxCompute instance.
struct MaxComputeOptions {
  std::string pangu_dir;  // Storage root.
};

/// Monotonic counters for the SQL path. Snapshot via
/// MaxCompute::sql_stats().
struct MaxComputeSqlStats {
  uint64_t queries_executed = 0;  // Successfully executed SQL jobs.
  uint64_t parse_failures = 0;    // Jobs rejected by the lexer/parser.
  uint64_t rows_scanned = 0;      // Source rows fed through the executor.
  uint64_t batches_scanned = 0;   // Column batches evaluated.
};

/// The embedded MaxCompute/ODPS platform (§4.2), cut to what the T+1
/// label feed uses: a table catalog persisted in Pangu, and SQL jobs over
/// the vectorized engine (sql.h). A job parses, binds and executes on the
/// calling thread; only its partitioned scan fans out, over a scan pool
/// shared by every job of the instance. Thread-safe: jobs and table
/// replacement may run concurrently.
class MaxCompute {
 public:
  static StatusOr<std::unique_ptr<MaxCompute>> Open(MaxComputeOptions options);
  ~MaxCompute();

  /// Creates (or replaces) a table and persists it to Pangu. A job that
  /// already resolved the old version reads it until the job finishes.
  Status CreateTable(const std::string& name, Table table);

  /// Reads a table (from the catalog or Pangu). NotFound if absent. The
  /// pointer stays valid until `name` is next replaced, by CreateTable or
  /// as a job's output.
  StatusOr<const Table*> GetTable(const std::string& name);

  /// Runs one SQL query and stores its result as `output_table`. Table
  /// names in the query match stored tables case-insensitively. Returns
  /// the output table, as GetTable would; a failed job returns its error
  /// and writes no table.
  StatusOr<const Table*> SubmitSqlJob(const std::string& query, const std::string& output_table);

  /// Snapshot of the SQL-path counters (thread-safe).
  MaxComputeSqlStats sql_stats() const;

 private:
  MaxCompute();

  static std::string TableBlobName(const std::string& table) { return "table/" + table; }

  /// Persists `table` as `name` and swaps it into the catalog.
  StatusOr<const Table*> StoreTable(const std::string& name, Table table);

  /// The catalog entry for `name`, loaded from Pangu on first use.
  StatusOr<std::shared_ptr<const Table>> LoadTable(const std::string& name);

  /// Resolves a query's table reference (upper-cased by the parser)
  /// against the stored table names.
  StatusOr<std::shared_ptr<const Table>> ResolveTable(const std::string& name);

  std::unique_ptr<PanguStore> pangu_;
  std::unique_ptr<ThreadPool> scan_pool_;
  mutable std::mutex mu_;
  // A replaced table lives on while a running job still holds it.
  std::map<std::string, std::shared_ptr<const Table>> catalog_;
  MaxComputeSqlStats sql_stats_;
};

}  // namespace titant::maxcompute

#endif  // TITANT_MAXCOMPUTE_ODPS_H_
