#ifndef TITANT_MAXCOMPUTE_SQL_EXEC_H_
#define TITANT_MAXCOMPUTE_SQL_EXEC_H_

#include <cstdint>
#include <cstddef>

#include "common/statusor.h"
#include "maxcompute/sql_plan.h"
#include "maxcompute/table.h"

namespace titant {
class ThreadPool;
}

namespace titant::maxcompute {

/// Counters filled by one execution (summed across partitions; exact and
/// deterministic for a given plan + options).
struct SqlExecStats {
  uint64_t rows_scanned = 0;   // Source rows fed through batch evaluation
                               // (join build + probe rows included).
  uint64_t batches = 0;        // Column batches evaluated.
  uint64_t rows_output = 0;    // Rows in the result table.
};

struct SqlExecOptions {
  /// Rows per column batch. 1 degenerates to row-at-a-time evaluation
  /// through the batch kernels.
  std::size_t batch_rows = 1024;

  /// Runs the row-at-a-time Value interpreter instead of the vectorized
  /// kernels: every expression node produces one Value per row, exactly
  /// the execution strategy the columnar batches replaced. Kept as a
  /// differential-testing oracle and as bench_sql's interpreter
  /// baseline. Ignores batch_rows.
  bool scalar = false;

  /// Optional pool for partitioned parallel scans. Null (the default)
  /// keeps execution single-threaded and byte-identical to the
  /// interpreter; with a pool, partial aggregates merge in partition
  /// order — deterministic for fixed partition_rows, but floating-point
  /// SUM/AVG may differ from the serial result in the last ulp.
  ThreadPool* pool = nullptr;

  /// Minimum rows per partition before the scan fans out. Partitioning
  /// depends only on this value, never on the pool's thread count, so
  /// parallel results are reproducible across machines.
  std::size_t partition_rows = 65536;
};

/// Runs a bound plan and materializes the result table. Infallible at
/// runtime by construction (all name/shape errors were caught by
/// BindSql; arithmetic faults like division by zero yield NULL), but
/// returns StatusOr for interface symmetry.
StatusOr<Table> ExecutePlan(const SqlPlan& plan, const SqlExecOptions& options = {},
                            SqlExecStats* stats = nullptr);

/// Convenience: bind + execute a parsed query. This is what ExecuteSql
/// and MaxCompute::SubmitSqlJob call.
StatusOr<Table> ExecuteQuery(const Query& q, const TableResolver& resolver,
                             const SqlExecOptions& options = {},
                             SqlExecStats* stats = nullptr);

}  // namespace titant::maxcompute

#endif  // TITANT_MAXCOMPUTE_SQL_EXEC_H_
