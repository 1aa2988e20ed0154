#ifndef TITANT_MAXCOMPUTE_SQL_PLAN_H_
#define TITANT_MAXCOMPUTE_SQL_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "maxcompute/sql_parser.h"
#include "maxcompute/table.h"

namespace titant::maxcompute {

/// Opcodes of a bound scalar expression. One enum value per operator so
/// the executor switches on an int instead of string-comparing `op`.
enum class SqlOp : uint8_t {
  kLiteral,
  kColumn,
  kNeg,
  kNot,
  kAnd,
  kOr,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kAbs,
  kRound,
  kFloor,
  kLog,
  kLog1p,
  kAggRef,  // Reads a finalized aggregate result (group emit only).
};

/// One node of a flattened expression program. Nodes are stored in
/// post-order: children always precede parents, so the executor can
/// evaluate the whole program in a single forward pass with per-node
/// scratch vectors (no tree walk, no recursion).
struct BoundExpr {
  SqlOp op = SqlOp::kLiteral;
  Value literal;   // kLiteral
  int column = -1; // kColumn: index into the combined row layout
  int agg = -1;    // kAggRef: index into Plan::aggregates
  int lhs = -1;    // Child node indices (both -1 for leaves).
  int rhs = -1;
};

struct ExprProgram {
  std::vector<BoundExpr> nodes;
  bool empty() const { return nodes.empty(); }
  int root() const { return static_cast<int>(nodes.size()) - 1; }
};

/// One aggregate call site. Each occurrence in the query text gets its
/// own accumulator, matching the interpreter's per-node registry.
struct BoundAggregate {
  AggFunc func = AggFunc::kNone;
  bool star = false;   // COUNT(*)
  ExprProgram arg;     // Empty when star.
};

/// A query bound to concrete tables: every column reference resolved to
/// a row index, every expression flattened. Valid only while the tables
/// it points at outlive it: MaxCompute pins every table a job resolves
/// until the job ends.
struct SqlPlan {
  const Table* base = nullptr;
  const Table* right = nullptr;      // Null without a join.
  std::size_t left_width = 0;
  std::size_t width = 0;             // Combined row width.

  ExprProgram join_left;             // Bound to the left-only layout.
  ExprProgram join_right;            // Bound to the right-only layout.
  ExprProgram where;                 // Empty when absent.

  bool select_star = false;
  bool has_aggregate = false;
  std::vector<ExprProgram> select;   // Per select item (empty for star).
  std::vector<ExprProgram> group_by;
  std::vector<BoundAggregate> aggregates;
  std::vector<ExprProgram> order;    // Order keys (may contain kAggRef).
  std::vector<bool> order_desc;
  int64_t limit = -1;                // -1 = no limit.

  std::vector<Column> out_columns;   // Types resolved for star, kNull else.
};

/// Resolves a table name to a table (borrowed pointer, valid for the
/// duration of the query).
using TableResolver = std::function<StatusOr<const Table*>(const std::string&)>;

/// Binds `q` against the resolver's tables: resolves the FROM/JOIN
/// tables, every column name (InvalidArgument on unknown/ambiguous
/// columns, aggregates outside aggregating context, star misuse), and
/// flattens all expressions. Cheap relative to execution; runs once per
/// (query, table-set) pair.
StatusOr<SqlPlan> BindSql(const Query& q, const TableResolver& resolver);

}  // namespace titant::maxcompute

#endif  // TITANT_MAXCOMPUTE_SQL_PLAN_H_
