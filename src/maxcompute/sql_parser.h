#ifndef TITANT_MAXCOMPUTE_SQL_PARSER_H_
#define TITANT_MAXCOMPUTE_SQL_PARSER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "maxcompute/value.h"

namespace titant::maxcompute {

/// Aggregate functions of the SQL subset.
enum class AggFunc { kNone, kCount, kSum, kAvg, kMin, kMax };

/// One node of the untyped abstract syntax tree. Column references are
/// unresolved names here; the binder in sql_plan.h turns them into row
/// indices once per (query, schema) pair.
struct Expr {
  enum class Kind {
    kLiteral,
    kColumn,
    kUnaryMinus,
    kNot,
    kBinary,    // op in text: AND OR = != <> < <= > >= + - * / %
    kFunction,  // scalar: ABS/ROUND/FLOOR/LOG/LOG1P
    kAggregate,
    kStar,      // only inside COUNT(*)
  };
  Kind kind = Kind::kLiteral;
  Value literal;
  std::string column;  // Possibly "TABLE.COLUMN" (upper-cased).
  std::string op;      // For kBinary / kFunction name.
  AggFunc agg = AggFunc::kNone;
  std::vector<std::unique_ptr<Expr>> children;

  bool ContainsAggregate() const {
    if (kind == Kind::kAggregate) return true;
    for (const auto& child : children) {
      if (child->ContainsAggregate()) return true;
    }
    return false;
  }
};

using ExprPtr = std::unique_ptr<Expr>;

/// Deep copy of an expression tree.
ExprPtr CloneExpr(const Expr& expr);

struct SelectItem {
  ExprPtr expr;  // Null for "*".
  std::string alias;
};

struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

/// A parsed query. Schema-independent: the same Query may be bound and
/// executed against different tables (see sql_plan.h).
struct Query {
  std::vector<SelectItem> select;
  std::string from_table;
  std::string join_table;  // Empty if no join.
  ExprPtr join_left;       // join condition: left = right
  ExprPtr join_right;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;
};

/// Maximum expression nesting depth the parser accepts. Deeper input
/// (e.g. 10k nested parens from a fuzzer) fails with InvalidArgument
/// instead of overflowing the C++ stack — every later stage (binder,
/// clone, destructor recursion) is bounded by the same limit.
inline constexpr int kMaxSqlExprDepth = 400;

/// Lexes and parses one query of the supported SQL subset. ORDER BY
/// references to select aliases are rewritten to the aliased expression
/// here, so the returned Query is self-contained and immutable.
StatusOr<Query> ParseSql(const std::string& query);

}  // namespace titant::maxcompute

#endif  // TITANT_MAXCOMPUTE_SQL_PARSER_H_
