#ifndef TITANT_MAXCOMPUTE_SQL_H_
#define TITANT_MAXCOMPUTE_SQL_H_

#include <string>

#include "common/statusor.h"
#include "maxcompute/sql_exec.h"
#include "maxcompute/sql_plan.h"
#include "maxcompute/table.h"

namespace titant::maxcompute {

/// Executes one query of the supported SQL subset against the resolver's
/// tables and returns the result table.
///
/// This is the one-shot convenience wrapper over the staged pipeline
/// (sql_lexer.h → sql_parser.h → sql_plan.h → sql_exec.h): it parses,
/// binds, and runs the query single-threaded with default batching.
/// Callers that need a scan pool or execution stats (MaxCompute's
/// SubmitSqlJob) call ParseSql and ExecuteQuery themselves.
///
/// Grammar (case-insensitive keywords):
///
///   SELECT select_item ("," select_item)*
///   FROM ident [JOIN ident ON expr "=" expr]
///   [WHERE expr]
///   [GROUP BY expr ("," expr)*]
///   [ORDER BY expr [ASC|DESC] ("," ...)*]
///   [LIMIT int]
///
///   select_item := "*" | expr ["AS" ident]
///   expr        := disjunctions/conjunctions/NOT over comparisons
///                  (= != <> < <= > >=) over +,-,*,/,% over unary minus,
///                  literals (ints, doubles, 'strings', TRUE/FALSE/NULL),
///                  column refs (optionally "table.column"),
///                  scalar functions ABS, ROUND, FLOOR, LOG, LOG1P,
///                  aggregates COUNT(*|expr), SUM, AVG, MIN, MAX
///
/// Aggregation: queries with GROUP BY or any aggregate in the select list
/// aggregate; non-aggregate select items are then evaluated on the first
/// row of each group (conventional loose semantics, as in Hive/ODPS SQL).
///
/// Returns InvalidArgument on parse/analysis errors.
StatusOr<Table> ExecuteSql(const std::string& query, const TableResolver& resolver);

}  // namespace titant::maxcompute

#endif  // TITANT_MAXCOMPUTE_SQL_H_
