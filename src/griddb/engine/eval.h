// Expression evaluation over scoped rows.
//
// A Scope names the columns of a (possibly joined) working row; Eval walks
// an sql::Expr and produces a Value with SQL three-valued-logic-lite
// semantics: any NULL operand propagates NULL through arithmetic and
// comparisons, and WHERE treats NULL as false.
//
// The same scalar kernels back the executor and its row-at-a-time parity
// oracle (DESIGN.md §15, bench/row_executor_oracle.h): the oracle calls
// Eval and EvalGrouped over storage::Row, and the vectorized executor
// calls the RowBatch overload for its elementwise fallback plus
// CombineScalarNode / AggregateValues when it combines per-group
// results. Because the kernels are shared, the two cannot diverge on
// scalar semantics.
#pragma once

#include <string>
#include <vector>

#include "griddb/engine/column_vector.h"
#include "griddb/sql/ast.h"
#include "griddb/storage/result_set.h"
#include "griddb/storage/value.h"
#include "griddb/util/status.h"

namespace griddb::engine {

/// Column name table for a working row: each entry is (qualifier, column).
/// Qualifier is the table alias (or name) the column came from; several
/// tables' columns concatenate into one flat row during joins.
class Scope {
 public:
  void Add(std::string qualifier, std::string column) {
    entries_.push_back({std::move(qualifier), std::move(column)});
  }

  /// Appends `columns` under `qualifier`.
  void AddColumns(const std::string& qualifier,
                  const std::vector<std::string>& columns);

  size_t size() const { return entries_.size(); }
  const std::string& qualifier(size_t i) const { return entries_[i].qualifier; }
  const std::string& column(size_t i) const { return entries_[i].column; }

  /// Resolves a column reference. Unqualified names must be unambiguous.
  Result<size_t> Resolve(const sql::ColumnRef& ref) const;

  /// Indexes of all columns with the given qualifier.
  std::vector<size_t> ColumnsOf(const std::string& qualifier) const;

 private:
  struct Entry {
    std::string qualifier;
    std::string column;
  };
  std::vector<Entry> entries_;
};

/// Evaluates a scalar expression (no aggregate functions) against one row.
Result<storage::Value> Eval(const sql::Expr& expr, const Scope& scope,
                            const storage::Row& row);

/// Same semantics, reading the cells of row `row` from a columnar batch.
/// This is the vectorized executor's elementwise fallback: it shares every
/// code path with the Row overload, so laziness (CASE stops at the first
/// taken WHEN, IN short-circuits) and error behaviour match exactly.
Result<storage::Value> Eval(const sql::Expr& expr, const Scope& scope,
                            const RowBatch& batch, size_t row);

/// Combines an interior expression node from already-evaluated child
/// values, exactly as grouped evaluation does: the children are folded to
/// literals and the node is re-evaluated. Used by both EvalGrouped and the
/// vectorized grouped evaluator so their combine step is the same code.
Result<storage::Value> CombineScalarNode(const sql::Expr& expr,
                                         std::vector<storage::Value> children);

/// Validates an aggregate call's shape (argument count); sets `count_star`
/// for COUNT(*). Performed before any argument evaluation.
Status CheckAggregateShape(const sql::Expr& agg, bool& count_star);

/// Finalizes an aggregate over the non-NULL argument values of one group,
/// in row order. DISTINCT dedupe, SUM's integer preservation and AVG's
/// accumulation order all live here so both executors share them.
/// COUNT(*) never reaches this (the caller answers it from the row count).
Result<storage::Value> AggregateValues(const sql::Expr& agg,
                                       std::vector<storage::Value> values);

/// True when the expression contains an aggregate function call.
bool ContainsAggregate(const sql::Expr& expr);

/// True when `name` is one of COUNT/SUM/AVG/MIN/MAX.
bool IsAggregateFunction(const std::string& upper_name);

/// Evaluates an expression in grouped context: aggregate calls are computed
/// over `group_rows`; bare columns evaluate against the group's first row.
Result<storage::Value> EvalGrouped(const sql::Expr& expr, const Scope& scope,
                                   const std::vector<const storage::Row*>& group_rows);

/// SQL LIKE with % and _ wildcards (case-sensitive, no escape clause).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace griddb::engine
