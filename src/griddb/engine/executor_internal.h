// Helpers shared by the vectorized executor (vector_executor.cc) and the
// row-at-a-time parity oracle (bench/row_executor_oracle.h). Everything
// here is semantics the two must agree on exactly: star expansion, output
// naming, equi-join detection, DISTINCT dedupe, OFFSET/LIMIT slicing and
// ORDER BY comparison. Internal to the engine — not part of its API.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "griddb/engine/eval.h"
#include "griddb/engine/select_executor.h"
#include "griddb/sql/ast.h"
#include "griddb/storage/value.h"
#include "griddb/util/status.h"

namespace griddb::engine::internal {

/// "a.x = b.y" where exactly one side references the table being joined
/// in and the other resolves in the existing scope.
struct EquiJoinKey {
  size_t left_index;  // column index in the existing working row
  size_t new_index;   // column index in the new table's row
};

std::optional<EquiJoinKey> DetectEquiJoin(const sql::Expr* on,
                                          const Scope& existing,
                                          const Scope& incoming);

/// Output column name for a select item.
std::string OutputName(const sql::SelectItem& item);

/// Expands SELECT * / t.* into concrete per-column items.
Status ExpandStars(const sql::SelectStmt& stmt, const Scope& scope,
                   std::vector<sql::SelectItem>& items,
                   std::vector<std::string>& names);

/// Rejects duplicate effective table names (t join t without aliases).
Status CheckDuplicateTables(const sql::SelectStmt& stmt);

/// True when the statement needs grouped evaluation (GROUP BY present, or
/// aggregates in the items/HAVING).
bool StatementHasAggregate(const sql::SelectStmt& stmt,
                           const std::vector<sql::SelectItem>& items);

/// DISTINCT: keeps the first occurrence of each row, preserving order.
void DedupeRows(std::vector<storage::Row>& rows);

/// Applies OFFSET then LIMIT in place.
void ApplyOffsetLimit(const sql::SelectStmt& stmt,
                      std::vector<storage::Row>& rows);

/// Stable-sorts `rows` by `order_keys` following stmt.order_by
/// directions. When `top_k` is set, only the first top_k rows of the
/// sorted order are produced (and `rows` is truncated to top_k); ties
/// break by original index, so the prefix is exactly the stable-sort
/// prefix. Used by the vectorized path for ORDER BY + LIMIT.
void SortRowsByKeys(const sql::SelectStmt& stmt,
                    const std::vector<std::vector<storage::Value>>& order_keys,
                    std::vector<storage::Row>& rows,
                    std::optional<size_t> top_k);

}  // namespace griddb::engine::internal
