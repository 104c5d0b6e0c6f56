// The row-at-a-time SELECT executor, kept as a parity oracle.
//
// Production runs one executor, the vectorized one
// (src/griddb/engine/vector_executor.cc, DESIGN.md §15). This header
// keeps the row-at-a-time executor it replaced verbatim, apart from
// borrowing tables through TableSource::BorrowTable: joins, WHERE,
// grouping and projection run one row at a time over the helpers the
// engine shares for exactly this purpose (engine/executor_internal.h:
// star expansion, output naming, equi-join detection, DISTINCT, ORDER BY
// and OFFSET/LIMIT).
//
// Two uses:
//   - parity: engine::ExecuteSelect must return byte-identical results,
//     and fail wherever this executor fails, on every fault-free input
//     (tests/vectorized_parity_test.cc);
//   - baseline: bench/bench_ext_vectorized.cc measures the vectorized
//     executor's speedup against it.
//
// Like the vectorized executor it assumes rectangular tables: every row
// as wide as the table's column list.
#pragma once

#include <algorithm>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "griddb/engine/eval.h"
#include "griddb/engine/executor_internal.h"
#include "griddb/engine/select_executor.h"
#include "griddb/sql/ast.h"
#include "griddb/storage/result_set.h"
#include "griddb/util/cancellation.h"
#include "griddb/util/status.h"
#include "griddb/util/strings.h"

namespace griddb::bench::row_executor {

namespace internal = engine::internal;
using engine::Eval;
using engine::EvalGrouped;
using engine::Scope;
using engine::TableSource;
using engine::TableView;
using storage::ResultSet;
using storage::Row;
using storage::Value;

namespace detail {

using internal::EquiJoinKey;

/// Row-batch cancellation probe: every kBatch-th Check() consults the
/// token, the rest are a counter increment. Keeps the per-row overhead of
/// cooperative cancellation negligible while still bounding how much work
/// runs after a deadline expires or a client aborts.
class BatchCancelCheck {
 public:
  explicit BatchCancelCheck(const CancelToken* cancel) : cancel_(cancel) {}

  Status Check() {
    if (cancel_ == nullptr || ++count_ % kBatch != 0) return Status::Ok();
    return cancel_->Check();
  }

 private:
  static constexpr size_t kBatch = 1024;
  const CancelToken* cancel_;
  size_t count_ = 0;
};

/// The working set during FROM/JOIN processing: a scope describing the
/// concatenated columns and the joined rows.
struct WorkingSet {
  Scope scope;
  std::vector<Row> rows;
};

inline Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Joins `incoming` (a table's rows under `qualifier`) into `ws`.
inline Status JoinInto(WorkingSet& ws, const std::string& qualifier,
                       const TableView& incoming, sql::JoinType type,
                       const sql::Expr* on, BatchCancelCheck& cancel) {
  Scope incoming_scope;
  incoming_scope.AddColumns(qualifier, incoming.columns);

  Scope combined = ws.scope;
  combined.AddColumns(qualifier, incoming.columns);

  std::vector<Row> joined;

  // Hash path for single-equality inner/left joins. The build table maps
  // key -> build-row indices in insertion order, so duplicate-key matches
  // emit in build-row order — deterministic, and shared with the
  // vectorized hash join so both paths emit identical row order.
  if (type != sql::JoinType::kCross) {
    if (auto key = internal::DetectEquiJoin(on, ws.scope, incoming_scope)) {
      std::unordered_map<Value, std::vector<size_t>, storage::ValueHasher> hash;
      hash.reserve(incoming.rows->size());
      for (size_t r = 0; r < incoming.rows->size(); ++r) {
        const Value& v = (*incoming.rows)[r][key->new_index];
        if (!v.is_null()) hash[v].push_back(r);
      }
      size_t incoming_width = incoming.columns.size();
      joined.reserve(ws.rows.size());  // >= one output row per match/pad
      for (Row& left : ws.rows) {
        GRIDDB_RETURN_IF_ERROR(cancel.Check());
        const Value& probe = left[key->left_index];
        bool matched = false;
        if (!probe.is_null()) {
          auto it = hash.find(probe);
          if (it != hash.end()) {
            const std::vector<size_t>& matches = it->second;
            for (size_t m = 0; m < matches.size(); ++m) {
              const Row& right = (*incoming.rows)[matches[m]];
              if (m + 1 == matches.size()) {
                // Last use of this probe row: its values move, only the
                // build side is copied.
                left.reserve(left.size() + right.size());
                left.insert(left.end(), right.begin(), right.end());
                joined.push_back(std::move(left));
              } else {
                joined.push_back(ConcatRows(left, right));
              }
            }
            matched = true;
          }
        }
        if (!matched && type == sql::JoinType::kLeft) {
          // NULL-pad in place (resize appends null Values), then move.
          left.resize(left.size() + incoming_width);
          joined.push_back(std::move(left));
        }
      }
      ws.scope = std::move(combined);
      ws.rows = std::move(joined);
      return Status::Ok();
    }
  }

  // General nested-loop join.
  size_t incoming_width = incoming.columns.size();
  joined.reserve(ws.rows.size());
  for (Row& left : ws.rows) {
    bool matched = false;
    for (const Row& right : *incoming.rows) {
      GRIDDB_RETURN_IF_ERROR(cancel.Check());
      Row candidate = ConcatRows(left, right);
      if (on) {
        GRIDDB_ASSIGN_OR_RETURN(Value keep, Eval(*on, combined, candidate));
        if (keep.is_null()) continue;
        GRIDDB_ASSIGN_OR_RETURN(bool b, keep.AsBool());
        if (!b) continue;
      }
      joined.push_back(std::move(candidate));
      matched = true;
    }
    if (!matched && type == sql::JoinType::kLeft) {
      left.resize(left.size() + incoming_width);
      joined.push_back(std::move(left));
    }
  }
  ws.scope = std::move(combined);
  ws.rows = std::move(joined);
  return Status::Ok();
}

}  // namespace detail

inline Result<ResultSet> ExecuteSelectReferenceRows(
    const sql::SelectStmt& stmt, const TableSource& source,
    const CancelToken* cancel = nullptr) {
  using detail::BatchCancelCheck;
  using detail::JoinInto;
  using detail::WorkingSet;
  if (stmt.from.empty()) return InvalidArgument("SELECT requires FROM");
  BatchCancelCheck cancel_check(cancel);

  GRIDDB_RETURN_IF_ERROR(internal::CheckDuplicateTables(stmt));

  // Tables are borrowed in place when the source holds them materialized
  // (the federated merge path and storage tables), skipping a whole-table
  // copy per table; on-demand sources fall back to GetTable, with the
  // returned copy kept alive in `owned` (a list: growth never invalidates
  // the borrowed pointers).
  std::list<ResultSet> owned;
  auto table_for = [&](const std::string& name) -> Result<TableView> {
    if (std::optional<TableView> borrowed = source.BorrowTable(name)) {
      return *borrowed;
    }
    GRIDDB_ASSIGN_OR_RETURN(ResultSet rs, source.GetTable(name));
    owned.push_back(std::move(rs));
    return TableView{owned.back().columns, &owned.back().rows};
  };

  // FROM list: first table seeds the working set, remaining are cross joins.
  WorkingSet ws;
  {
    GRIDDB_ASSIGN_OR_RETURN(TableView first, table_for(stmt.from[0].table));
    ws.scope.AddColumns(stmt.from[0].EffectiveName(), first.columns);
    if (!owned.empty() && first.rows == &owned.back().rows) {
      ws.rows = std::move(owned.back().rows);  // our copy: move, don't copy
    } else {
      ws.rows = *first.rows;  // borrowed: the working set mutates rows
    }
  }
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    GRIDDB_ASSIGN_OR_RETURN(TableView table, table_for(stmt.from[i].table));
    GRIDDB_RETURN_IF_ERROR(JoinInto(ws, stmt.from[i].EffectiveName(), table,
                                    sql::JoinType::kCross, nullptr,
                                    cancel_check));
  }
  for (const sql::Join& join : stmt.joins) {
    GRIDDB_ASSIGN_OR_RETURN(TableView table, table_for(join.table.table));
    GRIDDB_RETURN_IF_ERROR(JoinInto(ws, join.table.EffectiveName(), table,
                                    join.type, join.on.get(), cancel_check));
  }

  // WHERE.
  if (stmt.where) {
    std::vector<Row> kept;
    kept.reserve(ws.rows.size());
    for (Row& row : ws.rows) {
      GRIDDB_RETURN_IF_ERROR(cancel_check.Check());
      GRIDDB_ASSIGN_OR_RETURN(Value v, Eval(*stmt.where, ws.scope, row));
      if (v.is_null()) continue;
      GRIDDB_ASSIGN_OR_RETURN(bool keep, v.AsBool());
      if (keep) kept.push_back(std::move(row));
    }
    ws.rows = std::move(kept);
  }

  // Expand stars now that the scope is known.
  std::vector<sql::SelectItem> items;
  std::vector<std::string> names;
  GRIDDB_RETURN_IF_ERROR(internal::ExpandStars(stmt, ws.scope, items, names));

  bool has_aggregate = internal::StatementHasAggregate(stmt, items);

  ResultSet out;
  out.columns = names;

  // Order keys computed alongside each output row, sorted before LIMIT.
  std::vector<std::vector<Value>> order_keys;
  bool has_order = !stmt.order_by.empty();

  auto eval_order_keys =
      [&](const std::vector<const Row*>& group, const Row* plain_row,
          const Row& projected) -> Result<std::vector<Value>> {
    std::vector<Value> keys;
    keys.reserve(stmt.order_by.size());
    for (const sql::OrderItem& item : stmt.order_by) {
      // ORDER BY may name an output alias or position.
      if (item.expr->kind == sql::Expr::Kind::kLiteral &&
          item.expr->literal.type() == storage::DataType::kInt64) {
        int64_t pos = item.expr->literal.AsInt64Strict();
        if (pos < 1 || pos > static_cast<int64_t>(projected.size())) {
          return InvalidArgument("ORDER BY position out of range");
        }
        keys.push_back(projected[static_cast<size_t>(pos - 1)]);
        continue;
      }
      if (item.expr->kind == sql::Expr::Kind::kColumn &&
          item.expr->column_ref.table.empty()) {
        // Alias match takes precedence over scope columns, per SQL.
        bool found = false;
        for (size_t i = 0; i < names.size(); ++i) {
          if (EqualsIgnoreCase(names[i], item.expr->column_ref.column)) {
            keys.push_back(projected[i]);
            found = true;
            break;
          }
        }
        if (found) continue;
      }
      if (has_aggregate) {
        GRIDDB_ASSIGN_OR_RETURN(Value v, EvalGrouped(*item.expr, ws.scope, group));
        keys.push_back(std::move(v));
      } else {
        GRIDDB_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, ws.scope, *plain_row));
        keys.push_back(std::move(v));
      }
    }
    return keys;
  };

  if (has_aggregate) {
    // Group rows by the GROUP BY key vector.
    std::vector<std::pair<std::vector<Value>, std::vector<const Row*>>> groups;
    std::unordered_map<size_t, std::vector<size_t>> buckets;  // hash -> group idx
    for (const Row& row : ws.rows) {
      GRIDDB_RETURN_IF_ERROR(cancel_check.Check());
      std::vector<Value> key;
      key.reserve(stmt.group_by.size());
      for (const sql::ExprPtr& g : stmt.group_by) {
        GRIDDB_ASSIGN_OR_RETURN(Value v, Eval(*g, ws.scope, row));
        key.push_back(std::move(v));
      }
      size_t h = storage::RowHasher{}(key);
      bool placed = false;
      for (size_t idx : buckets[h]) {
        if (groups[idx].first.size() == key.size()) {
          bool equal = true;
          for (size_t i = 0; i < key.size(); ++i) {
            const Value& a = groups[idx].first[i];
            const Value& b = key[i];
            if (a.is_null() != b.is_null() ||
                (!a.is_null() && a.Compare(b) != 0)) {
              equal = false;
              break;
            }
          }
          if (equal) {
            groups[idx].second.push_back(&row);
            placed = true;
            break;
          }
        }
      }
      if (!placed) {
        buckets[h].push_back(groups.size());
        groups.emplace_back(std::move(key), std::vector<const Row*>{&row});
      }
    }
    // No GROUP BY but aggregates: one group over everything (even empty).
    if (stmt.group_by.empty()) {
      std::vector<const Row*> all;
      all.reserve(ws.rows.size());
      for (const Row& row : ws.rows) all.push_back(&row);
      groups.clear();
      groups.emplace_back(std::vector<Value>{}, std::move(all));
    }

    out.rows.reserve(groups.size());
    if (has_order) order_keys.reserve(groups.size());
    for (auto& [key, group_rows] : groups) {
      if (stmt.having) {
        GRIDDB_ASSIGN_OR_RETURN(Value keep,
                                EvalGrouped(*stmt.having, ws.scope, group_rows));
        if (keep.is_null()) continue;
        GRIDDB_ASSIGN_OR_RETURN(bool b, keep.AsBool());
        if (!b) continue;
      }
      Row projected;
      projected.reserve(items.size());
      for (const sql::SelectItem& item : items) {
        GRIDDB_ASSIGN_OR_RETURN(Value v,
                                EvalGrouped(*item.expr, ws.scope, group_rows));
        projected.push_back(std::move(v));
      }
      if (has_order) {
        GRIDDB_ASSIGN_OR_RETURN(std::vector<Value> keys,
                                eval_order_keys(group_rows, nullptr, projected));
        order_keys.push_back(std::move(keys));
      }
      out.rows.push_back(std::move(projected));
    }
  } else {
    if (stmt.having) {
      return InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    out.rows.reserve(ws.rows.size());
    if (has_order) order_keys.reserve(ws.rows.size());
    for (const Row& row : ws.rows) {
      GRIDDB_RETURN_IF_ERROR(cancel_check.Check());
      Row projected;
      projected.reserve(items.size());
      for (const sql::SelectItem& item : items) {
        GRIDDB_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, ws.scope, row));
        projected.push_back(std::move(v));
      }
      if (has_order) {
        GRIDDB_ASSIGN_OR_RETURN(std::vector<Value> keys,
                                eval_order_keys({}, &row, projected));
        order_keys.push_back(std::move(keys));
      }
      out.rows.push_back(std::move(projected));
    }
  }

  // ORDER BY: stable sort on the computed keys.
  if (has_order) {
    internal::SortRowsByKeys(stmt, order_keys, out.rows, std::nullopt);
  }

  // DISTINCT (preserves the post-sort order of first occurrences).
  if (stmt.distinct) {
    internal::DedupeRows(out.rows);
  }

  internal::ApplyOffsetLimit(stmt, out.rows);

  return out;
}

}  // namespace griddb::bench::row_executor
