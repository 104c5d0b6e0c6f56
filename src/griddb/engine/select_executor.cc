// MapTableSource and the executor helpers shared with the row-at-a-time
// parity oracle (bench/row_executor_oracle.h). ExecuteSelect itself lives
// in vector_executor.cc; see DESIGN.md §15.
#include "griddb/engine/select_executor.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "griddb/engine/eval.h"
#include "griddb/engine/executor_internal.h"
#include "griddb/sql/render.h"
#include "griddb/util/strings.h"

namespace griddb::engine {

using storage::ResultSet;
using storage::Row;
using storage::Value;

Result<TableView> TableView::FromResultSet(ResultSet rs) {
  TableView view;
  GRIDDB_ASSIGN_OR_RETURN(storage::ChunkedRows data,
                          storage::ChunkRows(std::move(rs.rows),
                                             rs.columns.size()));
  view.owned = std::make_shared<const storage::ChunkedRows>(std::move(data));
  view.data = view.owned.get();
  view.columns = std::move(rs.columns);
  return view;
}

void MapTableSource::Add(std::string name, ResultSet rs) {
  size_t width = rs.columns.size();
  tables_.push_back({std::move(name), std::move(rs.columns),
                     storage::ChunkRows(std::move(rs.rows), width)});
}

Result<TableView> MapTableSource::GetTable(const std::string& name) const {
  for (const Entry& entry : tables_) {
    if (!EqualsIgnoreCase(entry.name, name)) continue;
    if (!entry.data.ok()) return entry.data.status();
    TableView view;
    view.columns = entry.columns;
    view.data = &*entry.data;
    return view;
  }
  return NotFound("table '" + name + "' not found");
}

namespace internal {

std::optional<EquiJoinKey> DetectEquiJoin(const sql::Expr* on,
                                          const Scope& existing,
                                          const Scope& incoming) {
  if (!on || on->kind != sql::Expr::Kind::kBinary ||
      on->binary_op != sql::BinaryOp::kEq) {
    return std::nullopt;
  }
  const sql::Expr& lhs = *on->children[0];
  const sql::Expr& rhs = *on->children[1];
  if (lhs.kind != sql::Expr::Kind::kColumn ||
      rhs.kind != sql::Expr::Kind::kColumn) {
    return std::nullopt;
  }
  auto l_existing = existing.Resolve(lhs.column_ref);
  auto r_existing = existing.Resolve(rhs.column_ref);
  auto l_incoming = incoming.Resolve(lhs.column_ref);
  auto r_incoming = incoming.Resolve(rhs.column_ref);
  if (l_existing.ok() && r_incoming.ok() && !l_incoming.ok() && !r_existing.ok()) {
    return EquiJoinKey{l_existing.value(), r_incoming.value()};
  }
  if (r_existing.ok() && l_incoming.ok() && !r_incoming.ok() && !l_existing.ok()) {
    return EquiJoinKey{r_existing.value(), l_incoming.value()};
  }
  return std::nullopt;
}

std::string OutputName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == sql::Expr::Kind::kColumn) {
    return item.expr->column_ref.column;
  }
  return sql::RenderExpr(*item.expr, sql::Dialect::For(sql::Vendor::kSqlite));
}

Status ExpandStars(const sql::SelectStmt& stmt, const Scope& scope,
                   std::vector<sql::SelectItem>& items,
                   std::vector<std::string>& names) {
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr->kind != sql::Expr::Kind::kStar) {
      items.push_back({item.expr->Clone(), item.alias});
      names.push_back(OutputName(item));
      continue;
    }
    const std::string& qualifier = item.expr->column_ref.table;
    if (qualifier.empty()) {
      for (size_t i = 0; i < scope.size(); ++i) {
        items.push_back(
            {sql::MakeColumn(scope.qualifier(i), scope.column(i)), ""});
        names.push_back(scope.column(i));
      }
    } else {
      std::vector<size_t> columns = scope.ColumnsOf(qualifier);
      if (columns.empty()) {
        return NotFound("unknown table '" + qualifier + "' in " + qualifier +
                        ".*");
      }
      for (size_t i : columns) {
        items.push_back({sql::MakeColumn(qualifier, scope.column(i)), ""});
        names.push_back(scope.column(i));
      }
    }
  }
  return Status::Ok();
}

Status CheckDuplicateTables(const sql::SelectStmt& stmt) {
  std::vector<const sql::TableRef*> tables = stmt.AllTables();
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      if (EqualsIgnoreCase(tables[i]->EffectiveName(),
                           tables[j]->EffectiveName())) {
        return InvalidArgument("duplicate table name/alias '" +
                               tables[i]->EffectiveName() +
                               "'; use aliases to disambiguate");
      }
    }
  }
  return Status::Ok();
}

bool StatementHasAggregate(const sql::SelectStmt& stmt,
                           const std::vector<sql::SelectItem>& items) {
  bool has = !stmt.group_by.empty() ||
             (stmt.having && ContainsAggregate(*stmt.having));
  for (const sql::SelectItem& item : items) {
    if (ContainsAggregate(*item.expr)) has = true;
  }
  return has;
}

void DedupeRows(std::vector<Row>& rows) {
  std::vector<Row> unique;
  std::unordered_map<size_t, std::vector<size_t>> seen;
  for (Row& row : rows) {
    size_t h = storage::RowHasher{}(row);
    bool duplicate = false;
    for (size_t idx : seen[h]) {
      const Row& other = unique[idx];
      if (other.size() != row.size()) continue;
      bool equal = true;
      for (size_t i = 0; i < row.size(); ++i) {
        if (row[i].is_null() != other[i].is_null() ||
            (!row[i].is_null() && row[i].Compare(other[i]) != 0)) {
          equal = false;
          break;
        }
      }
      if (equal) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      seen[h].push_back(unique.size());
      unique.push_back(std::move(row));
    }
  }
  rows = std::move(unique);
}

void ApplyOffsetLimit(const sql::SelectStmt& stmt, std::vector<Row>& rows) {
  if (stmt.offset && *stmt.offset > 0) {
    size_t skip = std::min<size_t>(rows.size(),
                                   static_cast<size_t>(*stmt.offset));
    rows.erase(rows.begin(), rows.begin() + static_cast<long>(skip));
  }
  if (stmt.limit && *stmt.limit >= 0 &&
      rows.size() > static_cast<size_t>(*stmt.limit)) {
    rows.resize(static_cast<size_t>(*stmt.limit));
  }
}

void SortRowsByKeys(const sql::SelectStmt& stmt,
                    const std::vector<std::vector<Value>>& order_keys,
                    std::vector<Row>& rows, std::optional<size_t> top_k) {
  std::vector<size_t> permutation(rows.size());
  for (size_t i = 0; i < permutation.size(); ++i) permutation[i] = i;
  auto before = [&](size_t a, size_t b) {
    for (size_t k = 0; k < stmt.order_by.size(); ++k) {
      int cmp = order_keys[a][k].Compare(order_keys[b][k]);
      if (cmp != 0) {
        return stmt.order_by[k].ascending ? cmp < 0 : cmp > 0;
      }
    }
    return false;
  };
  if (top_k && *top_k < rows.size()) {
    // Top-K selection: tie-break on the original index, which makes the
    // order total and the selected prefix exactly the stable-sort prefix.
    size_t k = *top_k;
    std::partial_sort(permutation.begin(), permutation.begin() + k,
                      permutation.end(), [&](size_t a, size_t b) {
                        if (before(a, b)) return true;
                        if (before(b, a)) return false;
                        return a < b;
                      });
    permutation.resize(k);
  } else {
    std::stable_sort(permutation.begin(), permutation.end(), before);
  }
  std::vector<Row> sorted;
  sorted.reserve(permutation.size());
  for (size_t i : permutation) sorted.push_back(std::move(rows[i]));
  rows = std::move(sorted);
}

}  // namespace internal

Result<ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                const TableSource& source,
                                const CancelToken* cancel) {
  ExecOptions opts;
  opts.cancel = cancel;
  return ExecuteSelect(stmt, source, opts);
}

}  // namespace griddb::engine
