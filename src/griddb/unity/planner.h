// Federated query planning: logical SELECT -> per-database sub-queries +
// a middleware-side merge plan (paper §4.5 / §4.6).
//
// The data access layer "looks for the tables from which data is
// requested by the client ... and divides [the query] into sub-queries,
// which are then distributed on to the underlying databases"; the
// enhanced Unity driver then "appl[ies] joins on rows extracted from
// multiple databases" and merges everything "into a single 2-D vector".
//
// Plan shape: every table reference is bound to a *location*.
//  - A table in the data dictionary is bound to one replica's local
//    connection. A table the dictionary does not hold is bound as
//    schema-unknown and located through the RLS at execution time.
//  - When one location can run the whole statement it is shipped in one
//    piece: rewritten to physical names for a single local database, or
//    forwarded as written when no table is local (the service checks
//    that the RLS names one server for all of them).
//  - Otherwise the plan holds one SubQuery per table reference
//    (projection and single-table predicates pushed down, rendered in
//    the target's dialect) plus a merge statement the middleware runs
//    over the partial results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "griddb/engine/select_executor.h"
#include "griddb/sql/ast.h"
#include "griddb/sql/dialect.h"
#include "griddb/unity/dictionary.h"
#include "griddb/util/status.h"

namespace griddb::unity {

/// Chooses among replicas of a logical table. Default: a binding whose
/// connection host equals `prefer_host` if any, else the first.
using ReplicaSelector = std::function<const TableBinding*(
    const std::vector<TableBinding>& replicas)>;

struct PlannerOptions {
  /// Enhanced-driver behaviour. When false (baseline Unity), planning a
  /// query whose tables span locations fails with kUnsupported.
  bool allow_cross_database_joins = true;
  /// Fetch only the columns the query references (vs whole tables — the
  /// baseline behaviour whose memory overload the paper §3 calls out).
  bool projection_pushdown = true;
  /// Push single-table WHERE conjuncts into the sub-queries.
  bool predicate_pushdown = true;
  /// Host whose replicas are preferred (the querying server's host).
  std::string prefer_host;
  /// Custom replica choice; overrides prefer_host when set.
  ReplicaSelector selector;
  /// Routing eligibility predicate applied BEFORE replica selection;
  /// bindings for which it returns false (e.g. quarantined replicas, see
  /// core/integrity_monitor) are invisible to the selector. When every
  /// replica of a table is filtered out, planning fails with kNotFound
  /// ("no usable replica"), which the failover path treats as
  /// failover-worthy.
  std::function<bool(const TableBinding&)> replica_filter;
};

/// Where a statement or sub-query runs.
enum class Location {
  kLocal,   ///< A locally registered database connection.
  kRemote,  ///< The JClarens servers the RLS names for the table. The
            ///< candidates are looked up on every execution, never stored
            ///< in the plan, so failover invalidation stays current.
};

/// One per-location fetch of one table reference, registered at merge
/// under `effective_name`.
///  - kLocal: fetch `fields` of `table` filtered by `where`, all names
///    physical, on `table.connection`.
///  - kRemote: the schema is unknown here, so `table` carries only the
///    logical name, `fields` is empty and the fetch is
///    `SELECT * FROM <logical> [WHERE ...]` with logical names.
struct SubQuery {
  Location location = Location::kLocal;
  TableBinding table;
  std::string effective_name;
  /// (physical column, logical output alias) pairs.
  std::vector<std::pair<std::string, std::string>> fields;
  sql::ExprPtr where;  ///< Unqualified; may be null.

  /// Full SELECT text in the target dialect (the client's for kRemote).
  std::string RenderSql(const sql::Dialect& dialect) const;
  /// The POOL-RAL wrapper form: select-field strings ("P AS l"),
  /// table list and where-clause text.
  std::vector<std::string> FieldStrings(const sql::Dialect& dialect) const;
  std::string WhereString(const sql::Dialect& dialect) const;
};

struct QueryPlan {
  /// True when every referenced table lives in one local database.
  bool single_database = false;

  // The whole statement, when one location can run it without a merge.
  // Single local database: physical names, executed on `connection`. No
  // local table: the logical statement, forwarded whole when the RLS
  // names one first-choice server for every table. Null otherwise.
  std::string connection;
  std::unique_ptr<sql::SelectStmt> direct_stmt;

  // Split execution: one sub-query per table reference, then the merge.
  // Empty for single-database plans.
  std::vector<SubQuery> subqueries;
  std::unique_ptr<sql::SelectStmt> merge_stmt;

  /// Logical tables the statement references (for RLS publication checks).
  std::vector<std::string> logical_tables;

  /// Dictionary epoch the plan was made against. Executors compare this
  /// with the dictionary's current epoch and refuse to run a stale plan.
  uint64_t epoch = 0;
};

/// Plans a logical SELECT against the dictionary. Tables the dictionary
/// does not hold become kRemote sub-queries; column references the
/// planner cannot attribute to a local table are left for the merge.
Result<QueryPlan> PlanSelect(const sql::SelectStmt& stmt,
                             const DataDictionary& dictionary,
                             const PlannerOptions& options);

/// Executes the merge statement over named partial results. `cancel`,
/// when given, is checked at row-batch granularity inside the merge join
/// (see engine::ExecuteSelect).
Result<storage::ResultSet> MergePartials(
    const sql::SelectStmt& merge_stmt,
    std::vector<std::pair<std::string, storage::ResultSet>> partials,
    const CancelToken* cancel = nullptr);

/// Human-readable plan description (EXPLAIN-style): the whole statement
/// with its location, or every sub-query with its location and dialect
/// plus the middleware merge statement.
std::string DescribePlan(const QueryPlan& plan);

}  // namespace griddb::unity
