// SELECT execution over an abstract table source.
//
// The executor is deliberately decoupled from Database so that the same
// code runs in three places: inside each vendor engine, inside the Unity
// driver's middleware-side join of per-mart partial results, and inside
// warehouse view materialization.
//
// Execution is vectorized (DESIGN.md §15): columnar batches of
// ExecOptions::batch_rows rows (typed ColumnVector payloads, hash join
// and hash aggregation by gather, top-K ORDER BY under LIMIT). Its
// specification is the row-at-a-time executor kept as a parity oracle in
// bench/row_executor_oracle.h; fault-free outputs are byte-identical to
// it. Every ResultSet is rectangular (each row as wide as its column
// list): the rpc layer checks that where rows arrive from a peer, so no
// table source yields a row of another width.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "griddb/sql/ast.h"
#include "griddb/storage/result_set.h"
#include "griddb/util/cancellation.h"
#include "griddb/util/status.h"

namespace griddb::engine {

/// Borrowed view of a materialized table: column names plus a pointer to
/// its rows, valid for the duration of the ExecuteSelect call. Lets the
/// vectorized scan read rows in place instead of copying the whole table.
struct TableView {
  std::vector<std::string> columns;
  const std::vector<storage::Row>* rows;
};

/// Provides the rows of a named table (or view) to the executor.
class TableSource {
 public:
  virtual ~TableSource() = default;
  virtual Result<storage::ResultSet> GetTable(const std::string& name) const = 0;
  /// Borrowing variant: a source holding materialized tables returns a
  /// view (its rows stable for the duration of the ExecuteSelect call) so
  /// the executor can read rows in place instead of copying the whole
  /// table. Default: not available, the executor falls back to GetTable.
  virtual std::optional<TableView> BorrowTable(const std::string& name) const {
    (void)name;
    return std::nullopt;
  }
};

/// Simple TableSource over pre-materialized result sets keyed by name
/// (case-insensitive). Used by the federated merge step.
class MapTableSource : public TableSource {
 public:
  void Add(std::string name, storage::ResultSet rs);
  Result<storage::ResultSet> GetTable(const std::string& name) const override;
  std::optional<TableView> BorrowTable(const std::string& name) const override;

 private:
  std::vector<std::pair<std::string, storage::ResultSet>> tables_;
};

/// Execution knobs.
struct ExecOptions {
  /// Checked once per batch inside scan/join/filter/group/projection
  /// loops. Null keeps the loops check-free.
  const CancelToken* cancel = nullptr;
  /// Rows per columnar batch; also the cancellation-check cadence.
  size_t batch_rows = 1024;
};

/// Executes a SELECT against `source`. Joins, WHERE, GROUP BY/HAVING,
/// aggregates, DISTINCT, ORDER BY and LIMIT/OFFSET are all evaluated here.
Result<storage::ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                         const TableSource& source,
                                         const ExecOptions& opts = {});

/// Convenience overload preserved from the row-executor era: cancellation
/// only, default batching.
Result<storage::ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                         const TableSource& source,
                                         const CancelToken* cancel);

}  // namespace griddb::engine
