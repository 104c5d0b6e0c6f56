// SELECT execution over an abstract table source.
//
// The executor is deliberately decoupled from Database so that the same
// code runs in three places: inside each vendor engine, inside the Unity
// driver's middleware-side join of per-mart partial results, and inside
// warehouse view materialization.
//
// Execution is vectorized (DESIGN.md §15) over typed column chunks:
// tables are read in place, WHERE runs as typed kernels, hash join and
// hash aggregation work by gather, ORDER BY under LIMIT selects its top K
// on typed key vectors, and only the rows a query returns are boxed into
// Values. Its
// specification is the row-at-a-time executor kept as a parity oracle in
// bench/row_executor_oracle.h; fault-free outputs are byte-identical to
// it. Every ResultSet is rectangular (each row as wide as its column
// list): the rpc layer checks that where rows arrive from a peer, so no
// table source yields a row of another width.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "griddb/sql/ast.h"
#include "griddb/storage/column_vector.h"
#include "griddb/storage/result_set.h"
#include "griddb/util/cancellation.h"
#include "griddb/util/status.h"

namespace griddb::engine {

/// One table lent to the executor for one ExecuteSelect call: its column
/// names and its rows as typed column chunks (storage::ChunkedRows). A
/// stored table lends its chunks in place; a table the source computes
/// for the call (a view, a catalog table) is converted to chunks once and
/// owned by the view.
struct TableView {
  std::vector<std::string> columns;
  const storage::ChunkedRows* data = nullptr;
  std::shared_ptr<const storage::ChunkedRows> owned;

  /// A view that owns `rs`'s rows, converted to chunks.
  static Result<TableView> FromResultSet(storage::ResultSet rs);
};

/// Provides the tables (or views) a SELECT reads.
class TableSource {
 public:
  virtual ~TableSource() = default;
  /// Lends the named table; what it points to stays valid and unchanged
  /// for the duration of the ExecuteSelect call.
  virtual Result<TableView> GetTable(const std::string& name) const = 0;
};

/// TableSource over named result sets (case-insensitive names). Used by
/// the federated merge step: each partial result is converted to column
/// chunks once, where it is added.
class MapTableSource : public TableSource {
 public:
  void Add(std::string name, storage::ResultSet rs);
  Result<TableView> GetTable(const std::string& name) const override;

 private:
  struct Entry {
    std::string name;
    std::vector<std::string> columns;
    Result<storage::ChunkedRows> data;  // kInternal for a ragged input
  };
  std::vector<Entry> tables_;
};

/// Execution knobs.
struct ExecOptions {
  /// Checked once per batch inside scan/join/filter/group/projection
  /// loops. Null keeps the loops check-free.
  const CancelToken* cancel = nullptr;
  /// Rows per batch the executor builds (join output, gathered
  /// survivors); also the cancellation-check cadence. Stored tables are
  /// read in their own storage::kChunkRows chunks.
  size_t batch_rows = storage::kChunkRows;
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
