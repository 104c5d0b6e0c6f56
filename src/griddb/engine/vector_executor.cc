// Batch-at-a-time SELECT execution (DESIGN.md §15).
//
// Tables arrive as typed column chunks (storage::ChunkedRows) and the
// working set flows between operators as a list of RowBatch chunks. A
// single-table scan reads the lent chunks in place; WHERE evaluates the
// predicate once per chunk (EvalVector) over those stored arrays and
// gathers the survivors of only the columns the rest of the statement
// reads; joins build an insertion-ordered hash table and emit gathered
// output chunks; GROUP BY hashes key vectors to insertion-ordered groups
// and finalizes aggregates through the same AggregateValues the row path
// uses. Select items and ORDER BY keys are evaluated as vectors, rows are
// ordered (top-K under LIMIT) by comparing typed key cells, and only the
// rows the query returns are boxed into Values. Cancellation is checked
// once per chunk.
//
// Parity contract: on fault-free inputs the emitted ResultSet is
// byte-identical to the row-at-a-time oracle in
// bench/row_executor_oracle.h. Expressions the columnar form cannot
// evaluate identically fall back to the shared scalar kernels
// (vector_eval.cc).
#include <algorithm>
#include <optional>
#include <unordered_map>

#include "griddb/engine/eval.h"
#include "griddb/engine/executor_internal.h"
#include "griddb/engine/select_executor.h"
#include "griddb/engine/vector_eval.h"
#include "griddb/obs/metrics.h"
#include "griddb/util/strings.h"

namespace griddb::engine {
namespace {

using internal::ApplyOffsetLimit;
using internal::CheckDuplicateTables;
using internal::DedupeRows;
using internal::DetectEquiJoin;
using internal::EquiJoinKey;
using internal::ExpandStars;
using internal::SortRowsByKeys;
using internal::StatementHasAggregate;
using storage::ColumnVector;
using storage::kChunkRows;
using storage::ResultSet;
using storage::Row;
using storage::RowBatch;
using storage::Value;

struct EngineMetrics {
  obs::Counter* vectorized_queries;
  obs::Counter* batches;
  obs::Gauge* batch_bytes_peak;
};

EngineMetrics& Metrics() {
  static EngineMetrics m{
      obs::MetricsRegistry::Default().GetCounter(
          "griddb.engine.vectorized_queries"),
      obs::MetricsRegistry::Default().GetCounter("griddb.engine.batches"),
      obs::MetricsRegistry::Default().GetGauge(
          "griddb.engine.batch_bytes_peak"),
  };
  return m;
}

Status CheckCancel(const CancelToken* cancel) {
  return cancel ? cancel->Check() : Status::Ok();
}

/// The working set between operators: a scope naming the columns and the
/// rows as a sequence of columnar chunks — a lent table's own chunks,
/// read in place, until an operator builds new ones.
struct VecWorkingSet {
  Scope scope;
  const std::vector<RowBatch>* lent = nullptr;
  std::vector<RowBatch> owned;
  size_t total_rows = 0;

  size_t width() const { return scope.size(); }
  const std::vector<RowBatch>& chunks() const { return lent ? *lent : owned; }

  /// Counts the batches and tracks the peak bytes the executor itself
  /// holds (lent chunks belong to the table).
  void TrackPeak() const {
    size_t bytes = 0;
    for (const RowBatch& b : owned) bytes += b.ByteSize();
    EngineMetrics& m = Metrics();
    m.batches->Add(chunks().size());
    if (static_cast<double>(bytes) > m.batch_bytes_peak->value()) {
      m.batch_bytes_peak->Set(static_cast<double>(bytes));
    }
  }
};

/// Appends cells idx[k] of column `c` of a lent table, where idx holds
/// row numbers across its chunks and kNullIndex appends NULL.
void GatherLent(const std::vector<RowBatch>& chunks, size_t c,
                const std::vector<uint32_t>& idx, ColumnVector& out) {
  if (chunks.size() == 1) {
    out.AppendGather(chunks[0].cols[c], idx.data(), idx.size());
    return;
  }
  for (uint32_t i : idx) {
    if (i == ColumnVector::kNullIndex) {
      out.AppendNull();
    } else {
      out.AppendCell(chunks[i / kChunkRows].cols[c], i % kChunkRows);
    }
  }
}

/// Hash join / nested-loop join of `right_view` into `ws`, columnar.
/// Output row order matches the row oracle exactly: probe rows in
/// working-set order, duplicate-key matches in build insertion order,
/// LEFT-join padding immediately after each unmatched probe row.
Status JoinIntoVec(VecWorkingSet& ws, const std::string& qualifier,
                   const TableView& right_view, sql::JoinType type,
                   const sql::Expr* on, const ExecOptions& opts) {
  Scope incoming_scope;
  incoming_scope.AddColumns(qualifier, right_view.columns);
  Scope combined = ws.scope;
  combined.AddColumns(qualifier, right_view.columns);

  // The build side stays in its lent chunks; build rows are numbered
  // across them (row r is in chunk r / kChunkRows).
  const std::vector<RowBatch>& right = right_view.data->chunks;
  const size_t right_rows = right_view.data->rows;

  size_t left_width = ws.width();
  size_t right_width = right_view.columns.size();
  size_t out_width = left_width + right_width;
  std::vector<RowBatch> out_chunks;
  size_t out_rows = 0;

  std::optional<EquiJoinKey> key;
  if (type != sql::JoinType::kCross) {
    key = DetectEquiJoin(on, ws.scope, incoming_scope);
  }

  if (key) {
    // Build: key -> build-row indices in insertion order (same structure
    // as the row oracle's hash join, so duplicate-key emit order matches).
    // When every key column involved is int64 the table is keyed by the
    // raw integer — no Value boxing or variant hashing per probe. Exact
    // because int64/int64 equality IS Value::Compare for that type pair;
    // any other representation (doubles, mixed/boxed columns) keeps the
    // Value-keyed table, which matches cross-type numeric keys the same
    // way the row oracle's does.
    auto int_keyed = [](const ColumnVector& col) {
      return col.rep() == ColumnVector::Rep::kInt64 ||
             col.rep() == ColumnVector::Rep::kNone;  // kNone = all NULL
    };
    bool typed_keys = true;
    for (const RowBatch& chunk : right) {
      if (!int_keyed(chunk.cols[key->new_index])) typed_keys = false;
    }
    for (const RowBatch& chunk : ws.chunks()) {
      if (!int_keyed(chunk.cols[key->left_index])) typed_keys = false;
    }

    std::unordered_map<int64_t, std::vector<uint32_t>> int_hash;
    std::unordered_map<Value, std::vector<uint32_t>, storage::ValueHasher>
        hash;
    if (typed_keys) {
      int_hash.reserve(right_rows);
    } else {
      hash.reserve(right_rows);
    }
    for (size_t ci = 0; ci < right.size(); ++ci) {
      const ColumnVector& build_col = right[ci].cols[key->new_index];
      const uint32_t base = static_cast<uint32_t>(ci * kChunkRows);
      for (size_t r = 0; r < right[ci].rows; ++r) {
        if (build_col.IsNull(r)) continue;  // all of a kNone column
        const uint32_t row = base + static_cast<uint32_t>(r);
        if (typed_keys) {
          int_hash[build_col.ints()[r]].push_back(row);
        } else {
          hash[build_col.Get(r)].push_back(row);
        }
      }
    }

    for (const RowBatch& chunk : ws.chunks()) {
      GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
      const ColumnVector& probe_col = chunk.cols[key->left_index];
      const int64_t* probe_ints =
          probe_col.rep() == ColumnVector::Rep::kInt64 ? probe_col.ints()
                                                       : nullptr;
      std::vector<uint32_t> lidx, ridx;
      auto flush = [&]() {
        if (lidx.empty()) return;
        RowBatch out;
        out.cols.resize(out_width);
        for (size_t c = 0; c < left_width; ++c) {
          out.cols[c].AppendGather(chunk.cols[c], lidx.data(), lidx.size());
        }
        for (size_t c = 0; c < right_width; ++c) {
          GatherLent(right, c, ridx, out.cols[left_width + c]);
        }
        out.rows = lidx.size();
        out_rows += out.rows;
        out_chunks.push_back(std::move(out));
        lidx.clear();
        ridx.clear();
      };
      for (size_t i = 0; i < chunk.rows; ++i) {
        bool matched = false;
        if (!probe_col.IsNull(i)) {
          const std::vector<uint32_t>* rows_for_key = nullptr;
          if (typed_keys) {
            if (probe_ints != nullptr) {
              auto it = int_hash.find(probe_ints[i]);
              if (it != int_hash.end()) rows_for_key = &it->second;
            }
          } else {
            auto it = hash.find(probe_col.Get(i));
            if (it != hash.end()) rows_for_key = &it->second;
          }
          if (rows_for_key != nullptr) {
            for (uint32_t r : *rows_for_key) {
              lidx.push_back(static_cast<uint32_t>(i));
              ridx.push_back(r);
            }
            matched = true;
          }
        }
        if (!matched && type == sql::JoinType::kLeft) {
          lidx.push_back(static_cast<uint32_t>(i));
          ridx.push_back(ColumnVector::kNullIndex);
        }
        if (lidx.size() >= opts.batch_rows) flush();
      }
      flush();
    }
  } else {
    // General join: for each probe row, evaluate ON over candidate chunks
    // of (broadcast left row × slice of build rows). Emit order is probe
    // row order then build row order — the nested loop's order.
    RowBatch pending;
    pending.cols.resize(out_width);
    auto flush_pending = [&]() {
      if (pending.rows == 0) return;
      out_rows += pending.rows;
      out_chunks.push_back(std::move(pending));
      pending = RowBatch();
      pending.cols.resize(out_width);
    };
    for (const RowBatch& chunk : ws.chunks()) {
      for (size_t i = 0; i < chunk.rows; ++i) {
        GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
        bool matched = false;
        for (const RowBatch& build : right) {
          for (size_t start = 0; start < build.rows;
               start += opts.batch_rows) {
            size_t len = std::min(opts.batch_rows, build.rows - start);
            RowBatch cand;
            cand.cols.resize(out_width);
            std::vector<uint32_t> broadcast(len, static_cast<uint32_t>(i));
            for (size_t c = 0; c < left_width; ++c) {
              cand.cols[c].AppendGather(chunk.cols[c], broadcast.data(), len);
            }
            for (size_t c = 0; c < right_width; ++c) {
              cand.cols[left_width + c].AppendSlice(build.cols[c], start, len);
            }
            cand.rows = len;
            std::vector<uint32_t> keep;
            if (on) {
              GRIDDB_ASSIGN_OR_RETURN(VectorRef v,
                                      EvalVector(*on, combined, cand));
              GRIDDB_RETURN_IF_ERROR(SelectTruthy(v, keep));
            } else {
              keep.resize(len);
              for (size_t k = 0; k < len; ++k) {
                keep[k] = static_cast<uint32_t>(k);
              }
            }
            if (keep.empty()) continue;
            matched = true;
            for (size_t c = 0; c < out_width; ++c) {
              pending.cols[c].AppendGather(cand.cols[c], keep.data(),
                                           keep.size());
            }
            pending.rows += keep.size();
            if (pending.rows >= opts.batch_rows) flush_pending();
          }
        }
        if (!matched && type == sql::JoinType::kLeft) {
          for (size_t c = 0; c < left_width; ++c) {
            pending.cols[c].AppendCell(chunk.cols[c], i);
          }
          for (size_t c = left_width; c < out_width; ++c) {
            pending.cols[c].AppendNull();
          }
          pending.rows += 1;
          if (pending.rows >= opts.batch_rows) flush_pending();
        }
      }
    }
    flush_pending();
  }

  ws.scope = std::move(combined);
  ws.lent = nullptr;
  ws.owned = std::move(out_chunks);
  ws.total_rows = out_rows;
  ws.TrackPeak();
  return Status::Ok();
}

/// The scope columns the statement reads after WHERE (select items,
/// GROUP BY, HAVING, ORDER BY), in scope order. nullopt means every
/// column: a `*` item, or a reference that does not resolve to one column
/// (evaluation then reports it against the full scope).
std::optional<std::vector<size_t>> ColumnsReadAfterWhere(
    const sql::SelectStmt& stmt, const Scope& scope) {
  std::vector<const sql::ColumnRef*> refs;
  std::vector<std::string> names;
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr->kind == sql::Expr::Kind::kStar) return std::nullopt;
    sql::CollectColumnRefs(*item.expr, refs);
    if (!stmt.order_by.empty()) names.push_back(internal::OutputName(item));
  }
  for (const sql::ExprPtr& g : stmt.group_by) sql::CollectColumnRefs(*g, refs);
  if (stmt.having) sql::CollectColumnRefs(*stmt.having, refs);
  for (const sql::OrderItem& item : stmt.order_by) {
    // An unqualified name matching an output column orders by the output.
    if (item.expr->kind == sql::Expr::Kind::kColumn &&
        item.expr->column_ref.table.empty() &&
        std::any_of(names.begin(), names.end(), [&](const std::string& n) {
          return EqualsIgnoreCase(n, item.expr->column_ref.column);
        })) {
      continue;
    }
    sql::CollectColumnRefs(*item.expr, refs);
  }
  std::vector<bool> read(scope.size(), false);
  for (const sql::ColumnRef* ref : refs) {
    Result<size_t> idx = scope.Resolve(*ref);
    if (!idx.ok()) return std::nullopt;
    read[*idx] = true;
  }
  std::vector<size_t> cols;
  for (size_t i = 0; i < read.size(); ++i) {
    if (read[i]) cols.push_back(i);
  }
  if (cols.size() == scope.size()) return std::nullopt;
  return cols;
}

/// WHERE: evaluates the predicate once per chunk, reading lent columns in
/// place, and gathers the surviving rows of the columns the rest of the
/// statement reads (ColumnsReadAfterWhere); the scope narrows to match.
Status FilterVec(VecWorkingSet& ws, const sql::SelectStmt& stmt,
                 const ExecOptions& opts) {
  const std::optional<std::vector<size_t>> read =
      ColumnsReadAfterWhere(stmt, ws.scope);
  std::vector<size_t> cols;
  if (read) {
    cols = *read;
  } else {
    for (size_t c = 0; c < ws.width(); ++c) cols.push_back(c);
  }
  const std::vector<RowBatch>& chunks = ws.chunks();
  std::vector<RowBatch> kept;
  size_t total = 0;
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    const RowBatch& chunk = chunks[ci];
    GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
    GRIDDB_ASSIGN_OR_RETURN(VectorRef v,
                            EvalVector(*stmt.where, ws.scope, chunk));
    std::vector<uint32_t> keep;
    GRIDDB_RETURN_IF_ERROR(SelectTruthy(v, keep));
    if (keep.empty()) continue;
    total += keep.size();
    const bool all_rows = keep.size() == chunk.rows;
    if (all_rows && !read && !ws.lent) {
      kept.push_back(std::move(ws.owned[ci]));
      continue;
    }
    RowBatch out;
    out.cols.resize(cols.size());
    for (size_t k = 0; k < cols.size(); ++k) {
      if (all_rows) {
        out.cols[k].AppendSlice(chunk.cols[cols[k]], 0, chunk.rows);
      } else {
        out.cols[k].AppendGather(chunk.cols[cols[k]], keep.data(),
                                 keep.size());
      }
    }
    out.rows = keep.size();
    kept.push_back(std::move(out));
  }
  if (read) {
    Scope narrowed;
    for (size_t c : cols) {
      narrowed.Add(ws.scope.qualifier(c), ws.scope.column(c));
    }
    ws.scope = std::move(narrowed);
  }
  ws.lent = nullptr;
  ws.owned = std::move(kept);
  ws.total_rows = total;
  return Status::Ok();
}

/// One group's member rows as (chunk, row-in-chunk) pairs in working-set
/// row order. Groups themselves are kept in first-seen order.
using GroupMembers = std::vector<std::pair<uint32_t, uint32_t>>;

struct GroupedRows {
  std::vector<std::vector<Value>> keys;  // parallel to members
  std::vector<GroupMembers> members;
};

Status BuildGroups(const VecWorkingSet& ws, const sql::SelectStmt& stmt,
                   const ExecOptions& opts, GroupedRows& groups) {
  std::unordered_map<size_t, std::vector<size_t>> buckets;  // hash -> group
  const std::vector<RowBatch>& chunks = ws.chunks();
  for (uint32_t ci = 0; ci < chunks.size(); ++ci) {
    const RowBatch& chunk = chunks[ci];
    GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
    std::vector<VectorRef> key_refs;
    key_refs.reserve(stmt.group_by.size());
    for (const sql::ExprPtr& g : stmt.group_by) {
      GRIDDB_ASSIGN_OR_RETURN(VectorRef v, EvalVector(*g, ws.scope, chunk));
      key_refs.push_back(std::move(v));
    }
    for (uint32_t ri = 0; ri < chunk.rows; ++ri) {
      std::vector<Value> key;
      key.reserve(key_refs.size());
      for (const VectorRef& ref : key_refs) key.push_back(ref.At(ri));
      size_t h = storage::RowHasher{}(key);
      bool placed = false;
      for (size_t idx : buckets[h]) {
        const std::vector<Value>& existing = groups.keys[idx];
        if (existing.size() != key.size()) continue;
        bool equal = true;
        for (size_t i = 0; i < key.size(); ++i) {
          if (existing[i].is_null() != key[i].is_null() ||
              (!existing[i].is_null() &&
               existing[i].Compare(key[i]) != 0)) {
            equal = false;
            break;
          }
        }
        if (equal) {
          groups.members[idx].push_back({ci, ri});
          placed = true;
          break;
        }
      }
      if (!placed) {
        buckets[h].push_back(groups.keys.size());
        groups.keys.push_back(std::move(key));
        groups.members.push_back({{ci, ri}});
      }
    }
  }
  // No GROUP BY but aggregates present: one global group, even when the
  // working set is empty (COUNT(*) over nothing is 0).
  if (stmt.group_by.empty()) {
    groups.keys.assign(1, {});
    groups.members.assign(1, {});
    GroupMembers& all = groups.members[0];
    all.reserve(ws.total_rows);
    for (uint32_t ci = 0; ci < chunks.size(); ++ci) {
      for (uint32_t ri = 0; ri < chunks[ci].rows; ++ri) {
        all.push_back({ci, ri});
      }
    }
  }
  return Status::Ok();
}

/// Grouped expression evaluation, one result Value per group. Aggregate
/// arguments evaluate vectorized (once per chunk); finalization goes
/// through the same CheckAggregateShape/AggregateValues as the row path;
/// interior nodes combine per-group child values via CombineScalarNode.
Result<std::vector<Value>> EvalGroupedVec(
    const sql::Expr& expr, const Scope& scope,
    const std::vector<RowBatch>& chunks,
    const std::vector<GroupMembers>& members) {
  size_t ngroups = members.size();
  if (expr.kind == sql::Expr::Kind::kFunction &&
      IsAggregateFunction(expr.function_name)) {
    bool count_star = false;
    GRIDDB_RETURN_IF_ERROR(CheckAggregateShape(expr, count_star));
    std::vector<Value> out;
    out.reserve(ngroups);
    if (count_star) {
      for (const GroupMembers& g : members) {
        out.push_back(Value(static_cast<int64_t>(g.size())));
      }
      return out;
    }
    std::vector<VectorRef> arg_per_chunk;
    arg_per_chunk.reserve(chunks.size());
    for (const RowBatch& chunk : chunks) {
      GRIDDB_ASSIGN_OR_RETURN(VectorRef v,
                              EvalVector(*expr.children[0], scope, chunk));
      arg_per_chunk.push_back(std::move(v));
    }
    for (const GroupMembers& g : members) {
      std::vector<Value> values;
      values.reserve(g.size());
      for (const auto& [ci, ri] : g) {
        Value v = arg_per_chunk[ci].At(ri);
        if (!v.is_null()) values.push_back(std::move(v));
      }
      GRIDDB_ASSIGN_OR_RETURN(Value agg,
                              AggregateValues(expr, std::move(values)));
      out.push_back(std::move(agg));
    }
    return out;
  }
  if (expr.children.empty()) {
    // Bare column / literal: the group's first row decides (NULL for an
    // empty group) — EvalGrouped's rule.
    std::vector<Value> out;
    out.reserve(ngroups);
    for (const GroupMembers& g : members) {
      if (g.empty()) {
        out.push_back(Value::Null());
        continue;
      }
      GRIDDB_ASSIGN_OR_RETURN(
          Value v, Eval(expr, scope, chunks[g[0].first], g[0].second));
      out.push_back(std::move(v));
    }
    return out;
  }
  std::vector<std::vector<Value>> child_vals;
  child_vals.reserve(expr.children.size());
  for (const sql::ExprPtr& child : expr.children) {
    GRIDDB_ASSIGN_OR_RETURN(std::vector<Value> vals,
                            EvalGroupedVec(*child, scope, chunks, members));
    child_vals.push_back(std::move(vals));
  }
  std::vector<Value> out;
  out.reserve(ngroups);
  for (size_t g = 0; g < ngroups; ++g) {
    std::vector<Value> children;
    children.reserve(child_vals.size());
    for (std::vector<Value>& vals : child_vals) {
      children.push_back(std::move(vals[g]));
    }
    GRIDDB_ASSIGN_OR_RETURN(Value v,
                            CombineScalarNode(expr, std::move(children)));
    out.push_back(std::move(v));
  }
  return out;
}

/// After HAVING drops groups, gathers the surviving groups' rows into new
/// chunks (preserving row order) and remaps member coordinates, so the
/// projection and ORDER BY aggregate arguments are evaluated over exactly
/// the rows the row oracle evaluates them over.
void GatherSurvivors(const std::vector<RowBatch>& chunks,
                     const std::vector<GroupMembers>& members,
                     const std::vector<size_t>& survivors,
                     std::vector<RowBatch>& out_chunks,
                     std::vector<GroupMembers>& out_members) {
  // Per-chunk keep lists, then a coordinate remap table.
  std::vector<std::vector<uint32_t>> keep(chunks.size());
  for (size_t g : survivors) {
    for (const auto& [ci, ri] : members[g]) keep[ci].push_back(ri);
  }
  std::vector<std::vector<uint32_t>> remap(chunks.size());
  std::vector<uint32_t> new_chunk_of(chunks.size());
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    std::sort(keep[ci].begin(), keep[ci].end());
    remap[ci].assign(chunks[ci].rows, ColumnVector::kNullIndex);
    if (keep[ci].empty()) continue;
    new_chunk_of[ci] = static_cast<uint32_t>(out_chunks.size());
    for (uint32_t k = 0; k < keep[ci].size(); ++k) {
      remap[ci][keep[ci][k]] = k;
    }
    out_chunks.push_back(
        GatherBatch(chunks[ci], keep[ci].data(), keep[ci].size()));
  }
  out_members.reserve(survivors.size());
  for (size_t g : survivors) {
    GroupMembers m;
    m.reserve(members[g].size());
    for (const auto& [ci, ri] : members[g]) {
      m.push_back({new_chunk_of[ci], remap[ci][ri]});
    }
    out_members.push_back(std::move(m));
  }
}

/// ORDER BY key vectors for one chunk. `projected` are the already
/// evaluated select-item vectors (for position/alias references); other
/// keys are evaluated into `scratch`, which must not reallocate.
Result<std::vector<const VectorRef*>> OrderKeyRefs(
    const sql::SelectStmt& stmt, const std::vector<std::string>& names,
    const std::vector<VectorRef>& projected, std::vector<VectorRef>& scratch,
    const Scope& scope, const RowBatch& chunk) {
  std::vector<const VectorRef*> refs;
  refs.reserve(stmt.order_by.size());
  for (const sql::OrderItem& item : stmt.order_by) {
    if (item.expr->kind == sql::Expr::Kind::kLiteral &&
        item.expr->literal.type() == storage::DataType::kInt64) {
      int64_t pos = item.expr->literal.AsInt64Strict();
      if (pos < 1 || pos > static_cast<int64_t>(projected.size())) {
        return InvalidArgument("ORDER BY position out of range");
      }
      refs.push_back(&projected[static_cast<size_t>(pos - 1)]);
      continue;
    }
    if (item.expr->kind == sql::Expr::Kind::kColumn &&
        item.expr->column_ref.table.empty()) {
      bool found = false;
      for (size_t i = 0; i < names.size(); ++i) {
        if (EqualsIgnoreCase(names[i], item.expr->column_ref.column)) {
          refs.push_back(&projected[i]);
          found = true;
          break;
        }
      }
      if (found) continue;
    }
    GRIDDB_ASSIGN_OR_RETURN(VectorRef v, EvalVector(*item.expr, scope, chunk));
    scratch.push_back(std::move(v));
    refs.push_back(&scratch.back());
  }
  return refs;
}

/// A working-set row: its chunk and its row in the chunk. Sorting by
/// (chunk, row) is working-set order.
struct RowRef {
  uint32_t chunk;
  uint32_t row;
  bool operator<(const RowRef& o) const {
    return chunk != o.chunk ? chunk < o.chunk : row < o.row;
  }
};

/// Projection without aggregates. Select items and ORDER BY keys are
/// evaluated as vectors over every chunk (so errors surface exactly where
/// the row oracle's would), rows are ordered by comparing typed key
/// cells, and only the rows the query returns are boxed: the top K under
/// ORDER BY ... LIMIT, the OFFSET/LIMIT window otherwise. DISTINCT has to
/// see every row, so it boxes them all before the window applies.
Result<ResultSet> ProjectRows(const sql::SelectStmt& stmt,
                              const VecWorkingSet& ws,
                              const std::vector<sql::SelectItem>& items,
                              std::vector<std::string> names,
                              std::optional<size_t> top_k,
                              const ExecOptions& opts) {
  const std::vector<RowBatch>& chunks = ws.chunks();
  const bool has_order = !stmt.order_by.empty();
  struct ChunkVectors {
    std::vector<VectorRef> items;
    std::vector<VectorRef> scratch;  // ORDER BY keys that are not items
    std::vector<const VectorRef*> keys;
  };
  std::vector<ChunkVectors> vecs(chunks.size());  // never reallocates
  std::vector<RowRef> rows;
  rows.reserve(ws.total_rows);
  for (uint32_t ci = 0; ci < chunks.size(); ++ci) {
    GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
    ChunkVectors& cv = vecs[ci];
    cv.items.reserve(items.size());
    for (const sql::SelectItem& item : items) {
      GRIDDB_ASSIGN_OR_RETURN(VectorRef v,
                              EvalVector(*item.expr, ws.scope, chunks[ci]));
      cv.items.push_back(std::move(v));
    }
    if (has_order) {
      cv.scratch.reserve(stmt.order_by.size());
      GRIDDB_ASSIGN_OR_RETURN(cv.keys,
                              OrderKeyRefs(stmt, names, cv.items, cv.scratch,
                                           ws.scope, chunks[ci]));
    }
    for (uint32_t r = 0; r < chunks[ci].rows; ++r) rows.push_back({ci, r});
  }

  if (has_order) {
    // Three-way comparison in ORDER BY direction: < 0 sorts `a` first.
    auto compare = [&](RowRef a, RowRef b) {
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        int cmp = CompareAt(*vecs[a.chunk].keys[k], a.row,
                            *vecs[b.chunk].keys[k], b.row);
        if (cmp != 0) {
          cmp = cmp < 0 ? -1 : 1;
          return stmt.order_by[k].ascending ? cmp : -cmp;
        }
      }
      return 0;
    };
    if (top_k && *top_k < rows.size()) {
      // Tie-break on working-set order: the order becomes total and the
      // selected prefix is exactly the stable sort's prefix.
      std::partial_sort(rows.begin(),
                        rows.begin() + static_cast<long>(*top_k), rows.end(),
                        [&](RowRef a, RowRef b) {
                          int cmp = compare(a, b);
                          return cmp != 0 ? cmp < 0 : a < b;
                        });
      rows.resize(*top_k);
    } else {
      std::stable_sort(rows.begin(), rows.end(), [&](RowRef a, RowRef b) {
        return compare(a, b) < 0;
      });
    }
  }

  size_t begin = 0, end = rows.size();
  if (!stmt.distinct) {
    if (stmt.offset && *stmt.offset > 0) {
      begin = std::min(end, static_cast<size_t>(*stmt.offset));
    }
    if (stmt.limit && *stmt.limit >= 0) {
      end = std::min(end, begin + static_cast<size_t>(*stmt.limit));
    }
  }
  ResultSet out;
  out.columns = std::move(names);
  out.rows.reserve(end - begin);
  for (size_t k = begin; k < end; ++k) {
    const RowRef ref = rows[k];
    Row row;
    row.reserve(items.size());
    for (const VectorRef& v : vecs[ref.chunk].items) {
      if (v.is_literal()) {
        row.push_back(v.literal());
      } else {
        v.vec().BoxInto(ref.row, row);
      }
    }
    out.rows.push_back(std::move(row));
  }
  if (stmt.distinct) {
    DedupeRows(out.rows);
    ApplyOffsetLimit(stmt, out.rows);
  }
  return out;
}

}  // namespace

Result<ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                const TableSource& source,
                                const ExecOptions& opts) {
  if (stmt.from.empty()) return InvalidArgument("SELECT requires FROM");
  GRIDDB_RETURN_IF_ERROR(CheckDuplicateTables(stmt));

  // FROM list: the first table seeds the working set with its lent
  // chunks (kept alive by `first` for the whole call), the rest join in.
  GRIDDB_ASSIGN_OR_RETURN(TableView first,
                          source.GetTable(stmt.from[0].table));
  VecWorkingSet ws;
  ws.scope.AddColumns(stmt.from[0].EffectiveName(), first.columns);
  ws.lent = &first.data->chunks;
  ws.total_rows = first.data->rows;
  ws.TrackPeak();
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    GRIDDB_ASSIGN_OR_RETURN(TableView view,
                            source.GetTable(stmt.from[i].table));
    GRIDDB_RETURN_IF_ERROR(JoinIntoVec(ws, stmt.from[i].EffectiveName(), view,
                                       sql::JoinType::kCross, nullptr, opts));
  }
  for (const sql::Join& join : stmt.joins) {
    GRIDDB_ASSIGN_OR_RETURN(TableView view, source.GetTable(join.table.table));
    GRIDDB_RETURN_IF_ERROR(JoinIntoVec(ws, join.table.EffectiveName(), view,
                                       join.type, join.on.get(), opts));
  }

  if (stmt.where) GRIDDB_RETURN_IF_ERROR(FilterVec(ws, stmt, opts));

  std::vector<sql::SelectItem> items;
  std::vector<std::string> names;
  GRIDDB_RETURN_IF_ERROR(ExpandStars(stmt, ws.scope, items, names));

  bool has_aggregate = StatementHasAggregate(stmt, items);
  bool has_order = !stmt.order_by.empty();
  // Top-K is safe when the row count is capped and DISTINCT will not
  // change it afterwards; ties break on row index, so the selected prefix
  // equals the row oracle's stable-sort prefix.
  std::optional<size_t> top_k;
  if (has_order && stmt.limit && *stmt.limit >= 0 && !stmt.distinct) {
    size_t k = static_cast<size_t>(*stmt.limit);
    if (stmt.offset && *stmt.offset > 0) k += static_cast<size_t>(*stmt.offset);
    top_k = k;
  }

  if (!has_aggregate) {
    if (stmt.having) {
      return InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    GRIDDB_ASSIGN_OR_RETURN(
        ResultSet out, ProjectRows(stmt, ws, items, std::move(names), top_k,
                                   opts));
    Metrics().vectorized_queries->Add(1);
    return out;
  }

  ResultSet out;
  out.columns = names;
  std::vector<std::vector<Value>> order_keys;
  GroupedRows groups;
  GRIDDB_RETURN_IF_ERROR(BuildGroups(ws, stmt, opts, groups));

  // HAVING filters whole groups before any projection work, so select
  // items are never evaluated over a dropped group's rows (the
  // row oracle never evaluates them there either).
  const std::vector<RowBatch>* chunks = &ws.chunks();
  std::vector<GroupMembers>* members = &groups.members;
  std::vector<RowBatch> surviving_chunks;
  std::vector<GroupMembers> surviving_members;
  if (stmt.having) {
    GRIDDB_ASSIGN_OR_RETURN(
        std::vector<Value> keep_vals,
        EvalGroupedVec(*stmt.having, ws.scope, ws.chunks(), groups.members));
    std::vector<size_t> survivors;
    survivors.reserve(keep_vals.size());
    for (size_t g = 0; g < keep_vals.size(); ++g) {
      if (keep_vals[g].is_null()) continue;
      GRIDDB_ASSIGN_OR_RETURN(bool b, keep_vals[g].AsBool());
      if (b) survivors.push_back(g);
    }
    if (survivors.size() != groups.members.size()) {
      GatherSurvivors(ws.chunks(), groups.members, survivors,
                      surviving_chunks, surviving_members);
      chunks = &surviving_chunks;
      members = &surviving_members;
    }
  }

  size_t ngroups = members->size();
  std::vector<std::vector<Value>> item_vals;  // per item, per group
  item_vals.reserve(items.size());
  for (const sql::SelectItem& item : items) {
    GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
    GRIDDB_ASSIGN_OR_RETURN(
        std::vector<Value> vals,
        EvalGroupedVec(*item.expr, ws.scope, *chunks, *members));
    item_vals.push_back(std::move(vals));
  }

  std::vector<std::vector<Value>> key_vals;  // per order item, per group
  if (has_order && ngroups > 0) {
    key_vals.reserve(stmt.order_by.size());
    for (const sql::OrderItem& oi : stmt.order_by) {
      if (oi.expr->kind == sql::Expr::Kind::kLiteral &&
          oi.expr->literal.type() == storage::DataType::kInt64) {
        int64_t pos = oi.expr->literal.AsInt64Strict();
        if (pos < 1 || pos > static_cast<int64_t>(items.size())) {
          return InvalidArgument("ORDER BY position out of range");
        }
        key_vals.push_back(item_vals[static_cast<size_t>(pos - 1)]);
        continue;
      }
      if (oi.expr->kind == sql::Expr::Kind::kColumn &&
          oi.expr->column_ref.table.empty()) {
        bool found = false;
        for (size_t i = 0; i < names.size(); ++i) {
          if (EqualsIgnoreCase(names[i], oi.expr->column_ref.column)) {
            key_vals.push_back(item_vals[i]);
            found = true;
            break;
          }
        }
        if (found) continue;
      }
      GRIDDB_ASSIGN_OR_RETURN(
          std::vector<Value> vals,
          EvalGroupedVec(*oi.expr, ws.scope, *chunks, *members));
      key_vals.push_back(std::move(vals));
    }
  }

  out.rows.reserve(ngroups);
  if (has_order) order_keys.reserve(ngroups);
  for (size_t g = 0; g < ngroups; ++g) {
    Row projected;
    projected.reserve(items.size());
    for (std::vector<Value>& vals : item_vals) {
      projected.push_back(std::move(vals[g]));
    }
    if (has_order) {
      std::vector<Value> keys;
      keys.reserve(stmt.order_by.size());
      for (const std::vector<Value>& vals : key_vals) {
        keys.push_back(vals[g]);
      }
      order_keys.push_back(std::move(keys));
    }
    out.rows.push_back(std::move(projected));
  }

  if (has_order) {
    SortRowsByKeys(stmt, order_keys, out.rows, top_k);
  }
  if (stmt.distinct) {
    DedupeRows(out.rows);
  }
  ApplyOffsetLimit(stmt, out.rows);

  Metrics().vectorized_queries->Add(1);
  return out;
}

}  // namespace griddb::engine
