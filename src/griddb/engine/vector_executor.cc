// Batch-at-a-time SELECT execution (DESIGN.md §15).
//
// The working set flows between operators as a list of RowBatch chunks of
// at most ExecOptions::batch_rows rows each. Scan borrows table rows in
// place and columnarizes them chunk by chunk; WHERE evaluates the
// predicate once per chunk (EvalVector) and gathers survivors; joins
// build an insertion-ordered hash table and emit gathered output chunks;
// GROUP BY hashes key vectors to insertion-ordered groups and finalizes
// aggregates through the same AggregateValues the row path uses; ORDER BY
// with LIMIT runs top-K selection instead of a full sort. Cancellation is
// checked once per chunk.
//
// Parity contract: on fault-free inputs the emitted ResultSet is
// byte-identical to the row-at-a-time oracle in
// bench/row_executor_oracle.h. Expressions the columnar form cannot
// evaluate identically fall back to the shared scalar kernels
// (vector_eval.cc). Input tables are rectangular (select_executor.h); a
// row of another width is a program bug and fails the query with
// kInternal where the row is read.
#include <algorithm>
#include <functional>
#include <list>
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
using storage::ResultSet;
using storage::Row;
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
/// rows as a sequence of columnar chunks.
struct VecWorkingSet {
  Scope scope;
  std::vector<RowBatch> chunks;
  size_t total_rows = 0;

  size_t width() const { return scope.size(); }

  void TrackPeak() const {
    size_t bytes = 0;
    for (const RowBatch& b : chunks) bytes += b.ByteSize();
    EngineMetrics& m = Metrics();
    m.batches->Add(chunks.size());
    if (static_cast<double>(bytes) > m.batch_bytes_peak->value()) {
      m.batch_bytes_peak->Set(static_cast<double>(bytes));
    }
  }
};

/// Borrows tables from the source, keeping owned copies alive (in a list,
/// so growth never moves them) when the source cannot lend rows in place.
class TableLender {
 public:
  explicit TableLender(const TableSource& source) : source_(source) {}

  Result<TableView> Borrow(const std::string& name) {
    if (std::optional<TableView> view = source_.BorrowTable(name)) {
      return *view;
    }
    GRIDDB_ASSIGN_OR_RETURN(ResultSet rs, source_.GetTable(name));
    owned_.push_back(std::move(rs));
    return TableView{owned_.back().columns, &owned_.back().rows};
  }

 private:
  const TableSource& source_;
  std::list<ResultSet> owned_;  // list: growth keeps row pointers stable
};

/// kInternal for row `r` of a table whose rows should all be `width` wide.
Status WidthMismatch(size_t r, size_t got, size_t width) {
  return Internal("table row " + std::to_string(r) + " has " +
                  std::to_string(got) + " cells for " + std::to_string(width) +
                  " columns");
}

/// Columnarizes `rows` into chunks of at most `batch_rows`.
Status Columnarize(const std::vector<Row>& rows, size_t width,
                   size_t batch_rows, const CancelToken* cancel,
                   std::vector<RowBatch>& out) {
  for (size_t start = 0; start < rows.size(); start += batch_rows) {
    GRIDDB_RETURN_IF_ERROR(CheckCancel(cancel));
    size_t len = std::min(batch_rows, rows.size() - start);
    RowBatch batch;
    batch.cols.resize(width);
    for (ColumnVector& col : batch.cols) col.Reserve(len);
    for (size_t r = start; r < start + len; ++r) {
      const Row& row = rows[r];
      if (row.size() != width) return WidthMismatch(r, row.size(), width);
      for (size_t c = 0; c < width; ++c) batch.cols[c].Append(row[c]);
    }
    batch.rows = len;
    out.push_back(std::move(batch));
  }
  return Status::Ok();
}

/// Columnarizes a whole table into ONE batch (the join build side needs a
/// single gather target spanning every build row).
Status ColumnarizeWhole(const TableView& view, const CancelToken* cancel,
                        RowBatch& out) {
  size_t width = view.columns.size();
  out.cols.resize(width);
  for (ColumnVector& col : out.cols) col.Reserve(view.rows->size());
  for (size_t r = 0; r < view.rows->size(); ++r) {
    if (r % 4096 == 0) GRIDDB_RETURN_IF_ERROR(CheckCancel(cancel));
    const Row& row = (*view.rows)[r];
    if (row.size() != width) return WidthMismatch(r, row.size(), width);
    for (size_t c = 0; c < width; ++c) out.cols[c].Append(row[c]);
  }
  out.rows = view.rows->size();
  return Status::Ok();
}

/// Hash join / nested-loop join of `right` into `ws`, columnar.
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

  RowBatch right;
  GRIDDB_RETURN_IF_ERROR(ColumnarizeWhole(right_view, opts.cancel, right));

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
    const ColumnVector& build_col = right.cols[key->new_index];
    auto int_keyed = [](const ColumnVector& col) {
      return col.rep() == ColumnVector::Rep::kInt64 ||
             col.rep() == ColumnVector::Rep::kNone;  // kNone = all NULL
    };
    bool typed_keys = int_keyed(build_col);
    for (const RowBatch& chunk : ws.chunks) {
      if (!int_keyed(chunk.cols[key->left_index])) typed_keys = false;
    }

    std::unordered_map<int64_t, std::vector<uint32_t>> int_hash;
    std::unordered_map<Value, std::vector<uint32_t>, storage::ValueHasher>
        hash;
    if (typed_keys && build_col.rep() == ColumnVector::Rep::kInt64) {
      int_hash.reserve(right.rows);
      const int64_t* keys = build_col.ints();
      for (size_t r = 0; r < right.rows; ++r) {
        if (build_col.IsNull(r)) continue;
        int_hash[keys[r]].push_back(static_cast<uint32_t>(r));
      }
    } else if (!typed_keys) {
      hash.reserve(right.rows);
      for (size_t r = 0; r < right.rows; ++r) {
        if (build_col.IsNull(r)) continue;
        hash[build_col.Get(r)].push_back(static_cast<uint32_t>(r));
      }
    }

    for (const RowBatch& chunk : ws.chunks) {
      GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
      const ColumnVector& probe_col = chunk.cols[key->left_index];
      const int64_t* probe_ints =
          probe_col.rep() == ColumnVector::Rep::kInt64 ? probe_col.ints()
                                                       : nullptr;
      std::vector<uint32_t> lidx, ridx;
      auto flush = [&]() {
        if (lidx.empty()) return;
        RowBatch out;
        out.cols.reserve(out_width);
        for (size_t c = 0; c < left_width; ++c) {
          ColumnVector cv;
          cv.AppendGather(chunk.cols[c], lidx.data(), lidx.size());
          out.cols.push_back(std::move(cv));
        }
        for (size_t c = 0; c < right_width; ++c) {
          ColumnVector cv;
          cv.AppendGather(right.cols[c], ridx.data(), ridx.size());
          out.cols.push_back(std::move(cv));
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
    for (const RowBatch& chunk : ws.chunks) {
      for (size_t i = 0; i < chunk.rows; ++i) {
        GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
        bool matched = false;
        for (size_t start = 0; start < right.rows;
             start += opts.batch_rows) {
          size_t len = std::min(opts.batch_rows, right.rows - start);
          RowBatch cand;
          cand.cols.reserve(out_width);
          std::vector<uint32_t> broadcast(len, static_cast<uint32_t>(i));
          for (size_t c = 0; c < left_width; ++c) {
            ColumnVector cv;
            cv.AppendGather(chunk.cols[c], broadcast.data(), len);
            cand.cols.push_back(std::move(cv));
          }
          for (size_t c = 0; c < right_width; ++c) {
            ColumnVector cv;
            cv.AppendSlice(right.cols[c], start, len);
            cand.cols.push_back(std::move(cv));
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
        if (!matched && type == sql::JoinType::kLeft) {
          for (size_t c = 0; c < left_width; ++c) {
            pending.cols[c].Append(chunk.cols[c].Get(i));
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
  ws.chunks = std::move(out_chunks);
  ws.total_rows = out_rows;
  ws.TrackPeak();
  return Status::Ok();
}

/// WHERE: evaluate the predicate once per chunk, gather survivors.
Status FilterVec(VecWorkingSet& ws, const sql::Expr& where,
                 const ExecOptions& opts) {
  std::vector<RowBatch> kept;
  size_t total = 0;
  for (RowBatch& chunk : ws.chunks) {
    GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
    GRIDDB_ASSIGN_OR_RETURN(VectorRef v, EvalVector(where, ws.scope, chunk));
    std::vector<uint32_t> keep;
    GRIDDB_RETURN_IF_ERROR(SelectTruthy(v, keep));
    if (keep.empty()) continue;
    if (keep.size() == chunk.rows) {
      total += chunk.rows;
      kept.push_back(std::move(chunk));
    } else {
      RowBatch gathered = GatherBatch(chunk, keep.data(), keep.size());
      total += gathered.rows;
      kept.push_back(std::move(gathered));
    }
  }
  ws.chunks = std::move(kept);
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
  for (uint32_t ci = 0; ci < ws.chunks.size(); ++ci) {
    const RowBatch& chunk = ws.chunks[ci];
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
    for (uint32_t ci = 0; ci < ws.chunks.size(); ++ci) {
      for (uint32_t ri = 0; ri < ws.chunks[ci].rows; ++ri) {
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

/// Fast path for plain projections of a single table (no joins, WHERE,
/// grouping, ordering or DISTINCT): resolve each output column once, then
/// copy only the rows LIMIT/OFFSET keeps. This is the ntuple-scan shape —
/// the row oracle re-resolves every column name for every row.
Result<std::optional<ResultSet>> TryFastScan(
    const sql::SelectStmt& stmt, const TableView& view,
    const ExecOptions& opts) {
  Scope scope;
  scope.AddColumns(stmt.from[0].EffectiveName(), view.columns);
  std::vector<sql::SelectItem> items;
  std::vector<std::string> names;
  GRIDDB_RETURN_IF_ERROR(ExpandStars(stmt, scope, items, names));
  for (const sql::SelectItem& item : items) {
    if (item.expr->kind != sql::Expr::Kind::kColumn &&
        item.expr->kind != sql::Expr::Kind::kLiteral) {
      return std::optional<ResultSet>();  // general path
    }
  }

  ResultSet out;
  out.columns = std::move(names);
  const std::vector<Row>& rows = *view.rows;
  if (rows.empty()) return std::optional<ResultSet>(std::move(out));

  size_t width = view.columns.size();
  struct Slot {
    size_t index;  // column index, or npos for a literal
    const Value* literal;
  };
  constexpr size_t kLiteralSlot = static_cast<size_t>(-1);
  std::vector<Slot> slots;
  slots.reserve(items.size());
  bool identity = items.size() == width;
  for (size_t i = 0; i < items.size(); ++i) {
    const sql::SelectItem& item = items[i];
    if (item.expr->kind == sql::Expr::Kind::kLiteral) {
      slots.push_back({kLiteralSlot, &item.expr->literal});
      identity = false;
      continue;
    }
    GRIDDB_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(item.expr->column_ref));
    slots.push_back({idx, nullptr});
    if (idx != i) identity = false;
  }

  size_t start = 0, end = rows.size();
  if (stmt.offset && *stmt.offset > 0) {
    start = std::min<size_t>(end, static_cast<size_t>(*stmt.offset));
  }
  if (stmt.limit && *stmt.limit >= 0) {
    end = std::min(end, start + static_cast<size_t>(*stmt.limit));
  }

  if (identity) {
    GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
    out.rows.assign(rows.begin() + static_cast<long>(start),
                    rows.begin() + static_cast<long>(end));
    return std::optional<ResultSet>(std::move(out));
  }
  out.rows.reserve(end - start);
  for (size_t r = start; r < end; ++r) {
    if ((r - start) % 4096 == 0) {
      GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
    }
    if (rows[r].size() != width) {
      return WidthMismatch(r, rows[r].size(), width);
    }
    Row projected;
    projected.reserve(slots.size());
    for (const Slot& slot : slots) {
      projected.push_back(slot.index == kLiteralSlot ? *slot.literal
                                                     : rows[r][slot.index]);
    }
    out.rows.push_back(std::move(projected));
  }
  return std::optional<ResultSet>(std::move(out));
}

bool IsPlainScanShape(const sql::SelectStmt& stmt) {
  return stmt.from.size() == 1 && stmt.joins.empty() && !stmt.where &&
         stmt.group_by.empty() && !stmt.having && stmt.order_by.empty() &&
         !stmt.distinct;
}

/// ORDER BY key vectors for one output batch. `projected` are the already
/// evaluated select-item vectors (for position/alias references).
Result<std::vector<const VectorRef*>> OrderKeyRefs(
    const sql::SelectStmt& stmt, const std::vector<std::string>& names,
    const std::vector<VectorRef>& projected,
    std::vector<VectorRef>& scratch,
    const std::function<Result<VectorRef>(const sql::Expr&)>& eval_expr) {
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
    GRIDDB_ASSIGN_OR_RETURN(VectorRef v, eval_expr(*item.expr));
    scratch.push_back(std::move(v));
    refs.push_back(&scratch.back());
  }
  return refs;
}

}  // namespace

Result<ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                const TableSource& source,
                                const ExecOptions& opts) {
  if (stmt.from.empty()) return InvalidArgument("SELECT requires FROM");
  GRIDDB_RETURN_IF_ERROR(CheckDuplicateTables(stmt));

  TableLender lender(source);

  // Plain single-table scans skip columnarization entirely.
  if (IsPlainScanShape(stmt)) {
    GRIDDB_ASSIGN_OR_RETURN(TableView view, lender.Borrow(stmt.from[0].table));
    GRIDDB_ASSIGN_OR_RETURN(std::optional<ResultSet> fast,
                            TryFastScan(stmt, view, opts));
    if (fast) {
      Metrics().vectorized_queries->Add(1);
      return std::move(*fast);
    }
  }

  // FROM list: first table seeds the working set, remaining cross-join in.
  VecWorkingSet ws;
  {
    GRIDDB_ASSIGN_OR_RETURN(TableView view, lender.Borrow(stmt.from[0].table));
    ws.scope.AddColumns(stmt.from[0].EffectiveName(), view.columns);
    GRIDDB_RETURN_IF_ERROR(Columnarize(*view.rows, view.columns.size(),
                                       opts.batch_rows, opts.cancel,
                                       ws.chunks));
    ws.total_rows = view.rows->size();
    ws.TrackPeak();
  }
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    GRIDDB_ASSIGN_OR_RETURN(TableView view, lender.Borrow(stmt.from[i].table));
    GRIDDB_RETURN_IF_ERROR(JoinIntoVec(ws, stmt.from[i].EffectiveName(), view,
                                       sql::JoinType::kCross, nullptr, opts));
  }
  for (const sql::Join& join : stmt.joins) {
    GRIDDB_ASSIGN_OR_RETURN(TableView view, lender.Borrow(join.table.table));
    GRIDDB_RETURN_IF_ERROR(JoinIntoVec(ws, join.table.EffectiveName(), view,
                                       join.type, join.on.get(), opts));
  }

  if (stmt.where) {
    GRIDDB_RETURN_IF_ERROR(FilterVec(ws, *stmt.where, opts));
  }

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

  ResultSet out;
  out.columns = names;
  std::vector<std::vector<Value>> order_keys;

  if (has_aggregate) {
    GroupedRows groups;
    GRIDDB_RETURN_IF_ERROR(BuildGroups(ws, stmt, opts, groups));

    // HAVING filters whole groups before any projection work, so select
    // items are never evaluated over a dropped group's rows (the
    // row oracle never evaluates them there either).
    std::vector<RowBatch>* chunks = &ws.chunks;
    std::vector<GroupMembers>* members = &groups.members;
    std::vector<RowBatch> surviving_chunks;
    std::vector<GroupMembers> surviving_members;
    if (stmt.having) {
      GRIDDB_ASSIGN_OR_RETURN(
          std::vector<Value> keep_vals,
          EvalGroupedVec(*stmt.having, ws.scope, ws.chunks, groups.members));
      std::vector<size_t> survivors;
      survivors.reserve(keep_vals.size());
      for (size_t g = 0; g < keep_vals.size(); ++g) {
        if (keep_vals[g].is_null()) continue;
        GRIDDB_ASSIGN_OR_RETURN(bool b, keep_vals[g].AsBool());
        if (b) survivors.push_back(g);
      }
      if (survivors.size() != groups.members.size()) {
        GatherSurvivors(ws.chunks, groups.members, survivors,
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
  } else {
    if (stmt.having) {
      return InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    out.rows.reserve(ws.total_rows);
    if (has_order) order_keys.reserve(ws.total_rows);
    for (const RowBatch& chunk : ws.chunks) {
      GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
      std::vector<VectorRef> projected;
      projected.reserve(items.size());
      for (const sql::SelectItem& item : items) {
        GRIDDB_ASSIGN_OR_RETURN(VectorRef v,
                                EvalVector(*item.expr, ws.scope, chunk));
        projected.push_back(std::move(v));
      }
      std::vector<VectorRef> scratch;
      scratch.reserve(stmt.order_by.size());
      std::vector<const VectorRef*> key_refs;
      if (has_order) {
        GRIDDB_ASSIGN_OR_RETURN(
            key_refs,
            OrderKeyRefs(stmt, names, projected, scratch,
                         [&](const sql::Expr& e) {
                           return EvalVector(e, ws.scope, chunk);
                         }));
      }
      for (size_t i = 0; i < chunk.rows; ++i) {
        Row row;
        row.reserve(items.size());
        for (const VectorRef& ref : projected) row.push_back(ref.At(i));
        if (has_order) {
          std::vector<Value> keys;
          keys.reserve(key_refs.size());
          for (const VectorRef* ref : key_refs) keys.push_back(ref->At(i));
          order_keys.push_back(std::move(keys));
        }
        out.rows.push_back(std::move(row));
      }
    }
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
