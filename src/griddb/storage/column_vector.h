// Typed column vectors, row batches and chunked rows: the layout every
// stored table uses and the unit of work of the vectorized executor
// (DESIGN.md §15).
//
// A ColumnVector holds one column of a batch in a typed payload array
// (int64/double/bool/string) plus a packed null bitmap, so the hot
// kernels in engine/vector_eval.cc run over contiguous primitive arrays
// instead of per-cell std::variant dispatch. Columns whose cells mix
// types — the engine's Value model is dynamically typed per cell, so
// `x / 2` can legally yield INT64 for even rows and DOUBLE for odd ones —
// degrade to a boxed `std::vector<Value>` payload (Rep::kValue); kernels
// then fall back to the exact scalar semantics elementwise, which is what
// keeps vectorized output byte-identical to the row-at-a-time oracle.
//
// A RowBatch is a set of equally-sized ColumnVectors. ChunkedRows is a
// whole table as RowBatch chunks of kChunkRows rows: storage::Table keeps
// its rows that way (each cell coerced to its column's type, so a stored
// column is typed or all NULL, never boxed), and row sources such as the
// federated merge's partial results convert to it once, where they enter.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "griddb/storage/value.h"
#include "griddb/util/status.h"

namespace griddb::storage {

/// Rows per stored chunk; also the executor's default batch size.
inline constexpr size_t kChunkRows = 1024;

class ColumnVector {
 public:
  /// Physical representation of the payload. kNone = no non-null cell
  /// appended yet (an all-null column stays kNone and reads as NULL).
  enum class Rep : uint8_t { kNone, kInt64, kDouble, kBool, kString, kValue };

  /// Gather index meaning "emit NULL" (left-join padding).
  static constexpr uint32_t kNullIndex = UINT32_MAX;

  ColumnVector() = default;

  size_t size() const { return size_; }
  Rep rep() const { return rep_; }
  bool has_nulls() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }

  bool IsNull(size_t i) const {
    // The bitmap grows lazily to the word holding the highest null bit;
    // rows past it are non-null by construction.
    size_t word = i >> 6;
    return word < nulls_.size() && (nulls_[word] >> (i & 63)) & 1;
  }

  /// Boxes cell `i` back into a Value. Type and bit pattern round-trip
  /// exactly (doubles are never re-parsed or re-formatted).
  Value Get(size_t i) const;
  /// Appends Get(i) to `row`, constructing the Value in place (the
  /// boxing step of every returned row, hence inline).
  void BoxInto(size_t i, Row& row) const {
    if (IsNull(i)) {
      row.emplace_back();
      return;
    }
    switch (rep_) {
      case Rep::kNone: row.emplace_back(); return;
      case Rep::kInt64: row.emplace_back(i64_[i]); return;
      case Rep::kDouble: row.emplace_back(f64_[i]); return;
      case Rep::kBool: row.emplace_back(b8_[i] != 0); return;
      case Rep::kString: row.emplace_back(str_[i]); return;
      case Rep::kValue: row.push_back(boxed_[i]); return;
    }
  }

  void Reserve(size_t n);

  void AppendNull();
  void Append(const Value& v);
  void Append(Value&& v);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(std::string v);

  /// Appends src[i]; typed when the representations agree.
  void AppendCell(const ColumnVector& src, size_t i);

  /// Appends src[start, start+len). Same-rep payloads bulk-copy.
  void AppendSlice(const ColumnVector& src, size_t start, size_t len);

  /// Appends src[idx[k]] for k in [0, n); idx[k] == kNullIndex appends
  /// NULL. This is the join/filter gather primitive.
  void AppendGather(const ColumnVector& src, const uint32_t* idx, size_t n);

  /// Overwrites cell `i` (i < size()). A value of the payload's type is
  /// stored typed; any other non-null value boxes the column.
  void Set(size_t i, const Value& v);

  /// Approximate resident bytes of payload + bitmap (for the admission
  /// merge-memory accounting and the batch_bytes_peak gauge).
  size_t ByteSize() const;

  // Typed payload access; valid only while rep() matches. Null cells hold
  // unspecified placeholder payloads — consult IsNull first.
  const int64_t* ints() const { return i64_.data(); }
  const double* doubles() const { return f64_.data(); }
  const uint8_t* bools() const { return b8_.data(); }
  const std::string* strings() const { return str_.data(); }
  const Value* values() const { return boxed_.data(); }

 private:
  void SetNullBit(size_t i);
  void ClearNullBit(size_t i);
  /// Locks in a payload representation, back-filling placeholders for any
  /// leading NULLs appended while the rep was still kNone.
  void Decide(Rep r);
  /// Converts a typed payload to boxed Values (first mixed-type append).
  void BoxAll();

  Rep rep_ = Rep::kNone;
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::vector<uint64_t> nulls_;  // bit set => NULL; sized lazily
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint8_t> b8_;
  std::vector<std::string> str_;
  std::vector<Value> boxed_;
};

/// A batch of rows in columnar form. Every column has exactly `rows`
/// entries.
struct RowBatch {
  std::vector<ColumnVector> cols;
  size_t rows = 0;

  size_t num_columns() const { return cols.size(); }
  void Clear() {
    cols.clear();
    rows = 0;
  }
  size_t ByteSize() const;
};

/// A table's rows as column chunks. Every chunk but the last holds exactly
/// kChunkRows rows, so row r is cell r % kChunkRows of chunk
/// r / kChunkRows.
struct ChunkedRows {
  std::vector<RowBatch> chunks;
  size_t rows = 0;

  /// Appends one row of exactly `row.size()` cells (the caller checks
  /// the width), moving its cells into the columns.
  void AppendRow(Row&& row);
  /// Appends src[start, start+len) of a batch as wide as these chunks.
  void AppendSlice(const RowBatch& src, size_t start, size_t len);
  /// Boxes row `r`.
  Row GetRow(size_t r) const;
  /// Overwrites row `r` cell by cell.
  void SetRow(size_t r, const Row& row);
};

/// Converts `rows` into chunks of `width` columns; kInternal when a row
/// has another width.
Result<ChunkedRows> ChunkRows(std::vector<Row> rows, size_t width);

/// Columnarizes rows[start, start+len) into `out` (appending). Every row
/// must have exactly `out.cols.size()` cells; `out.rows` grows by `len`.
Status AppendRowsToBatch(const std::vector<Row>& rows, size_t start,
                         size_t len, RowBatch& out);

/// Boxes the whole batch back into wire-facing rows (appending to `out`).
void MaterializeRows(const RowBatch& batch, std::vector<Row>& out);

/// Gathers whole rows: out.cols[c][k] = src.cols[c][idx[k]], with
/// kNullIndex producing NULL cells.
RowBatch GatherBatch(const RowBatch& src, const uint32_t* idx, size_t n);

}  // namespace griddb::storage
