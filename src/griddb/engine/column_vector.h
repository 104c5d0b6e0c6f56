// Typed column vectors and row batches: the unit of work of the
// vectorized executor (DESIGN.md §15).
//
// A ColumnVector holds one column of a batch in a typed payload array
// (int64/double/bool/string) plus a packed null bitmap, so the hot
// kernels in vector_eval.cc run over contiguous primitive arrays instead
// of per-cell std::variant dispatch. Columns whose cells mix types — the
// engine's Value model is dynamically typed per cell, so `x / 2` can
// legally yield INT64 for even rows and DOUBLE for odd ones — degrade to
// a boxed `std::vector<Value>` payload (Rep::kValue); kernels then fall
// back to the exact scalar semantics elementwise, which is what keeps
// vectorized output byte-identical to the row-at-a-time oracle.
//
// A RowBatch is a set of equally-sized ColumnVectors; the executor
// streams batches of ExecOptions::batch_rows (default 1024) rows between
// operators and checks cancellation once per batch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "griddb/storage/result_set.h"
#include "griddb/storage/value.h"
#include "griddb/util/status.h"

namespace griddb::engine {

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
  storage::Value Get(size_t i) const;

  void Reserve(size_t n);

  void AppendNull();
  void Append(const storage::Value& v);
  void Append(storage::Value&& v);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(std::string v);

  /// Appends src[start, start+len). Same-rep payloads bulk-copy.
  void AppendSlice(const ColumnVector& src, size_t start, size_t len);

  /// Appends src[idx[k]] for k in [0, n); idx[k] == kNullIndex appends
  /// NULL. This is the join/filter gather primitive.
  void AppendGather(const ColumnVector& src, const uint32_t* idx, size_t n);

  /// Approximate resident bytes of payload + bitmap (for the admission
  /// merge-memory accounting and the batch_bytes_peak gauge).
  size_t ByteSize() const;

  // Typed payload access; valid only while rep() matches. Null cells hold
  // unspecified placeholder payloads — consult IsNull first.
  const int64_t* ints() const { return i64_.data(); }
  const double* doubles() const { return f64_.data(); }
  const uint8_t* bools() const { return b8_.data(); }
  const std::string* strings() const { return str_.data(); }
  const storage::Value* values() const { return boxed_.data(); }

 private:
  void SetNullBit(size_t i);
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
  std::vector<storage::Value> boxed_;
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

/// Columnarizes rows[start, start+len) into `out` (appending). Every row
/// must have exactly `out.cols.size()` cells; `out.rows` grows by `len`.
Status AppendRowsToBatch(const std::vector<storage::Row>& rows, size_t start,
                         size_t len, RowBatch& out);

/// Boxes the whole batch back into wire-facing rows (appending to `out`).
void MaterializeRows(const RowBatch& batch, std::vector<storage::Row>& out);

/// Gathers whole rows: out.cols[c][k] = src.cols[c][idx[k]], with
/// kNullIndex producing NULL cells.
RowBatch GatherBatch(const RowBatch& src, const uint32_t* idx, size_t n);

}  // namespace griddb::engine
