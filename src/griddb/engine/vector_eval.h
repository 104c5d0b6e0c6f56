// Vectorized expression evaluation over RowBatch (DESIGN.md §15).
//
// EvalVector computes a whole column of results for one expression in a
// single call. Hot, error-free shapes (numeric comparisons, BETWEEN and
// arithmetic, three-valued AND/OR over booleans, IS NULL, negation) run
// as typed kernels over the ColumnVector payload arrays; every other
// shape — string functions, CASE, IN, mixed-type (boxed) columns —
// evaluates through the shared scalar kernels in eval.cc, elementwise in
// row order, so laziness and error behaviour are the row executor's by
// construction. Kernels are only installed for combinations whose result
// is provably bit-identical to the scalar path (same Value::Compare
// coercions, same NULL propagation, same int-preserving arithmetic).
#pragma once

#include <cstdint>
#include <vector>

#include "griddb/storage/column_vector.h"
#include "griddb/engine/eval.h"
#include "griddb/sql/ast.h"
#include "griddb/util/status.h"

namespace griddb::engine {

/// Result of evaluating one expression over one batch: a column borrowed
/// from the batch (bare column refs are zero-copy), an owned vector, or a
/// literal broadcast across the batch's rows.
class VectorRef {
 public:
  static VectorRef Borrowed(const storage::ColumnVector* v, size_t rows) {
    VectorRef r;
    r.borrowed_ = v;
    r.rows_ = rows;
    return r;
  }
  static VectorRef FromOwned(storage::ColumnVector v) {
    VectorRef r;
    r.rows_ = v.size();
    r.owned_ = std::move(v);
    return r;
  }
  static VectorRef Literal(storage::Value v, size_t rows) {
    VectorRef r;
    r.literal_ = std::move(v);
    r.is_literal_ = true;
    r.rows_ = rows;
    return r;
  }

  size_t rows() const { return rows_; }
  bool is_literal() const { return is_literal_; }
  const storage::Value& literal() const { return literal_; }
  /// Valid only when !is_literal().
  const storage::ColumnVector& vec() const {
    return borrowed_ ? *borrowed_ : owned_;
  }

  /// Boxes element i (literal-aware).
  storage::Value At(size_t i) const {
    return is_literal_ ? literal_ : vec().Get(i);
  }
  bool IsNull(size_t i) const {
    return is_literal_ ? literal_.is_null() : vec().IsNull(i);
  }

 private:
  const storage::ColumnVector* borrowed_ = nullptr;
  storage::ColumnVector owned_;
  storage::Value literal_;
  bool is_literal_ = false;
  size_t rows_ = 0;
};

/// Evaluates `expr` over every row of `batch`.
Result<VectorRef> EvalVector(const sql::Expr& expr, const Scope& scope,
                             const storage::RowBatch& batch);

/// WHERE/ON selection: appends (in row order) the indices of rows whose
/// value is non-NULL and truthy, with the row evaluator's coercion — a
/// string predicate value is a type error, exactly as in the row path.
Status SelectTruthy(const VectorRef& v, std::vector<uint32_t>& out);

/// a.At(i).Compare(b.At(j)) (storage/value.h), reading typed cells in
/// place instead of boxing them. ORDER BY compares its keys with it.
int CompareAt(const VectorRef& a, size_t i, const VectorRef& b, size_t j);

}  // namespace griddb::engine
