#include "griddb/engine/vector_eval.h"

namespace griddb::engine {

using storage::ColumnVector;
using storage::DataType;
using storage::RowBatch;
using storage::Value;

namespace {

/// One operand of a numeric kernel: a typed vector (int64/double rep), an
/// all-NULL vector, or an int64/double/NULL literal. `valid` is false for
/// every other shape (strings, bools, boxed columns), which routes the
/// node to the elementwise fallback.
struct NumSide {
  bool valid = false;
  bool is_lit = false;
  bool all_null = false;
  bool is_int = false;  // element type, uniform across the side
  const ColumnVector* v = nullptr;
  int64_t li = 0;
  double ld = 0;

  bool IsNull(size_t i) const {
    return all_null || (!is_lit && v->IsNull(i));
  }
  int64_t I(size_t i) const { return is_lit ? li : v->ints()[i]; }
  double D(size_t i) const {
    if (is_lit) return ld;
    return is_int ? static_cast<double>(v->ints()[i]) : v->doubles()[i];
  }
};

NumSide AsNum(const VectorRef& r) {
  NumSide s;
  if (r.is_literal()) {
    const Value& l = r.literal();
    s.is_lit = true;
    if (l.is_null()) {
      s.valid = true;
      s.all_null = true;
    } else if (l.type() == DataType::kInt64) {
      s.valid = true;
      s.is_int = true;
      s.li = l.AsInt64Strict();
      s.ld = static_cast<double>(s.li);
    } else if (l.type() == DataType::kDouble) {
      s.valid = true;
      s.ld = l.AsDoubleStrict();
    }
    return s;
  }
  switch (r.vec().rep()) {
    case ColumnVector::Rep::kNone:
      s.valid = true;
      s.all_null = true;
      break;
    case ColumnVector::Rep::kInt64:
      s.valid = true;
      s.is_int = true;
      s.v = &r.vec();
      break;
    case ColumnVector::Rep::kDouble:
      s.valid = true;
      s.v = &r.vec();
      break;
    default:
      break;
  }
  return s;
}

/// Boolean operand for the AND/OR/NOT kernels.
struct BoolSide {
  bool valid = false;
  bool is_lit = false;
  bool all_null = false;
  const ColumnVector* v = nullptr;
  bool lb = false;

  // Truth in three-valued logic: 0 false, 1 true, 2 null.
  int Truth(size_t i) const {
    if (all_null || (!is_lit && v->IsNull(i))) return 2;
    return (is_lit ? lb : v->bools()[i] != 0) ? 1 : 0;
  }
};

BoolSide AsBoolSide(const VectorRef& r) {
  BoolSide s;
  if (r.is_literal()) {
    const Value& l = r.literal();
    s.is_lit = true;
    if (l.is_null()) {
      s.valid = true;
      s.all_null = true;
    } else if (l.type() == DataType::kBool) {
      s.valid = true;
      s.lb = l.AsBoolStrict();
    }
    return s;
  }
  switch (r.vec().rep()) {
    case ColumnVector::Rep::kNone:
      s.valid = true;
      s.all_null = true;
      break;
    case ColumnVector::Rep::kBool:
      s.valid = true;
      s.v = &r.vec();
      break;
    default:
      break;
  }
  return s;
}

bool IsComparison(sql::BinaryOp op) {
  using sql::BinaryOp;
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

/// One pair of non-NULL numeric cells compared as Value::Compare does:
/// int64/int64 as integers, any double involved as doubles.
int NumCompare(const NumSide& a, const NumSide& b, size_t i) {
  if (a.is_int && b.is_int) {
    int64_t x = a.I(i), y = b.I(i);
    return (x < y) ? -1 : (x > y ? 1 : 0);
  }
  double x = a.D(i), y = b.D(i);
  return (x < y) ? -1 : (x > y ? 1 : 0);
}

/// Numeric comparison kernel, mirroring Value::Compare for numeric pairs:
/// int64/int64 compares as integers, any double involved compares as
/// double with (x<y)?-1:(x>y?1:0) — including its NaN-compares-equal
/// behaviour. NULL on either side yields NULL.
VectorRef CompareKernel(sql::BinaryOp op, const NumSide& a, const NumSide& b,
                        size_t n) {
  using sql::BinaryOp;
  ColumnVector out;
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (a.IsNull(i) || b.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    const int cmp = NumCompare(a, b, i);
    bool res = false;
    switch (op) {
      case BinaryOp::kEq: res = cmp == 0; break;
      case BinaryOp::kNe: res = cmp != 0; break;
      case BinaryOp::kLt: res = cmp < 0; break;
      case BinaryOp::kLe: res = cmp <= 0; break;
      case BinaryOp::kGt: res = cmp > 0; break;
      default: res = cmp >= 0; break;  // kGe
    }
    out.AppendBool(res);
  }
  return VectorRef::FromOwned(std::move(out));
}

/// [NOT] BETWEEN over numeric operands with eval.cc's rule: NULL when any
/// operand is NULL, otherwise Compare(v, lo) >= 0 && Compare(v, hi) <= 0.
/// Deliberately not `v >= lo AND v <= hi`: three-valued AND makes
/// `5 BETWEEN NULL AND 3` FALSE, where this engine answers NULL.
VectorRef BetweenKernel(bool negated, const NumSide& v, const NumSide& lo,
                        const NumSide& hi, size_t n) {
  ColumnVector out;
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (v.IsNull(i) || lo.IsNull(i) || hi.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    bool in_range = NumCompare(v, lo, i) >= 0 && NumCompare(v, hi, i) <= 0;
    out.AppendBool(negated ? !in_range : in_range);
  }
  return VectorRef::FromOwned(std::move(out));
}

/// Numeric +,-,*,/ kernel with the scalar path's type rules: both-int
/// stays int64 (division only when evenly divisible), anything else is
/// double; division by zero and NULL operands yield NULL.
VectorRef ArithKernel(sql::BinaryOp op, const NumSide& a, const NumSide& b,
                      size_t n) {
  using sql::BinaryOp;
  ColumnVector out;
  out.Reserve(n);
  const bool both_int = a.is_int && b.is_int;
  for (size_t i = 0; i < n; ++i) {
    if (a.IsNull(i) || b.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    if (op == BinaryOp::kDiv) {
      double x = a.D(i), y = b.D(i);
      if (y == 0.0) {
        out.AppendNull();
      } else if (both_int && a.I(i) % b.I(i) == 0) {
        out.AppendInt64(a.I(i) / b.I(i));
      } else {
        out.AppendDouble(x / y);
      }
      continue;
    }
    if (both_int) {
      int64_t x = a.I(i), y = b.I(i);
      switch (op) {
        case BinaryOp::kAdd: out.AppendInt64(x + y); break;
        case BinaryOp::kSub: out.AppendInt64(x - y); break;
        default: out.AppendInt64(x * y); break;  // kMul
      }
    } else {
      double x = a.D(i), y = b.D(i);
      switch (op) {
        case BinaryOp::kAdd: out.AppendDouble(x + y); break;
        case BinaryOp::kSub: out.AppendDouble(x - y); break;
        default: out.AppendDouble(x * y); break;
      }
    }
  }
  return VectorRef::FromOwned(std::move(out));
}

/// Three-valued AND/OR over boolean operands.
VectorRef LogicKernel(sql::BinaryOp op, const BoolSide& a, const BoolSide& b,
                      size_t n) {
  ColumnVector out;
  out.Reserve(n);
  const bool is_and = op == sql::BinaryOp::kAnd;
  for (size_t i = 0; i < n; ++i) {
    int x = a.Truth(i), y = b.Truth(i);
    if (is_and) {
      if (x == 0 || y == 0) {
        out.AppendBool(false);
      } else if (x == 2 || y == 2) {
        out.AppendNull();
      } else {
        out.AppendBool(true);
      }
    } else {
      if (x == 1 || y == 1) {
        out.AppendBool(true);
      } else if (x == 2 || y == 2) {
        out.AppendNull();
      } else {
        out.AppendBool(false);
      }
    }
  }
  return VectorRef::FromOwned(std::move(out));
}

/// Combines one eager node elementwise from already-vectorized children
/// via the shared CombineScalarNode — exact scalar semantics, used when no
/// typed kernel applies (strings, scalar functions, boxed columns, ...).
Result<VectorRef> ElementwiseCombine(const sql::Expr& expr,
                                     const std::vector<VectorRef>& kids,
                                     size_t n) {
  ColumnVector out;
  out.Reserve(n);
  std::vector<Value> vals(kids.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < kids.size(); ++k) vals[k] = kids[k].At(i);
    GRIDDB_ASSIGN_OR_RETURN(Value v, CombineScalarNode(expr, vals));
    out.Append(std::move(v));
  }
  return VectorRef::FromOwned(std::move(out));
}

/// Whole-node elementwise fallback through the shared scalar interpreter.
/// Used for the lazy node kinds (CASE, IN) whose children must not be
/// evaluated eagerly.
Result<VectorRef> ElementwiseEval(const sql::Expr& expr, const Scope& scope,
                                  const RowBatch& batch) {
  ColumnVector out;
  out.Reserve(batch.rows);
  for (size_t i = 0; i < batch.rows; ++i) {
    GRIDDB_ASSIGN_OR_RETURN(Value v, Eval(expr, scope, batch, i));
    out.Append(std::move(v));
  }
  return VectorRef::FromOwned(std::move(out));
}

}  // namespace

Result<VectorRef> EvalVector(const sql::Expr& expr, const Scope& scope,
                             const RowBatch& batch) {
  const size_t n = batch.rows;
  switch (expr.kind) {
    case sql::Expr::Kind::kLiteral:
      return VectorRef::Literal(expr.literal, n);
    case sql::Expr::Kind::kColumn: {
      GRIDDB_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(expr.column_ref));
      if (idx >= batch.cols.size()) return Internal("row narrower than scope");
      return VectorRef::Borrowed(&batch.cols[idx], n);
    }
    case sql::Expr::Kind::kStar:
      return InvalidArgument("'*' is only valid in SELECT lists and COUNT(*)");
    case sql::Expr::Kind::kUnary: {
      GRIDDB_ASSIGN_OR_RETURN(VectorRef c,
                              EvalVector(*expr.children[0], scope, batch));
      if (expr.unary_op == sql::UnaryOp::kNot) {
        BoolSide s = AsBoolSide(c);
        if (s.valid) {
          ColumnVector out;
          out.Reserve(n);
          for (size_t i = 0; i < n; ++i) {
            int t = s.Truth(i);
            if (t == 2) {
              out.AppendNull();
            } else {
              out.AppendBool(t == 0);
            }
          }
          return VectorRef::FromOwned(std::move(out));
        }
      } else {
        NumSide s = AsNum(c);
        if (s.valid) {
          ColumnVector out;
          out.Reserve(n);
          for (size_t i = 0; i < n; ++i) {
            if (s.IsNull(i)) {
              out.AppendNull();
            } else if (s.is_int) {
              out.AppendInt64(-s.I(i));
            } else {
              out.AppendDouble(-s.D(i));
            }
          }
          return VectorRef::FromOwned(std::move(out));
        }
      }
      return ElementwiseCombine(expr, {std::move(c)}, n);
    }
    case sql::Expr::Kind::kBinary: {
      GRIDDB_ASSIGN_OR_RETURN(VectorRef l,
                              EvalVector(*expr.children[0], scope, batch));
      GRIDDB_ASSIGN_OR_RETURN(VectorRef r,
                              EvalVector(*expr.children[1], scope, batch));
      using sql::BinaryOp;
      BinaryOp op = expr.binary_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        BoolSide a = AsBoolSide(l), b = AsBoolSide(r);
        if (a.valid && b.valid) return LogicKernel(op, a, b, n);
      } else if (IsComparison(op)) {
        NumSide a = AsNum(l), b = AsNum(r);
        if (a.valid && b.valid) return CompareKernel(op, a, b, n);
      } else if (op == BinaryOp::kAdd || op == BinaryOp::kSub ||
                 op == BinaryOp::kMul || op == BinaryOp::kDiv) {
        NumSide a = AsNum(l), b = AsNum(r);
        if (a.valid && b.valid) return ArithKernel(op, a, b, n);
      }
      std::vector<VectorRef> kids;
      kids.push_back(std::move(l));
      kids.push_back(std::move(r));
      return ElementwiseCombine(expr, kids, n);
    }
    case sql::Expr::Kind::kFunction: {
      if (IsAggregateFunction(expr.function_name)) {
        return InvalidArgument("aggregate " + expr.function_name +
                               " not allowed in this context");
      }
      std::vector<VectorRef> kids;
      kids.reserve(expr.children.size());
      for (const sql::ExprPtr& child : expr.children) {
        GRIDDB_ASSIGN_OR_RETURN(VectorRef c, EvalVector(*child, scope, batch));
        kids.push_back(std::move(c));
      }
      return ElementwiseCombine(expr, kids, n);
    }
    case sql::Expr::Kind::kBetween: {
      std::vector<VectorRef> kids;
      kids.reserve(3);
      for (const sql::ExprPtr& child : expr.children) {
        GRIDDB_ASSIGN_OR_RETURN(VectorRef c, EvalVector(*child, scope, batch));
        kids.push_back(std::move(c));
      }
      NumSide v = AsNum(kids[0]), lo = AsNum(kids[1]), hi = AsNum(kids[2]);
      if (v.valid && lo.valid && hi.valid) {
        return BetweenKernel(expr.negated, v, lo, hi, n);
      }
      return ElementwiseCombine(expr, kids, n);
    }
    case sql::Expr::Kind::kLike: {
      std::vector<VectorRef> kids;
      kids.reserve(expr.children.size());
      for (const sql::ExprPtr& child : expr.children) {
        GRIDDB_ASSIGN_OR_RETURN(VectorRef c, EvalVector(*child, scope, batch));
        kids.push_back(std::move(c));
      }
      return ElementwiseCombine(expr, kids, n);
    }
    case sql::Expr::Kind::kIsNull: {
      GRIDDB_ASSIGN_OR_RETURN(VectorRef c,
                              EvalVector(*expr.children[0], scope, batch));
      ColumnVector out;
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        bool is_null = c.IsNull(i);
        out.AppendBool(expr.negated ? !is_null : is_null);
      }
      return VectorRef::FromOwned(std::move(out));
    }
    case sql::Expr::Kind::kIn:
    case sql::Expr::Kind::kCase:
      // Lazy node kinds: CASE stops at the first taken WHEN and IN
      // short-circuits on match (and skips the list entirely for a NULL
      // needle). Eager child evaluation could raise errors the row path
      // never reaches, so these always take the scalar fallback.
      return ElementwiseEval(expr, scope, batch);
  }
  return Internal("unreachable expression kind");
}

Status SelectTruthy(const VectorRef& v, std::vector<uint32_t>& out) {
  const size_t n = v.rows();
  if (n == 0) return Status::Ok();
  if (v.is_literal()) {
    const Value& l = v.literal();
    if (l.is_null()) return Status::Ok();
    GRIDDB_ASSIGN_OR_RETURN(bool b, l.AsBool());
    if (b) {
      for (size_t i = 0; i < n; ++i) out.push_back(static_cast<uint32_t>(i));
    }
    return Status::Ok();
  }
  const ColumnVector& c = v.vec();
  switch (c.rep()) {
    case ColumnVector::Rep::kNone:
      return Status::Ok();  // all NULL: WHERE drops the row
    case ColumnVector::Rep::kBool:
      for (size_t i = 0; i < n; ++i) {
        if (!c.IsNull(i) && c.bools()[i]) out.push_back(static_cast<uint32_t>(i));
      }
      return Status::Ok();
    case ColumnVector::Rep::kInt64:
      for (size_t i = 0; i < n; ++i) {
        if (!c.IsNull(i) && c.ints()[i] != 0) {
          out.push_back(static_cast<uint32_t>(i));
        }
      }
      return Status::Ok();
    case ColumnVector::Rep::kDouble:
      for (size_t i = 0; i < n; ++i) {
        if (!c.IsNull(i) && c.doubles()[i] != 0.0) {
          out.push_back(static_cast<uint32_t>(i));
        }
      }
      return Status::Ok();
    default:
      // Strings and boxed values: go through AsBool per element so a
      // non-boolean predicate value raises the same type error, at the
      // same first offending row, as the row path.
      for (size_t i = 0; i < n; ++i) {
        if (c.IsNull(i)) continue;
        GRIDDB_ASSIGN_OR_RETURN(bool b, c.Get(i).AsBool());
        if (b) out.push_back(static_cast<uint32_t>(i));
      }
      return Status::Ok();
  }
}

int CompareAt(const VectorRef& a, size_t i, const VectorRef& b, size_t j) {
  if (!a.is_literal() && !b.is_literal()) {
    const ColumnVector& x = a.vec();
    const ColumnVector& y = b.vec();
    const bool x_null = x.IsNull(i), y_null = y.IsNull(j);
    if (x_null || y_null) return x_null == y_null ? 0 : (x_null ? -1 : 1);
    using Rep = ColumnVector::Rep;
    const Rep rx = x.rep(), ry = y.rep();
    if (rx == Rep::kInt64 && ry == Rep::kInt64) {
      int64_t p = x.ints()[i], q = y.ints()[j];
      return (p < q) ? -1 : (p > q ? 1 : 0);
    }
    const bool x_num = rx == Rep::kInt64 || rx == Rep::kDouble;
    const bool y_num = ry == Rep::kInt64 || ry == Rep::kDouble;
    if (x_num && y_num) {
      double p = rx == Rep::kInt64 ? static_cast<double>(x.ints()[i])
                                   : x.doubles()[i];
      double q = ry == Rep::kInt64 ? static_cast<double>(y.ints()[j])
                                   : y.doubles()[j];
      return (p < q) ? -1 : (p > q ? 1 : 0);
    }
    if (rx == Rep::kString && ry == Rep::kString) {
      return x.strings()[i].compare(y.strings()[j]);
    }
  }
  return a.At(i).Compare(b.At(j));
}

}  // namespace griddb::engine
