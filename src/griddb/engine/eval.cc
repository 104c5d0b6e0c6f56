#include "griddb/engine/eval.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "griddb/util/strings.h"

namespace griddb::engine {

using storage::DataType;
using storage::Row;
using storage::Value;

void Scope::AddColumns(const std::string& qualifier,
                       const std::vector<std::string>& columns) {
  for (const std::string& col : columns) Add(qualifier, col);
}

Result<size_t> Scope::Resolve(const sql::ColumnRef& ref) const {
  size_t found = entries_.size();
  size_t matches = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (!EqualsIgnoreCase(entries_[i].column, ref.column)) continue;
    if (!ref.table.empty() && !EqualsIgnoreCase(entries_[i].qualifier, ref.table)) {
      continue;
    }
    found = i;
    ++matches;
  }
  if (matches == 0) {
    return NotFound("unknown column '" + ref.ToString() + "'");
  }
  if (matches > 1 && ref.table.empty()) {
    return InvalidArgument("ambiguous column '" + ref.column + "'");
  }
  // With a qualifier, duplicates can only come from the same table being
  // scoped twice, which the executor prevents; first match wins.
  return found;
}

std::vector<size_t> Scope::ColumnsOf(const std::string& qualifier) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (EqualsIgnoreCase(entries_[i].qualifier, qualifier)) out.push_back(i);
  }
  return out;
}

bool IsAggregateFunction(const std::string& upper_name) {
  return upper_name == "COUNT" || upper_name == "SUM" || upper_name == "AVG" ||
         upper_name == "MIN" || upper_name == "MAX";
}

bool ContainsAggregate(const sql::Expr& expr) {
  if (expr.kind == sql::Expr::Kind::kFunction &&
      IsAggregateFunction(expr.function_name)) {
    return true;
  }
  for (const sql::ExprPtr& child : expr.children) {
    if (ContainsAggregate(*child)) return true;
  }
  return false;
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative glob matcher with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

Result<Value> EvalBinary(const sql::Expr& expr, const Value& lhs,
                         const Value& rhs) {
  using sql::BinaryOp;
  BinaryOp op = expr.binary_op;

  // Logical operators implement SQL-ish three-valued logic.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    // NULL treated as "unknown": AND with false is false, OR with true is
    // true, otherwise NULL.
    auto truth = [](const Value& v) -> Result<int> {  // 0 false, 1 true, 2 null
      if (v.is_null()) return 2;
      GRIDDB_ASSIGN_OR_RETURN(bool b, v.AsBool());
      return b ? 1 : 0;
    };
    GRIDDB_ASSIGN_OR_RETURN(int a, truth(lhs));
    GRIDDB_ASSIGN_OR_RETURN(int b, truth(rhs));
    if (op == BinaryOp::kAnd) {
      if (a == 0 || b == 0) return Value(false);
      if (a == 2 || b == 2) return Value::Null();
      return Value(true);
    }
    if (a == 1 || b == 1) return Value(true);
    if (a == 2 || b == 2) return Value::Null();
    return Value(false);
  }

  if (lhs.is_null() || rhs.is_null()) return Value::Null();

  switch (op) {
    case BinaryOp::kEq: return Value(lhs.Compare(rhs) == 0);
    case BinaryOp::kNe: return Value(lhs.Compare(rhs) != 0);
    case BinaryOp::kLt: return Value(lhs.Compare(rhs) < 0);
    case BinaryOp::kLe: return Value(lhs.Compare(rhs) <= 0);
    case BinaryOp::kGt: return Value(lhs.Compare(rhs) > 0);
    case BinaryOp::kGe: return Value(lhs.Compare(rhs) >= 0);
    case BinaryOp::kConcat:
      return Value(lhs.ToString() + rhs.ToString());
    default:
      break;
  }

  // Arithmetic. Integer op integer stays integer (with / truncating only
  // when evenly divisible is NOT standard; we follow the common C-like
  // integer division used by MySQL DIV? No: use double division like
  // Oracle/MySQL '/' and keep +,-,*,% integral when both sides are).
  bool both_int = lhs.type() == DataType::kInt64 && rhs.type() == DataType::kInt64;
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      if (both_int) {
        int64_t a = lhs.AsInt64Strict(), b = rhs.AsInt64Strict();
        switch (op) {
          case BinaryOp::kAdd: return Value(a + b);
          case BinaryOp::kSub: return Value(a - b);
          default: return Value(a * b);
        }
      }
      GRIDDB_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
      GRIDDB_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
      switch (op) {
        case BinaryOp::kAdd: return Value(a + b);
        case BinaryOp::kSub: return Value(a - b);
        default: return Value(a * b);
      }
    }
    case BinaryOp::kDiv: {
      GRIDDB_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
      GRIDDB_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
      if (b == 0.0) return Value::Null();  // SQL: division by zero -> NULL
      if (both_int) {
        int64_t ia = lhs.AsInt64Strict(), ib = rhs.AsInt64Strict();
        if (ia % ib == 0) return Value(ia / ib);
      }
      return Value(a / b);
    }
    case BinaryOp::kMod: {
      GRIDDB_ASSIGN_OR_RETURN(int64_t a, lhs.AsInt64());
      GRIDDB_ASSIGN_OR_RETURN(int64_t b, rhs.AsInt64());
      if (b == 0) return Value::Null();
      return Value(a % b);
    }
    default:
      return Internal("unhandled binary operator");
  }
}

Result<Value> EvalScalarFunction(const sql::Expr& expr,
                                 std::vector<Value> args) {
  const std::string& name = expr.function_name;
  auto arity = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return InvalidArgument(name + " expects between " + std::to_string(lo) +
                             " and " + std::to_string(hi) + " arguments");
    }
    return Status::Ok();
  };

  if (name == "COALESCE" || name == "IFNULL" || name == "NVL") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (name == "NULLIF") {
    GRIDDB_RETURN_IF_ERROR(arity(2, 2));
    if (!args[0].is_null() && !args[1].is_null() &&
        args[0].Compare(args[1]) == 0) {
      return Value::Null();
    }
    return args[0];
  }
  if (name == "CONCAT") {
    std::string out;
    for (const Value& v : args) {
      if (!v.is_null()) out += v.ToString();
    }
    return Value(out);
  }

  // Remaining functions propagate NULL from any argument.
  for (const Value& v : args) {
    if (v.is_null()) return Value::Null();
  }

  if (name == "ABS") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    if (args[0].type() == DataType::kInt64) {
      return Value(std::abs(args[0].AsInt64Strict()));
    }
    GRIDDB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
    return Value(std::fabs(v));
  }
  if (name == "LENGTH" || name == "LEN") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    return Value(static_cast<int64_t>(args[0].ToString().size()));
  }
  if (name == "UPPER") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    return Value(ToUpper(args[0].ToString()));
  }
  if (name == "LOWER") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    return Value(ToLower(args[0].ToString()));
  }
  if (name == "SUBSTR" || name == "SUBSTRING") {
    GRIDDB_RETURN_IF_ERROR(arity(2, 3));
    std::string s = args[0].ToString();
    GRIDDB_ASSIGN_OR_RETURN(int64_t start, args[1].AsInt64());
    int64_t from = std::max<int64_t>(1, start) - 1;  // SQL is 1-based
    if (from >= static_cast<int64_t>(s.size())) return Value(std::string());
    size_t len = s.size() - static_cast<size_t>(from);
    if (args.size() == 3) {
      GRIDDB_ASSIGN_OR_RETURN(int64_t n, args[2].AsInt64());
      if (n < 0) n = 0;
      len = std::min<size_t>(len, static_cast<size_t>(n));
    }
    return Value(s.substr(static_cast<size_t>(from), len));
  }
  if (name == "ROUND") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 2));
    GRIDDB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
    int64_t digits = 0;
    if (args.size() == 2) {
      GRIDDB_ASSIGN_OR_RETURN(digits, args[1].AsInt64());
    }
    double scale = std::pow(10.0, static_cast<double>(digits));
    return Value(std::round(v * scale) / scale);
  }
  if (name == "FLOOR") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    GRIDDB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
    return Value(static_cast<int64_t>(std::floor(v)));
  }
  if (name == "CEIL" || name == "CEILING") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    GRIDDB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
    return Value(static_cast<int64_t>(std::ceil(v)));
  }
  if (name == "SQRT") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    GRIDDB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
    if (v < 0) return Value::Null();
    return Value(std::sqrt(v));
  }
  if (name == "POWER" || name == "POW") {
    GRIDDB_RETURN_IF_ERROR(arity(2, 2));
    GRIDDB_ASSIGN_OR_RETURN(double a, args[0].AsDouble());
    GRIDDB_ASSIGN_OR_RETURN(double b, args[1].AsDouble());
    return Value(std::pow(a, b));
  }
  if (name == "MOD") {
    GRIDDB_RETURN_IF_ERROR(arity(2, 2));
    GRIDDB_ASSIGN_OR_RETURN(int64_t a, args[0].AsInt64());
    GRIDDB_ASSIGN_OR_RETURN(int64_t b, args[1].AsInt64());
    if (b == 0) return Value::Null();
    return Value(a % b);
  }
  if (name == "TRIM" || name == "LTRIM" || name == "RTRIM") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    std::string s = args[0].ToString();
    size_t begin = 0, end = s.size();
    if (name != "RTRIM") {
      while (begin < end && s[begin] == ' ') ++begin;
    }
    if (name != "LTRIM") {
      while (end > begin && s[end - 1] == ' ') --end;
    }
    return Value(s.substr(begin, end - begin));
  }
  if (name == "REPLACE") {
    GRIDDB_RETURN_IF_ERROR(arity(3, 3));
    return Value(ReplaceAll(args[0].ToString(), args[1].ToString(),
                            args[2].ToString()));
  }
  if (name == "INSTR") {
    // 1-based position of needle in haystack; 0 when absent (SQL style).
    GRIDDB_RETURN_IF_ERROR(arity(2, 2));
    size_t pos = args[0].ToString().find(args[1].ToString());
    return Value(pos == std::string::npos ? int64_t{0}
                                          : static_cast<int64_t>(pos + 1));
  }
  if (name == "SIGN") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    GRIDDB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
    return Value(int64_t{v > 0 ? 1 : (v < 0 ? -1 : 0)});
  }
  if (name == "EXP") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    GRIDDB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
    return Value(std::exp(v));
  }
  if (name == "LN" || name == "LOG") {
    GRIDDB_RETURN_IF_ERROR(arity(1, 1));
    GRIDDB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
    if (v <= 0) return Value::Null();
    return Value(std::log(v));
  }
  return Unsupported("unknown function " + name);
}

/// Reads the cells of one batch row through the same interface as
/// storage::Row, so EvalImpl below compiles identically for both.
class BatchRowView {
 public:
  BatchRowView(const RowBatch& batch, size_t row) : batch_(batch), row_(row) {}
  size_t size() const { return batch_.cols.size(); }
  Value operator[](size_t i) const { return batch_.cols[i].Get(row_); }

 private:
  const RowBatch& batch_;
  size_t row_;
};

/// The one scalar interpreter, templated over the row representation.
/// RowT provides size() and operator[](size_t) yielding a Value (by value
/// or const reference).
template <typename RowT>
Result<Value> EvalImpl(const sql::Expr& expr, const Scope& scope,
                       const RowT& row) {
  switch (expr.kind) {
    case sql::Expr::Kind::kLiteral:
      return expr.literal;
    case sql::Expr::Kind::kColumn: {
      GRIDDB_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(expr.column_ref));
      if (idx >= row.size()) return Internal("row narrower than scope");
      return row[idx];
    }
    case sql::Expr::Kind::kStar:
      return InvalidArgument("'*' is only valid in SELECT lists and COUNT(*)");
    case sql::Expr::Kind::kUnary: {
      GRIDDB_ASSIGN_OR_RETURN(Value v, EvalImpl(*expr.children[0], scope, row));
      if (v.is_null()) return Value::Null();
      if (expr.unary_op == sql::UnaryOp::kNot) {
        GRIDDB_ASSIGN_OR_RETURN(bool b, v.AsBool());
        return Value(!b);
      }
      if (v.type() == DataType::kInt64) return Value(-v.AsInt64Strict());
      GRIDDB_ASSIGN_OR_RETURN(double d, v.AsDouble());
      return Value(-d);
    }
    case sql::Expr::Kind::kBinary: {
      GRIDDB_ASSIGN_OR_RETURN(Value lhs, EvalImpl(*expr.children[0], scope, row));
      GRIDDB_ASSIGN_OR_RETURN(Value rhs, EvalImpl(*expr.children[1], scope, row));
      return EvalBinary(expr, lhs, rhs);
    }
    case sql::Expr::Kind::kFunction: {
      if (IsAggregateFunction(expr.function_name)) {
        return InvalidArgument("aggregate " + expr.function_name +
                               " not allowed in this context");
      }
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const sql::ExprPtr& child : expr.children) {
        GRIDDB_ASSIGN_OR_RETURN(Value v, EvalImpl(*child, scope, row));
        args.push_back(std::move(v));
      }
      return EvalScalarFunction(expr, std::move(args));
    }
    case sql::Expr::Kind::kIn: {
      GRIDDB_ASSIGN_OR_RETURN(Value needle,
                              EvalImpl(*expr.children[0], scope, row));
      if (needle.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        GRIDDB_ASSIGN_OR_RETURN(Value v, EvalImpl(*expr.children[i], scope, row));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        if (needle.Compare(v) == 0) return Value(!expr.negated);
      }
      if (saw_null) return Value::Null();
      return Value(expr.negated);
    }
    case sql::Expr::Kind::kBetween: {
      GRIDDB_ASSIGN_OR_RETURN(Value v, EvalImpl(*expr.children[0], scope, row));
      GRIDDB_ASSIGN_OR_RETURN(Value lo, EvalImpl(*expr.children[1], scope, row));
      GRIDDB_ASSIGN_OR_RETURN(Value hi, EvalImpl(*expr.children[2], scope, row));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in_range = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
      return Value(expr.negated ? !in_range : in_range);
    }
    case sql::Expr::Kind::kLike: {
      GRIDDB_ASSIGN_OR_RETURN(Value text, EvalImpl(*expr.children[0], scope, row));
      GRIDDB_ASSIGN_OR_RETURN(Value pattern,
                              EvalImpl(*expr.children[1], scope, row));
      if (text.is_null() || pattern.is_null()) return Value::Null();
      bool match = LikeMatch(text.ToString(), pattern.ToString());
      return Value(expr.negated ? !match : match);
    }
    case sql::Expr::Kind::kIsNull: {
      GRIDDB_ASSIGN_OR_RETURN(Value v, EvalImpl(*expr.children[0], scope, row));
      bool is_null = v.is_null();
      return Value(expr.negated ? !is_null : is_null);
    }
    case sql::Expr::Kind::kCase: {
      size_t index = 0;
      Value operand;
      if (expr.case_has_operand) {
        GRIDDB_ASSIGN_OR_RETURN(operand,
                                EvalImpl(*expr.children[index++], scope, row));
      }
      size_t end = expr.children.size() - (expr.case_has_else ? 1 : 0);
      while (index < end) {
        GRIDDB_ASSIGN_OR_RETURN(Value when,
                                EvalImpl(*expr.children[index], scope, row));
        bool taken;
        if (expr.case_has_operand) {
          // Simple CASE: NULL never matches (SQL semantics).
          taken = !operand.is_null() && !when.is_null() &&
                  operand.Compare(when) == 0;
        } else {
          if (when.is_null()) {
            taken = false;
          } else {
            GRIDDB_ASSIGN_OR_RETURN(taken, when.AsBool());
          }
        }
        if (taken) return EvalImpl(*expr.children[index + 1], scope, row);
        index += 2;
      }
      if (expr.case_has_else) {
        return EvalImpl(*expr.children.back(), scope, row);
      }
      return Value::Null();
    }
  }
  return Internal("unreachable expression kind");
}

}  // namespace

Result<Value> Eval(const sql::Expr& expr, const Scope& scope,
                   const Row& row) {
  return EvalImpl(expr, scope, row);
}

Result<Value> Eval(const sql::Expr& expr, const Scope& scope,
                   const RowBatch& batch, size_t row) {
  return EvalImpl(expr, scope, BatchRowView(batch, row));
}

Result<Value> CombineScalarNode(const sql::Expr& expr,
                                std::vector<Value> children) {
  // Rebuild the node with the child values folded to literals and
  // re-evaluate. Literal children cannot fail, so the eager combine is
  // observationally identical to the lazy row evaluator for this node.
  sql::Expr folded;
  folded.kind = expr.kind;
  folded.literal = expr.literal;
  folded.column_ref = expr.column_ref;
  folded.unary_op = expr.unary_op;
  folded.binary_op = expr.binary_op;
  folded.function_name = expr.function_name;
  folded.distinct_arg = expr.distinct_arg;
  folded.negated = expr.negated;
  folded.case_has_operand = expr.case_has_operand;
  folded.case_has_else = expr.case_has_else;
  for (Value& v : children) {
    folded.children.push_back(sql::MakeLiteral(std::move(v)));
  }
  static const Scope kEmptyScope;
  static const Row kEmptyRow;
  return Eval(folded, kEmptyScope, kEmptyRow);
}

Status CheckAggregateShape(const sql::Expr& agg, bool& count_star) {
  const std::string& name = agg.function_name;
  count_star = name == "COUNT" && agg.children.size() == 1 &&
               agg.children[0]->kind == sql::Expr::Kind::kStar;
  if (name == "COUNT" && agg.children.empty()) {
    return InvalidArgument("COUNT requires an argument");
  }
  if (!count_star && agg.children.size() != 1) {
    return InvalidArgument(name + " expects exactly one argument");
  }
  return Status::Ok();
}

Result<Value> AggregateValues(const sql::Expr& agg, std::vector<Value> values) {
  const std::string& name = agg.function_name;

  if (agg.distinct_arg) {
    std::vector<Value> unique;
    for (Value& v : values) {
      bool seen = false;
      for (const Value& u : unique) {
        if (u.Compare(v) == 0) {
          seen = true;
          break;
        }
      }
      if (!seen) unique.push_back(std::move(v));
    }
    values = std::move(unique);
  }

  if (name == "COUNT") return Value(static_cast<int64_t>(values.size()));
  if (values.empty()) return Value::Null();

  if (name == "MIN" || name == "MAX") {
    Value best = values[0];
    for (const Value& v : values) {
      int cmp = v.Compare(best);
      if ((name == "MIN" && cmp < 0) || (name == "MAX" && cmp > 0)) best = v;
    }
    return best;
  }

  // SUM / AVG: integer-preserving when every input is integral.
  bool all_int = true;
  for (const Value& v : values) {
    if (v.type() != DataType::kInt64) {
      all_int = false;
      break;
    }
  }
  if (name == "SUM") {
    if (all_int) {
      int64_t total = 0;
      for (const Value& v : values) total += v.AsInt64Strict();
      return Value(total);
    }
    double total = 0;
    for (const Value& v : values) {
      GRIDDB_ASSIGN_OR_RETURN(double d, v.AsDouble());
      total += d;
    }
    return Value(total);
  }
  if (name == "AVG") {
    double total = 0;
    for (const Value& v : values) {
      GRIDDB_ASSIGN_OR_RETURN(double d, v.AsDouble());
      total += d;
    }
    return Value(total / static_cast<double>(values.size()));
  }
  return Unsupported("unknown aggregate " + name);
}

namespace {

Result<Value> ComputeAggregate(const sql::Expr& agg, const Scope& scope,
                               const std::vector<const Row*>& rows) {
  bool count_star = false;
  GRIDDB_RETURN_IF_ERROR(CheckAggregateShape(agg, count_star));
  if (count_star) {
    return Value(static_cast<int64_t>(rows.size()));
  }

  std::vector<Value> values;
  values.reserve(rows.size());
  for (const Row* row : rows) {
    GRIDDB_ASSIGN_OR_RETURN(Value v, Eval(*agg.children[0], scope, *row));
    if (!v.is_null()) values.push_back(std::move(v));
  }
  return AggregateValues(agg, std::move(values));
}

}  // namespace

Result<Value> EvalGrouped(const sql::Expr& expr, const Scope& scope,
                          const std::vector<const Row*>& group_rows) {
  if (expr.kind == sql::Expr::Kind::kFunction &&
      IsAggregateFunction(expr.function_name)) {
    return ComputeAggregate(expr, scope, group_rows);
  }
  if (expr.children.empty()) {
    if (group_rows.empty()) return Value::Null();
    return Eval(expr, scope, *group_rows.front());
  }
  // Grouped interior nodes are eager: every child (including both CASE
  // branches) folds to a per-group value first, then the node combines.
  std::vector<Value> children;
  children.reserve(expr.children.size());
  for (const sql::ExprPtr& child : expr.children) {
    GRIDDB_ASSIGN_OR_RETURN(Value v, EvalGrouped(*child, scope, group_rows));
    children.push_back(std::move(v));
  }
  return CombineScalarNode(expr, std::move(children));
}

}  // namespace griddb::engine
