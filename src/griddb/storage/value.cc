#include "griddb/storage/value.h"

#include <cmath>
#include <functional>

#include "griddb/util/strings.h"

namespace griddb::storage {

const char* DataTypeName(DataType type) noexcept {
  switch (type) {
    case DataType::kNull: return "NULL";
    case DataType::kInt64: return "INT64";
    case DataType::kDouble: return "DOUBLE";
    case DataType::kString: return "STRING";
    case DataType::kBool: return "BOOL";
  }
  return "?";
}

Result<double> Value::AsDouble() const {
  switch (type()) {
    case DataType::kInt64: return static_cast<double>(AsInt64Strict());
    case DataType::kDouble: return AsDoubleStrict();
    case DataType::kBool: return AsBoolStrict() ? 1.0 : 0.0;
    default:
      return TypeError(std::string("cannot coerce ") + DataTypeName(type()) +
                       " to DOUBLE");
  }
}

Result<int64_t> Value::AsInt64() const {
  switch (type()) {
    case DataType::kInt64: return AsInt64Strict();
    case DataType::kBool: return static_cast<int64_t>(AsBoolStrict());
    case DataType::kDouble: {
      double d = AsDoubleStrict();
      if (std::floor(d) == d) return static_cast<int64_t>(d);
      return TypeError("non-integral DOUBLE cannot coerce to INT64");
    }
    default:
      return TypeError(std::string("cannot coerce ") + DataTypeName(type()) +
                       " to INT64");
  }
}

Result<bool> Value::AsBool() const {
  switch (type()) {
    case DataType::kBool: return AsBoolStrict();
    case DataType::kInt64: return AsInt64Strict() != 0;
    case DataType::kDouble: return AsDoubleStrict() != 0.0;
    default:
      return TypeError(std::string("cannot coerce ") + DataTypeName(type()) +
                       " to BOOL");
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull: return "NULL";
    case DataType::kInt64: return std::to_string(AsInt64Strict());
    case DataType::kDouble: {
      std::string s = StrFormat("%.17g", AsDoubleStrict());
      return s;
    }
    case DataType::kString: return AsStringStrict();
    case DataType::kBool: return AsBoolStrict() ? "TRUE" : "FALSE";
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  if (type() == DataType::kString) {
    return "'" + ReplaceAll(AsStringStrict(), "'", "''") + "'";
  }
  return ToString();
}

size_t Value::WireSize() const noexcept {
  switch (type()) {
    case DataType::kNull: return 1;
    case DataType::kInt64: return 9;
    case DataType::kDouble: return 9;
    case DataType::kBool: return 2;
    case DataType::kString: return 5 + AsStringStrict().size();
  }
  return 1;
}

namespace {
int TypeRank(DataType t) {
  switch (t) {
    case DataType::kNull: return 0;
    case DataType::kBool: return 1;
    case DataType::kInt64: return 2;   // numerics share a rank via coercion
    case DataType::kDouble: return 2;
    case DataType::kString: return 3;
  }
  return 4;
}
}  // namespace

int Value::Compare(const Value& other) const {
  DataType a = type(), b = other.type();
  if (a == DataType::kNull || b == DataType::kNull) {
    return (a == b) ? 0 : (a == DataType::kNull ? -1 : 1);
  }
  bool a_num = (a == DataType::kInt64 || a == DataType::kDouble ||
                a == DataType::kBool);
  bool b_num = (b == DataType::kInt64 || b == DataType::kDouble ||
                b == DataType::kBool);
  if (a_num && b_num) {
    if (a == DataType::kInt64 && b == DataType::kInt64) {
      int64_t x = AsInt64Strict(), y = other.AsInt64Strict();
      return (x < y) ? -1 : (x > y ? 1 : 0);
    }
    double x = AsDouble().value(), y = other.AsDouble().value();
    return (x < y) ? -1 : (x > y ? 1 : 0);
  }
  if (a == DataType::kString && b == DataType::kString) {
    return AsStringStrict().compare(other.AsStringStrict());
  }
  int ra = TypeRank(a), rb = TypeRank(b);
  return (ra < rb) ? -1 : (ra > rb ? 1 : 0);
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x9ae16a3b2f90404full;
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kDouble: {
      // Hash all numerics through double so 1 == 1.0 hash-agrees.
      double d = AsDouble().value();
      if (d == 0.0) d = 0.0;  // normalize -0.0
      return std::hash<double>{}(d);
    }
    case DataType::kString:
      return std::hash<std::string>{}(AsStringStrict());
  }
  return 0;
}

Result<Value> Value::FromText(std::string_view text, DataType type) {
  switch (type) {
    case DataType::kInt64: {
      int64_t v = 0;
      if (!ParseInt64(text, &v)) {
        return TypeError("cannot parse '" + std::string(text) + "' as INT64");
      }
      return Value(v);
    }
    case DataType::kDouble: {
      double v = 0;
      if (!ParseDouble(text, &v)) {
        return TypeError("cannot parse '" + std::string(text) + "' as DOUBLE");
      }
      return Value(v);
    }
    case DataType::kBool: {
      if (EqualsIgnoreCase(text, "true") || text == "1") return Value(true);
      if (EqualsIgnoreCase(text, "false") || text == "0") return Value(false);
      return TypeError("cannot parse '" + std::string(text) + "' as BOOL");
    }
    case DataType::kString:
      return Value(std::string(text));
    case DataType::kNull:
      return Value::Null();
  }
  return TypeError("unknown data type");
}

size_t RowWireSize(const Row& row) noexcept {
  size_t total = 4;  // row header
  for (const Value& v : row) total += v.WireSize();
  return total;
}

}  // namespace griddb::storage
