// Value: the dynamically-typed cell used throughout the system.
//
// SQL NULL is modelled as a distinct state (std::monostate). Comparisons
// between integer and double coerce to double, matching the permissive
// behaviour of the vendor engines the prototype federates.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "griddb/util/status.h"

namespace griddb::storage {

enum class DataType {
  kNull,    ///< Only ever the type of a NULL value, never a column type.
  kInt64,
  kDouble,
  kString,
  kBool,
};

const char* DataTypeName(DataType type) noexcept;

class Value {
 public:
  Value() : data_(std::monostate{}) {}  // NULL
  Value(int64_t v) : data_(v) {}        // NOLINT(google-explicit-constructor)
  Value(int v) : data_(static_cast<int64_t>(v)) {}  // NOLINT
  Value(double v) : data_(v) {}         // NOLINT
  Value(bool v) : data_(v) {}           // NOLINT
  Value(std::string v) : data_(std::move(v)) {}  // NOLINT
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT

  static Value Null() { return Value(); }

  DataType type() const noexcept {
    switch (data_.index()) {
      case 1: return DataType::kInt64;
      case 2: return DataType::kDouble;
      case 3: return DataType::kString;
      case 4: return DataType::kBool;
      default: return DataType::kNull;
    }
  }
  bool is_null() const noexcept {
    return std::holds_alternative<std::monostate>(data_);
  }

  /// Typed accessors assert on mismatch; use the As* coercers for lenient
  /// access.
  int64_t AsInt64Strict() const { return std::get<int64_t>(data_); }
  double AsDoubleStrict() const { return std::get<double>(data_); }
  const std::string& AsStringStrict() const { return std::get<std::string>(data_); }
  bool AsBoolStrict() const { return std::get<bool>(data_); }

  /// Numeric coercion: int64/double/bool -> double. Fails on string/null.
  Result<double> AsDouble() const;
  /// int64/bool -> int64; double only when integral. Fails otherwise.
  Result<int64_t> AsInt64() const;
  /// Truthiness: bool as-is, numbers != 0, fails on string/null.
  Result<bool> AsBool() const;

  /// SQL-style rendering: NULL, 42, 3.5, 'text' unquoted, TRUE/FALSE.
  std::string ToString() const;
  /// Rendering as a SQL literal: strings quoted with '' doubling.
  std::string ToSqlLiteral() const;

  /// Serialized size in bytes as transported on the simulated wire
  /// (type tag + payload), used by the network accounting.
  size_t WireSize() const noexcept;

  /// Three-way comparison with numeric coercion. NULL sorts before
  /// everything and equals only NULL (SQL semantics are handled by the
  /// expression evaluator, which checks is_null() first).
  /// Returns <0, 0, >0; type-incomparable pairs order by type rank.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== (numeric values hash by double value).
  size_t Hash() const;

  /// Parses `text` into a value of column type `type` ("" is NULL only for
  /// explicit \N marker; empty string stays a string).
  static Result<Value> FromText(std::string_view text, DataType type);

 private:
  std::variant<std::monostate, int64_t, double, std::string, bool> data_;
};

using Row = std::vector<Value>;

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

struct RowHasher {
  size_t operator()(const Row& row) const {
    size_t h = 1469598103934665603ull;
    for (const Value& v : row) {
      h ^= v.Hash();
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Total wire size of a row.
size_t RowWireSize(const Row& row) noexcept;

}  // namespace griddb::storage
