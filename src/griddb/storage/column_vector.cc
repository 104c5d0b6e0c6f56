#include "griddb/storage/column_vector.h"

#include <algorithm>

namespace griddb::storage {

Value ColumnVector::Get(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (rep_) {
    case Rep::kNone: return Value::Null();
    case Rep::kInt64: return Value(i64_[i]);
    case Rep::kDouble: return Value(f64_[i]);
    case Rep::kBool: return Value(b8_[i] != 0);
    case Rep::kString: return Value(str_[i]);
    case Rep::kValue: return boxed_[i];
  }
  return Value::Null();
}

void ColumnVector::Reserve(size_t n) {
  switch (rep_) {
    case Rep::kNone: break;
    case Rep::kInt64: i64_.reserve(n); break;
    case Rep::kDouble: f64_.reserve(n); break;
    case Rep::kBool: b8_.reserve(n); break;
    case Rep::kString: str_.reserve(n); break;
    case Rep::kValue: boxed_.reserve(n); break;
  }
}

void ColumnVector::SetNullBit(size_t i) {
  size_t word = i >> 6;
  if (nulls_.size() <= word) nulls_.resize(word + 1, 0);
  nulls_[word] |= uint64_t{1} << (i & 63);
  ++null_count_;
}

void ColumnVector::ClearNullBit(size_t i) {
  nulls_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  --null_count_;
}

void ColumnVector::Decide(Rep r) {
  rep_ = r;
  // Leading all-null prefix: payload arrays are empty but size_ counts
  // the nulls; back-fill placeholders so indexes line up.
  switch (r) {
    case Rep::kInt64: i64_.resize(size_, 0); break;
    case Rep::kDouble: f64_.resize(size_, 0); break;
    case Rep::kBool: b8_.resize(size_, 0); break;
    case Rep::kString: str_.resize(size_); break;
    case Rep::kValue: boxed_.resize(size_); break;
    case Rep::kNone: break;
  }
}

void ColumnVector::BoxAll() {
  std::vector<Value> boxed;
  boxed.reserve(size_);
  for (size_t i = 0; i < size_; ++i) boxed.push_back(Get(i));
  i64_.clear();
  f64_.clear();
  b8_.clear();
  str_.clear();
  boxed_ = std::move(boxed);
  rep_ = Rep::kValue;
}

void ColumnVector::AppendNull() {
  SetNullBit(size_);
  ++size_;
  switch (rep_) {
    case Rep::kNone: break;  // payload stays empty until a rep is decided
    case Rep::kInt64: i64_.push_back(0); break;
    case Rep::kDouble: f64_.push_back(0); break;
    case Rep::kBool: b8_.push_back(0); break;
    case Rep::kString: str_.emplace_back(); break;
    case Rep::kValue: boxed_.emplace_back(); break;
  }
}

void ColumnVector::AppendInt64(int64_t v) {
  if (rep_ == Rep::kNone) Decide(Rep::kInt64);
  if (rep_ == Rep::kInt64) {
    i64_.push_back(v);
    ++size_;
    return;
  }
  Append(Value(v));
}

void ColumnVector::AppendDouble(double v) {
  if (rep_ == Rep::kNone) Decide(Rep::kDouble);
  if (rep_ == Rep::kDouble) {
    f64_.push_back(v);
    ++size_;
    return;
  }
  Append(Value(v));
}

void ColumnVector::AppendBool(bool v) {
  if (rep_ == Rep::kNone) Decide(Rep::kBool);
  if (rep_ == Rep::kBool) {
    b8_.push_back(v ? 1 : 0);
    ++size_;
    return;
  }
  Append(Value(v));
}

void ColumnVector::AppendString(std::string v) {
  if (rep_ == Rep::kNone) Decide(Rep::kString);
  if (rep_ == Rep::kString) {
    str_.push_back(std::move(v));
    ++size_;
    return;
  }
  Append(Value(std::move(v)));
}

void ColumnVector::Append(const Value& v) {
  // One dispatch on the cell's type; a matching payload takes the cell
  // directly (the load path of every stored table).
  switch (v.type()) {
    case DataType::kNull: AppendNull(); return;
    case DataType::kInt64:
      if (rep_ == Rep::kNone) Decide(Rep::kInt64);
      if (rep_ == Rep::kInt64) {
        i64_.push_back(v.AsInt64Strict());
        ++size_;
        return;
      }
      break;
    case DataType::kDouble:
      if (rep_ == Rep::kNone) Decide(Rep::kDouble);
      if (rep_ == Rep::kDouble) {
        f64_.push_back(v.AsDoubleStrict());
        ++size_;
        return;
      }
      break;
    case DataType::kBool:
      if (rep_ == Rep::kNone) Decide(Rep::kBool);
      if (rep_ == Rep::kBool) {
        b8_.push_back(v.AsBoolStrict() ? 1 : 0);
        ++size_;
        return;
      }
      break;
    case DataType::kString:
      if (rep_ == Rep::kNone) Decide(Rep::kString);
      if (rep_ == Rep::kString) {
        str_.push_back(v.AsStringStrict());
        ++size_;
        return;
      }
      break;
  }
  // Mixed-type column: degrade to boxed storage.
  if (rep_ != Rep::kValue) BoxAll();
  boxed_.push_back(v);
  ++size_;
}

void ColumnVector::Append(Value&& v) {
  if (v.type() == DataType::kString &&
      (rep_ == Rep::kNone || rep_ == Rep::kString)) {
    AppendString(std::move(const_cast<std::string&>(v.AsStringStrict())));
    return;
  }
  if (rep_ == Rep::kValue && v.type() != DataType::kNull) {
    boxed_.push_back(std::move(v));
    ++size_;
    return;
  }
  Append(static_cast<const Value&>(v));
}

void ColumnVector::AppendCell(const ColumnVector& src, size_t i) {
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  if (rep_ == Rep::kNone && size_ == 0 && src.rep_ != Rep::kValue) {
    Decide(src.rep_);
  }
  if (rep_ != src.rep_) {
    Append(src.Get(i));
    return;
  }
  switch (rep_) {
    case Rep::kInt64: i64_.push_back(src.i64_[i]); break;
    case Rep::kDouble: f64_.push_back(src.f64_[i]); break;
    case Rep::kBool: b8_.push_back(src.b8_[i]); break;
    case Rep::kString: str_.push_back(src.str_[i]); break;
    case Rep::kValue: boxed_.push_back(src.boxed_[i]); break;
    case Rep::kNone: return;  // unreachable: src holds a non-null cell
  }
  ++size_;
}

void ColumnVector::Set(size_t i, const Value& v) {
  if (v.is_null()) {
    if (!IsNull(i)) SetNullBit(i);
    return;
  }
  if (IsNull(i)) ClearNullBit(i);
  Rep want = Rep::kValue;
  switch (v.type()) {
    case DataType::kInt64: want = Rep::kInt64; break;
    case DataType::kDouble: want = Rep::kDouble; break;
    case DataType::kBool: want = Rep::kBool; break;
    case DataType::kString: want = Rep::kString; break;
    case DataType::kNull: break;
  }
  if (rep_ == Rep::kNone) Decide(want);
  if (rep_ != want && rep_ != Rep::kValue) BoxAll();
  switch (rep_) {
    case Rep::kInt64: i64_[i] = v.AsInt64Strict(); break;
    case Rep::kDouble: f64_[i] = v.AsDoubleStrict(); break;
    case Rep::kBool: b8_[i] = v.AsBoolStrict() ? 1 : 0; break;
    case Rep::kString: str_[i] = v.AsStringStrict(); break;
    case Rep::kValue: boxed_[i] = v; break;
    case Rep::kNone: break;
  }
}

void ColumnVector::AppendSlice(const ColumnVector& src, size_t start,
                               size_t len) {
  if (len == 0) return;
  if (rep_ == Rep::kNone && size_ == 0 && src.rep_ != Rep::kNone) {
    Decide(src.rep_);
  }
  if (rep_ == src.rep_ && rep_ != Rep::kNone) {
    size_t base = size_;
    switch (rep_) {
      case Rep::kInt64:
        i64_.insert(i64_.end(), src.i64_.begin() + start,
                    src.i64_.begin() + start + len);
        break;
      case Rep::kDouble:
        f64_.insert(f64_.end(), src.f64_.begin() + start,
                    src.f64_.begin() + start + len);
        break;
      case Rep::kBool:
        b8_.insert(b8_.end(), src.b8_.begin() + start,
                   src.b8_.begin() + start + len);
        break;
      case Rep::kString:
        str_.insert(str_.end(), src.str_.begin() + start,
                    src.str_.begin() + start + len);
        break;
      case Rep::kValue:
        boxed_.insert(boxed_.end(), src.boxed_.begin() + start,
                      src.boxed_.begin() + start + len);
        break;
      case Rep::kNone: break;
    }
    size_ += len;
    if (src.has_nulls()) {
      for (size_t k = 0; k < len; ++k) {
        if (src.IsNull(start + k)) SetNullBit(base + k);
      }
    }
    return;
  }
  for (size_t k = 0; k < len; ++k) {
    if (src.IsNull(start + k)) {
      AppendNull();
    } else {
      Append(src.Get(start + k));
    }
  }
}

void ColumnVector::AppendGather(const ColumnVector& src, const uint32_t* idx,
                                size_t n) {
  if (n == 0) return;
  if (rep_ == Rep::kNone && size_ == 0 && src.rep_ != Rep::kNone) {
    Decide(src.rep_);
  }
  if (rep_ == src.rep_ && rep_ != Rep::kNone) {
    Reserve(size_ + n);
    for (size_t k = 0; k < n; ++k) {
      uint32_t i = idx[k];
      if (i == kNullIndex || src.IsNull(i)) {
        AppendNull();
        continue;
      }
      switch (rep_) {
        case Rep::kInt64: i64_.push_back(src.i64_[i]); break;
        case Rep::kDouble: f64_.push_back(src.f64_[i]); break;
        case Rep::kBool: b8_.push_back(src.b8_[i]); break;
        case Rep::kString: str_.push_back(src.str_[i]); break;
        case Rep::kValue: boxed_.push_back(src.boxed_[i]); break;
        case Rep::kNone: break;
      }
      ++size_;
    }
    return;
  }
  for (size_t k = 0; k < n; ++k) {
    uint32_t i = idx[k];
    if (i == kNullIndex || src.IsNull(i)) {
      AppendNull();
    } else {
      Append(src.Get(i));
    }
  }
}

size_t ColumnVector::ByteSize() const {
  size_t bytes = nulls_.size() * sizeof(uint64_t);
  bytes += i64_.capacity() * sizeof(int64_t);
  bytes += f64_.capacity() * sizeof(double);
  bytes += b8_.capacity();
  for (const std::string& s : str_) bytes += sizeof(std::string) + s.size();
  for (const Value& v : boxed_) bytes += sizeof(Value) + v.WireSize();
  return bytes;
}

size_t RowBatch::ByteSize() const {
  size_t bytes = 0;
  for (const ColumnVector& col : cols) bytes += col.ByteSize();
  return bytes;
}

Status AppendRowsToBatch(const std::vector<Row>& rows, size_t start,
                         size_t len, RowBatch& out) {
  const size_t width = out.cols.size();
  for (ColumnVector& col : out.cols) col.Reserve(col.size() + len);
  for (size_t r = start; r < start + len; ++r) {
    const Row& row = rows[r];
    if (row.size() != width) {
      return Internal("row width " + std::to_string(row.size()) +
                      " does not match scope width " + std::to_string(width));
    }
    for (size_t c = 0; c < width; ++c) out.cols[c].Append(row[c]);
  }
  out.rows += len;
  return Status::Ok();
}

void MaterializeRows(const RowBatch& batch, std::vector<Row>& out) {
  out.reserve(out.size() + batch.rows);
  for (size_t r = 0; r < batch.rows; ++r) {
    Row row;
    row.reserve(batch.cols.size());
    for (const ColumnVector& col : batch.cols) col.BoxInto(r, row);
    out.push_back(std::move(row));
  }
}

RowBatch GatherBatch(const RowBatch& src, const uint32_t* idx, size_t n) {
  RowBatch out;
  out.cols.resize(src.cols.size());
  for (size_t c = 0; c < src.cols.size(); ++c) {
    out.cols[c].AppendGather(src.cols[c], idx, n);
  }
  out.rows = n;
  return out;
}

void ChunkedRows::AppendRow(Row&& row) {
  if (chunks.empty() || chunks.back().rows == kChunkRows) {
    chunks.emplace_back();
    chunks.back().cols.resize(row.size());
  }
  RowBatch& chunk = chunks.back();
  for (size_t c = 0; c < row.size(); ++c) {
    chunk.cols[c].Append(std::move(row[c]));
  }
  ++chunk.rows;
  ++rows;
}

void ChunkedRows::AppendSlice(const RowBatch& src, size_t start, size_t len) {
  while (len > 0) {
    if (chunks.empty() || chunks.back().rows == kChunkRows) {
      chunks.emplace_back();
      chunks.back().cols.resize(src.cols.size());
    }
    RowBatch& chunk = chunks.back();
    size_t take = std::min(len, kChunkRows - chunk.rows);
    for (size_t c = 0; c < src.cols.size(); ++c) {
      chunk.cols[c].AppendSlice(src.cols[c], start, take);
    }
    chunk.rows += take;
    rows += take;
    start += take;
    len -= take;
  }
}

Row ChunkedRows::GetRow(size_t r) const {
  const RowBatch& chunk = chunks[r / kChunkRows];
  Row row;
  row.reserve(chunk.cols.size());
  for (const ColumnVector& col : chunk.cols) col.BoxInto(r % kChunkRows, row);
  return row;
}

void ChunkedRows::SetRow(size_t r, const Row& row) {
  RowBatch& chunk = chunks[r / kChunkRows];
  for (size_t c = 0; c < row.size(); ++c) {
    chunk.cols[c].Set(r % kChunkRows, row[c]);
  }
}

Result<ChunkedRows> ChunkRows(std::vector<Row> rows, size_t width) {
  ChunkedRows out;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != width) {
      return Internal("row " + std::to_string(r) + " has " +
                      std::to_string(rows[r].size()) + " cells for " +
                      std::to_string(width) + " columns");
    }
    out.AppendRow(std::move(rows[r]));
  }
  return out;
}

}  // namespace griddb::storage
