#include "griddb/storage/table.h"

#include <algorithm>

namespace griddb::storage {

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  pk_indexes_ = schema_.PrimaryKeyIndexes();
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

}  // namespace

uint64_t Table::KeyHash(const Row& row) const {
  uint64_t h = kFnvOffset;
  for (size_t idx : pk_indexes_) h = (h ^ row[idx].Hash()) * kFnvPrime;
  return h;
}

uint64_t Table::KeyHashAt(size_t index) const {
  const RowBatch& chunk = data_.chunks[index / kChunkRows];
  uint64_t h = kFnvOffset;
  for (size_t idx : pk_indexes_) {
    h = (h ^ chunk.cols[idx].Get(index % kChunkRows).Hash()) * kFnvPrime;
  }
  return h;
}

bool Table::KeyEquals(const Row& row, size_t index) const {
  const RowBatch& chunk = data_.chunks[index / kChunkRows];
  for (size_t idx : pk_indexes_) {
    if (row[idx] != chunk.cols[idx].Get(index % kChunkRows)) return false;
  }
  return true;
}

size_t Table::Home(uint64_t hash) const {
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >> 32) &
         (pk_slots_.size() - 1);
}

size_t Table::FindSlot(const Row& row, uint64_t hash) const {
  const size_t mask = pk_slots_.size() - 1;
  for (size_t s = Home(hash);; s = (s + 1) & mask) {
    const PkSlot& slot = pk_slots_[s];
    if (slot.row_plus_one == 0 ||
        (slot.hash == hash && KeyEquals(row, slot.row_plus_one - 1))) {
      return s;
    }
  }
}

void Table::Place(PkSlot slot) {
  const size_t mask = pk_slots_.size() - 1;
  size_t s = Home(slot.hash);
  while (pk_slots_[s].row_plus_one != 0) s = (s + 1) & mask;
  pk_slots_[s] = slot;
}

void Table::ReserveIndex(size_t keys) {
  if (2 * keys <= pk_slots_.size()) return;
  size_t slots = 16;
  while (slots < 2 * keys) slots *= 2;
  std::vector<PkSlot> old = std::move(pk_slots_);
  pk_slots_.assign(slots, PkSlot{});
  for (const PkSlot& slot : old) {
    if (slot.row_plus_one != 0) Place(slot);
  }
}

void Table::Unindex(size_t index) {
  const size_t mask = pk_slots_.size() - 1;
  size_t hole = Home(KeyHashAt(index));
  while (pk_slots_[hole].row_plus_one != index + 1) hole = (hole + 1) & mask;
  for (size_t s = (hole + 1) & mask; pk_slots_[s].row_plus_one != 0;
       s = (s + 1) & mask) {
    // The entry at `s` stays unless its home lies cyclically outside
    // (hole, s]; then a lookup would stop at the hole before reaching it.
    size_t home = Home(pk_slots_[s].hash);
    bool stays = hole < s ? (hole < home && home <= s)
                          : (hole < home || home <= s);
    if (!stays) {
      pk_slots_[hole] = pk_slots_[s];
      hole = s;
    }
  }
  pk_slots_[hole] = PkSlot{};
  --pk_count_;
}

Status Table::DuplicateKey() const {
  return AlreadyExists("duplicate primary key in table '" + name() + "'");
}

Status Table::Insert(Row row) {
  GRIDDB_RETURN_IF_ERROR(schema_.CoerceRow(row));
  if (!pk_indexes_.empty()) {
    ReserveIndex(pk_count_ + 1);
    const uint64_t hash = KeyHash(row);
    PkSlot& slot = pk_slots_[FindSlot(row, hash)];
    if (slot.row_plus_one != 0) return DuplicateKey();
    slot = {hash, static_cast<uint32_t>(data_.rows + 1)};
    ++pk_count_;
  }
  data_.AppendRow(std::move(row));
  return Status::Ok();
}

Status Table::InsertAll(std::vector<Row> new_rows) {
  if (!pk_indexes_.empty()) ReserveIndex(pk_count_ + new_rows.size());
  for (size_t r = 0; r < new_rows.size(); ++r) {
    GRIDDB_RETURN_IF_ERROR(Insert(std::move(new_rows[r])));
    // A chunk's first row fixed its column types: size the columns for
    // the rows still to come instead of growing them row by row.
    RowBatch& chunk = data_.chunks.back();
    if (chunk.rows == 1) {
      size_t expected = std::min(kChunkRows, new_rows.size() - r);
      for (ColumnVector& col : chunk.cols) col.Reserve(expected);
    }
  }
  return Status::Ok();
}

Status Table::UpdateRow(size_t index, Row row) {
  if (index >= data_.rows) {
    return InvalidArgument("row index out of range");
  }
  GRIDDB_RETURN_IF_ERROR(schema_.CoerceRow(row));
  if (!pk_indexes_.empty() && !KeyEquals(row, index)) {
    // Only a changed key touches the index: fail if another row holds
    // the new key, else move this row's entry to it.
    const uint64_t hash = KeyHash(row);
    if (pk_slots_[FindSlot(row, hash)].row_plus_one != 0) {
      return DuplicateKey();
    }
    Unindex(index);
    Place({hash, static_cast<uint32_t>(index + 1)});
    ++pk_count_;
  }
  data_.SetRow(index, row);
  return Status::Ok();
}

void Table::DeleteRows(std::vector<size_t> indexes) {
  if (indexes.empty()) return;
  std::sort(indexes.begin(), indexes.end());
  indexes.erase(std::unique(indexes.begin(), indexes.end()), indexes.end());
  // Copy the kept runs of each chunk into fresh chunks, so every chunk
  // but the last stays full.
  ChunkedRows kept;
  size_t next = 0;  // position in `indexes`
  for (size_t ci = 0; ci < data_.chunks.size(); ++ci) {
    const RowBatch& chunk = data_.chunks[ci];
    size_t base = ci * kChunkRows;
    size_t start = 0;
    while (start < chunk.rows) {
      size_t stop = chunk.rows;
      if (next < indexes.size() && indexes[next] < base + chunk.rows) {
        stop = indexes[next] - base;
      }
      kept.AppendSlice(chunk, start, stop - start);
      if (stop == chunk.rows) break;
      start = stop + 1;
      ++next;
    }
  }
  data_ = std::move(kept);
  ReindexAll();
}

void Table::Truncate() {
  data_ = ChunkedRows();
  pk_slots_.clear();
  pk_count_ = 0;
}

TableDigest Table::Digest() const {
  RowDigest digest;
  for (const RowBatch& chunk : data_.chunks) {
    Row row(chunk.cols.size());
    for (size_t r = 0; r < chunk.rows; ++r) {
      for (size_t c = 0; c < chunk.cols.size(); ++c) {
        row[c] = chunk.cols[c].Get(r);
      }
      digest.Add(row);
    }
  }
  return digest.Finish();
}

void Table::ReindexAll() {
  pk_slots_.clear();
  pk_count_ = 0;
  if (pk_indexes_.empty()) return;
  ReserveIndex(data_.rows);
  for (size_t r = 0; r < data_.rows; ++r) {
    Place({KeyHashAt(r), static_cast<uint32_t>(r + 1)});
  }
  pk_count_ = data_.rows;
}

}  // namespace griddb::storage
