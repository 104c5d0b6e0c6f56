// In-memory table storage: typed column chunks plus a primary-key index.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "griddb/storage/column_vector.h"
#include "griddb/storage/digest.h"
#include "griddb/storage/schema.h"
#include "griddb/storage/value.h"
#include "griddb/util/status.h"

namespace griddb::storage {

/// Rows as chunks of typed columns (column_vector.h). Every cell is
/// coerced to its column's declared type as it is stored, so a stored
/// column is typed or all NULL, never boxed, and the executor reads the
/// chunks in place. Not internally synchronized; the owning
/// engine::Database serializes access.
class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t num_rows() const { return data_.rows; }
  const ChunkedRows& data() const { return data_; }

  /// Boxes row `index` (< num_rows()).
  Row GetRow(size_t index) const { return data_.GetRow(index); }

  /// Validates, coerces and appends. Enforces primary-key uniqueness.
  Status Insert(Row row);

  /// Bulk insert; stops at the first failure (already-inserted rows stay).
  Status InsertAll(std::vector<Row> rows);

  /// Replaces the row at `index` (validated/coerced; PK updates re-indexed).
  Status UpdateRow(size_t index, Row row);

  /// Deletes the rows at the given indexes (sorted ascending internally).
  void DeleteRows(std::vector<size_t> indexes);

  /// Drops all rows (keeps the schema).
  void Truncate();

  /// Order-insensitive digest of the stored rows (storage/digest.h).
  TableDigest Digest() const;

 private:
  /// One slot of the primary-key index: a stored row and its key's hash.
  struct PkSlot {
    uint64_t hash = 0;
    uint32_t row_plus_one = 0;  // 0 = empty slot
  };

  /// Hash of the key cells of `row`, or of stored row `index`.
  uint64_t KeyHash(const Row& row) const;
  uint64_t KeyHashAt(size_t index) const;
  /// True when `row`'s key cells equal stored row `index`'s, compared as
  /// typed values, so no separator or text rendering makes keys collide.
  bool KeyEquals(const Row& row, size_t index) const;
  /// The slot a probe for `hash` starts at.
  size_t Home(uint64_t hash) const;
  /// The slot of the stored row whose key equals `row`'s, or else the
  /// empty slot where that key belongs.
  size_t FindSlot(const Row& row, uint64_t hash) const;
  /// Stores `slot` at the first empty slot of its probe run.
  void Place(PkSlot slot);
  /// Grows the index so `keys` keys keep it at most half full.
  void ReserveIndex(size_t keys);
  /// Empties the slot of stored row `index`, shifting later entries of
  /// its probe run back so lookups never stop early.
  void Unindex(size_t index);
  Status DuplicateKey() const;
  void ReindexAll();

  TableSchema schema_;
  ChunkedRows data_;
  std::vector<size_t> pk_indexes_;
  /// Primary-key index: open addressing with linear probing over a power
  /// of two slots, at most half full. Flat, so an insert allocates
  /// nothing and probes one or two adjacent slots.
  std::vector<PkSlot> pk_slots_;
  size_t pk_count_ = 0;
};

}  // namespace griddb::storage
