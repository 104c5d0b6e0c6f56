// Order-insensitive table content digests for anti-entropy verification.
//
// A replica of a warehouse view must hold exactly the same multiset of
// rows as the warehouse, but row order is an artefact of load order and
// must not matter. Each row is hashed individually (MD5 over its
// canonical stage-file encoding) and the per-row digests are combined
// with 128-bit addition: commutative (order-insensitive) but, unlike
// XOR, duplicate-sensitive — a row inserted twice changes the digest.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "griddb/storage/value.h"

namespace griddb::storage {

/// Row count + combined MD5; two tables with equal digests hold the same
/// multiset of rows (up to MD5 collision).
struct TableDigest {
  size_t rows = 0;
  std::string md5;  ///< 32 lowercase hex chars.

  friend bool operator==(const TableDigest& a, const TableDigest& b) {
    return a.rows == b.rows && a.md5 == b.md5;
  }
  friend bool operator!=(const TableDigest& a, const TableDigest& b) {
    return !(a == b);
  }

  /// "rows=120 md5=0123..." (diagnostics).
  std::string ToString() const;
};

/// Canonical encoding of one row: stage-file escaped cells joined by
/// tabs. Shared by the digest and the chunked stage format so a staged
/// chunk's digest is comparable end to end.
std::string CanonicalRowEncoding(const Row& row);

/// Accumulates a digest row by row, in any order.
class RowDigest {
 public:
  void Add(const Row& row);
  TableDigest Finish() const;

 private:
  std::array<uint8_t, 16> sum_{};
  size_t rows_ = 0;
};

/// Digest of a multiset of rows (order-insensitive).
TableDigest DigestRows(const std::vector<Row>& rows);

}  // namespace griddb::storage
