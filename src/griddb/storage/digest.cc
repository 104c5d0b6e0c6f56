#include "griddb/storage/digest.h"

#include "griddb/storage/stage_file.h"
#include "griddb/util/md5.h"

namespace griddb::storage {

std::string TableDigest::ToString() const {
  return "rows=" + std::to_string(rows) + " md5=" + md5;
}

std::string CanonicalRowEncoding(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += '\t';
    out += EscapeCell(row[i]);
  }
  return out;
}

void RowDigest::Add(const Row& row) {
  // 128-bit byte-wise addition with carry over the per-row digests.
  Md5 hasher;
  hasher.Update(CanonicalRowEncoding(row));
  std::array<uint8_t, 16> digest = hasher.Digest();
  unsigned carry = 0;
  for (int i = 15; i >= 0; --i) {
    unsigned v = static_cast<unsigned>(sum_[i]) + digest[i] + carry;
    sum_[i] = static_cast<uint8_t>(v & 0xff);
    carry = v >> 8;
  }
  ++rows_;
}

TableDigest RowDigest::Finish() const {
  TableDigest out;
  out.rows = rows_;
  static const char* hex = "0123456789abcdef";
  out.md5.reserve(32);
  for (uint8_t byte : sum_) {
    out.md5 += hex[byte >> 4];
    out.md5 += hex[byte & 0xf];
  }
  return out;
}

TableDigest DigestRows(const std::vector<Row>& rows) {
  RowDigest digest;
  for (const Row& row : rows) digest.Add(row);
  return digest.Finish();
}

}  // namespace griddb::storage
