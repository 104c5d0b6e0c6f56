#include "griddb/rpc/wire.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>

#include "griddb/storage/column_vector.h"
#include "griddb/obs/metrics.h"
#include "griddb/util/limits.h"

namespace griddb::rpc::wire {

using storage::DataType;
using storage::Value;

namespace {

obs::Counter& BinaryResponses() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.wire.binary_responses");
  return *c;
}
obs::Counter& BytesSaved() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.wire.bytes_saved");
  return *c;
}
obs::Counter& ChunksStreamed() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.wire.chunks_streamed");
  return *c;
}
obs::Counter& CorruptFrames() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.wire.corrupt_frames");
  return *c;
}
obs::Gauge& CompressionRatio() {
  static obs::Gauge* g = obs::MetricsRegistry::Default().GetGauge(
      "griddb.wire.compression_ratio");
  return *g;
}

// Cumulative raw/compressed byte totals behind the compression_ratio
// gauge (ratio of everything compressed so far, not just the last frame).
std::atomic<uint64_t> g_compress_raw{0};
std::atomic<uint64_t> g_compress_wire{0};

// ---- little-endian + varint primitives ----

void AppendLE32(uint32_t v, std::string* out) {
  char buf[4] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8 & 0xff),
                 static_cast<char>(v >> 16 & 0xff),
                 static_cast<char>(v >> 24 & 0xff)};
  out->append(buf, 4);
}

void AppendLE64(uint64_t v, std::string* out) {
  AppendLE32(static_cast<uint32_t>(v & 0xffffffffu), out);
  AppendLE32(static_cast<uint32_t>(v >> 32), out);
}

uint32_t ReadLE32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

uint64_t ReadLE64(const char* p) {
  return static_cast<uint64_t>(ReadLE32(p)) |
         static_cast<uint64_t>(ReadLE32(p + 4)) << 32;
}

void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Result<uint64_t> ReadVarint(std::string_view in, size_t* offset) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (*offset >= in.size() || shift > 63) {
      return Corruption("truncated varint in binary frame");
    }
    uint8_t b = static_cast<uint8_t>(in[(*offset)++]);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void AppendDoubleBits(double d, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  AppendLE64(bits, out);
}

Result<double> ReadDoubleBits(std::string_view in, size_t* offset) {
  if (*offset + 8 > in.size()) {
    return Corruption("truncated double in binary frame");
  }
  uint64_t bits = ReadLE64(in.data() + *offset);
  *offset += 8;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<std::string_view> ReadBytes(std::string_view in, size_t* offset,
                                   size_t n) {
  if (n > in.size() || *offset > in.size() - n) {
    return Corruption("truncated byte run in binary frame");
  }
  std::string_view s = in.substr(*offset, n);
  *offset += n;
  return s;
}

uint64_t Fnv1a(const char* p, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvSeed = 1469598103934665603ull;

// ---- TLV tags ----

enum Tag : uint8_t {
  kTagNil = 0,
  kTagInt = 1,
  kTagDouble = 2,
  kTagTrue = 3,
  kTagFalse = 4,
  kTagString = 5,
  kTagArray = 6,
  kTagStruct = 7,
  kTagResultSet = 8,
  // Placeholder for a result set whose rows follow in chunk frames; the
  // payload carries only the column schema.
  kTagStreamStub = 9,
};

enum ColRep : uint8_t {
  kColAllNull = 0,
  kColInt64 = 1,
  kColDouble = 2,
  kColBool = 3,
  kColString = 4,
  kColMixed = 5,
};

// Sanity ceilings applied before any allocation sized from decoded
// counts: the digest makes damaged frames overwhelmingly likely to be
// rejected before decode, but a count must never be trusted to size a
// container beyond what the input could actually hold.
constexpr uint64_t kMaxDecodeCount = 1u << 28;

/// Ceiling on nrows x ncols for a columnar block in which EVERY column
/// is all-null. Such a block carries no per-row bytes at all, so unlike
/// every other shape its row count cannot be anchored to the payload
/// size; a crafted tiny frame could otherwise declare kMaxDecodeCount
/// rows and drive that many null appends per column. 4M cells is far
/// beyond anything the encoder emits in one frame (streams chunk at
/// ~1024 rows) while keeping decode work bounded.
constexpr uint64_t kMaxAllNullOnlyCells = 1u << 22;

Status CheckCount(uint64_t n, size_t remaining_bytes) {
  if (n > kMaxDecodeCount || n > remaining_bytes) {
    return Corruption("implausible element count in binary frame");
  }
  return Status::Ok();
}

// Result-set layout bytes. Columnar is the only layout: it is
// rectangular by construction, since the column count frames every
// block. The encoder writes kLayoutRejected only for a set whose rows
// disagree with its column list, which no producer makes; every decoder
// refuses it, as it refuses any byte but kLayoutColumnar.
constexpr uint8_t kLayoutColumnar = 0;
constexpr uint8_t kLayoutRejected = 0xff;

void AppendSchema(const storage::ResultSet& rs, std::string* out) {
  AppendVarint(rs.columns.size(), out);
  for (const std::string& c : rs.columns) {
    AppendVarint(c.size(), out);
    out->append(c);
  }
}

Result<std::vector<std::string>> ReadSchema(std::string_view in,
                                            size_t* offset) {
  GRIDDB_ASSIGN_OR_RETURN(uint64_t ncols, ReadVarint(in, offset));
  GRIDDB_RETURN_IF_ERROR(CheckCount(ncols, in.size() - *offset + 1));
  std::vector<std::string> columns;
  columns.reserve(ncols);
  for (uint64_t c = 0; c < ncols; ++c) {
    GRIDDB_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(in, offset));
    GRIDDB_RETURN_IF_ERROR(CheckCount(len, in.size() - *offset));
    GRIDDB_ASSIGN_OR_RETURN(std::string_view name, ReadBytes(in, offset, len));
    columns.emplace_back(name);
  }
  return columns;
}

// ---- value codec ----

struct EncodeCtx {
  /// When set, the FIRST occurrence of this exact result set encodes as
  /// a kTagStreamStub (its rows travel separately in chunk frames); the
  /// field is cleared after that emit, so a response embedding the same
  /// shared set twice encodes later occurrences whole — the decoder
  /// accepts exactly one stub per stream.
  const storage::ResultSet* stream_target = nullptr;
};

struct DecodeCtx {
  std::shared_ptr<storage::ResultSet>* stream_slot = nullptr;
  /// Containers (arrays, structs) enclosing the value being decoded;
  /// capped at kMaxNestingDepth.
  int depth = 0;
};

void EncodeResultSetTlv(const storage::ResultSet& rs, std::string* out) {
  out->push_back(static_cast<char>(kTagResultSet));
  AppendSchema(rs, out);
  const size_t layout_at = out->size();
  out->push_back(static_cast<char>(kLayoutColumnar));
  if (!EncodeRowsColumnar(rs, 0, rs.rows.size(), out).ok()) {
    // Rows that disagree with the column list are a program bug; send a
    // layout the peer rejects rather than rows it would read differently.
    out->resize(layout_at);
    out->push_back(static_cast<char>(kLayoutRejected));
  }
}

void EncodeValueImpl(const XmlRpcValue& value, EncodeCtx& ctx,
                     std::string* out) {
  if (value.is_empty()) {
    out->push_back(static_cast<char>(kTagNil));
    return;
  }
  if (value.is_int()) {
    out->push_back(static_cast<char>(kTagInt));
    AppendVarint(ZigzagEncode(value.AsInt().value()), out);
    return;
  }
  if (value.is_double()) {
    out->push_back(static_cast<char>(kTagDouble));
    AppendDoubleBits(value.AsDouble().value(), out);
    return;
  }
  if (value.is_bool()) {
    out->push_back(
        static_cast<char>(value.AsBool().value() ? kTagTrue : kTagFalse));
    return;
  }
  if (value.is_string()) {
    const std::string s = value.AsString().value();
    out->push_back(static_cast<char>(kTagString));
    AppendVarint(s.size(), out);
    out->append(s);
    return;
  }
  if (value.is_array()) {
    const XmlRpcArray& items = *value.AsArray().value();
    out->push_back(static_cast<char>(kTagArray));
    AppendVarint(items.size(), out);
    for (const XmlRpcValue& item : items) EncodeValueImpl(item, ctx, out);
    return;
  }
  if (value.is_struct()) {
    const XmlRpcStruct& record = *value.AsStruct().value();
    out->push_back(static_cast<char>(kTagStruct));
    AppendVarint(record.size(), out);
    for (const auto& [key, member] : record) {
      AppendVarint(key.size(), out);
      out->append(key);
      EncodeValueImpl(member, ctx, out);
    }
    return;
  }
  const storage::ResultSet* rs = value.result_set();
  if (rs == ctx.stream_target && rs != nullptr) {
    ctx.stream_target = nullptr;  // One stub per stream; duplicates encode whole.
    out->push_back(static_cast<char>(kTagStreamStub));
    AppendSchema(*rs, out);
    return;
  }
  EncodeResultSetTlv(*rs, out);
}

Result<XmlRpcValue> DecodeResultSetTlv(std::string_view in, size_t* offset) {
  auto rs = std::make_shared<storage::ResultSet>();
  GRIDDB_ASSIGN_OR_RETURN(rs->columns, ReadSchema(in, offset));
  if (*offset >= in.size()) return Corruption("truncated result-set layout");
  if (static_cast<uint8_t>(in[(*offset)++]) != kLayoutColumnar) {
    return Corruption("unknown result-set layout");
  }
  GRIDDB_RETURN_IF_ERROR(
      DecodeRowsColumnar(in, offset, rs->columns.size(), &rs->rows));
  return XmlRpcValue(std::move(rs));
}

Result<XmlRpcValue> DecodeValueImpl(std::string_view in, size_t* offset,
                                    const DecodeCtx& ctx) {
  if (ctx.depth > kMaxNestingDepth) {
    return ParseError("binary value nested deeper than " +
                      std::to_string(kMaxNestingDepth) + " levels");
  }
  if (*offset >= in.size()) return Corruption("truncated binary value");
  uint8_t tag = static_cast<uint8_t>(in[(*offset)++]);
  DecodeCtx inner = ctx;
  ++inner.depth;
  switch (tag) {
    case kTagNil:
      return XmlRpcValue();
    case kTagInt: {
      GRIDDB_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint(in, offset));
      return XmlRpcValue(ZigzagDecode(raw));
    }
    case kTagDouble: {
      GRIDDB_ASSIGN_OR_RETURN(double d, ReadDoubleBits(in, offset));
      return XmlRpcValue(d);
    }
    case kTagTrue:
      return XmlRpcValue(true);
    case kTagFalse:
      return XmlRpcValue(false);
    case kTagString: {
      GRIDDB_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(in, offset));
      GRIDDB_RETURN_IF_ERROR(CheckCount(len, in.size() - *offset));
      GRIDDB_ASSIGN_OR_RETURN(std::string_view s, ReadBytes(in, offset, len));
      return XmlRpcValue(std::string(s));
    }
    case kTagArray: {
      GRIDDB_ASSIGN_OR_RETURN(uint64_t count, ReadVarint(in, offset));
      GRIDDB_RETURN_IF_ERROR(CheckCount(count, in.size() - *offset + 1));
      XmlRpcArray items;
      items.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        GRIDDB_ASSIGN_OR_RETURN(XmlRpcValue item,
                                DecodeValueImpl(in, offset, inner));
        items.push_back(std::move(item));
      }
      return XmlRpcValue(std::move(items));
    }
    case kTagStruct: {
      GRIDDB_ASSIGN_OR_RETURN(uint64_t count, ReadVarint(in, offset));
      GRIDDB_RETURN_IF_ERROR(CheckCount(count, in.size() - *offset + 1));
      XmlRpcStruct record;
      for (uint64_t i = 0; i < count; ++i) {
        GRIDDB_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(in, offset));
        GRIDDB_RETURN_IF_ERROR(CheckCount(len, in.size() - *offset));
        GRIDDB_ASSIGN_OR_RETURN(std::string_view key,
                                ReadBytes(in, offset, len));
        GRIDDB_ASSIGN_OR_RETURN(XmlRpcValue member,
                                DecodeValueImpl(in, offset, inner));
        record[std::string(key)] = std::move(member);
      }
      return XmlRpcValue(std::move(record));
    }
    case kTagResultSet:
      return DecodeResultSetTlv(in, offset);
    case kTagStreamStub: {
      if (ctx.stream_slot == nullptr || *ctx.stream_slot != nullptr) {
        return Corruption("unexpected stream stub in binary value");
      }
      auto rs = std::make_shared<storage::ResultSet>();
      GRIDDB_ASSIGN_OR_RETURN(rs->columns, ReadSchema(in, offset));
      *ctx.stream_slot = rs;
      return XmlRpcValue(std::move(rs));
    }
    default:
      return Corruption("unknown binary value tag " + std::to_string(tag));
  }
}

}  // namespace

// ---- capabilities ----

std::string CapsToString(uint32_t caps) {
  std::string out;
  auto add = [&](const char* word) {
    if (!out.empty()) out += ',';
    out += word;
  };
  if (caps & kCapBinary) add("binary");
  if (caps & kCapLz4) add("lz4");
  if (caps & kCapStream) add("stream");
  return out;
}

uint32_t CapsFromString(std::string_view text) {
  // Runs on every request the server decodes (the <wireAccept> header),
  // so it scans in place instead of splitting into allocated words.
  uint32_t caps = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view word = text.substr(pos, end - pos);
    while (!word.empty() &&
           std::isspace(static_cast<unsigned char>(word.front()))) {
      word.remove_prefix(1);
    }
    while (!word.empty() &&
           std::isspace(static_cast<unsigned char>(word.back()))) {
      word.remove_suffix(1);
    }
    if (word == "binary") caps |= kCapBinary;
    if (word == "lz4") caps |= kCapLz4;
    if (word == "stream") caps |= kCapStream;
    pos = end + 1;
  }
  // Compression and streaming only mean anything on binary frames.
  if (!(caps & kCapBinary)) return 0;
  return caps;
}

uint32_t EnvWirePreference() {
  const char* env = std::getenv("GRIDDB_WIRE");
  if (env != nullptr && std::string_view(env) == "binary") return kAllCaps;
  return 0;
}

// ---- frames ----

bool LooksBinary(std::string_view raw) {
  return raw.size() >= 4 && std::memcmp(raw.data(), kFrameMagic, 4) == 0;
}

void AppendFrame(FrameKind kind, uint32_t seq, std::string_view payload,
                 bool allow_compress, std::string* out) {
  std::string packed;
  std::string_view body = payload;
  bool compressed = false;
  if (allow_compress && payload.size() >= kCompressMinBytes) {
    BlockCompress(payload, &packed);
    if (packed.size() < payload.size()) {
      body = packed;
      compressed = true;
      uint64_t raw_total =
          g_compress_raw.fetch_add(payload.size()) + payload.size();
      uint64_t wire_total =
          g_compress_wire.fetch_add(packed.size()) + packed.size();
      CompressionRatio().Set(static_cast<double>(raw_total) /
                             static_cast<double>(wire_total));
    }
  }
  size_t base = out->size();
  out->reserve(base + kFrameHeaderSize + body.size());
  out->append(kFrameMagic, 4);
  out->push_back(static_cast<char>(kind));
  out->push_back(static_cast<char>(compressed ? 1 : 0));
  AppendLE32(seq, out);
  AppendLE32(static_cast<uint32_t>(payload.size()), out);
  AppendLE32(static_cast<uint32_t>(body.size()), out);
  uint64_t digest = Fnv1a(out->data() + base + 4, 14, kFnvSeed);
  digest = Fnv1a(body.data(), body.size(), digest);
  AppendLE64(digest, out);
  out->append(body);
}

Result<std::vector<std::pair<size_t, size_t>>> SplitFrames(
    std::string_view raw) {
  std::vector<std::pair<size_t, size_t>> frames;
  size_t offset = 0;
  while (offset < raw.size()) {
    if (raw.size() - offset < kFrameHeaderSize ||
        std::memcmp(raw.data() + offset, kFrameMagic, 4) != 0) {
      return Corruption("malformed binary frame boundary");
    }
    size_t wire_len = ReadLE32(raw.data() + offset + 14);
    size_t frame_len = kFrameHeaderSize + wire_len;
    if (wire_len > raw.size() - offset - kFrameHeaderSize) {
      return Corruption("binary frame length exceeds the response body");
    }
    frames.emplace_back(offset, frame_len);
    offset += frame_len;
  }
  if (frames.empty()) return Corruption("empty binary response body");
  return frames;
}

Result<Frame> ParseFrame(std::string_view raw) {
  auto damaged = [](const char* what) {
    CorruptFrames().Add(1);
    return Corruption(std::string("binary frame corrupted in transit (") +
                      what + ")");
  };
  if (raw.size() < kFrameHeaderSize ||
      std::memcmp(raw.data(), kFrameMagic, 4) != 0) {
    return damaged("bad magic");
  }
  uint8_t kind = static_cast<uint8_t>(raw[4]);
  uint8_t flags = static_cast<uint8_t>(raw[5]);
  if (kind > static_cast<uint8_t>(FrameKind::kStreamTrailer) || flags > 1) {
    return damaged("bad header");
  }
  size_t raw_len = ReadLE32(raw.data() + 10);
  size_t wire_len = ReadLE32(raw.data() + 14);
  if (wire_len != raw.size() - kFrameHeaderSize) return damaged("bad length");
  uint64_t digest = Fnv1a(raw.data() + 4, 14, kFnvSeed);
  digest = Fnv1a(raw.data() + kFrameHeaderSize, wire_len, digest);
  if (digest != ReadLE64(raw.data() + 18)) return damaged("digest mismatch");

  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.seq = ReadLE32(raw.data() + 6);
  frame.compressed = flags & 1;
  std::string_view body = raw.substr(kFrameHeaderSize);
  if (frame.compressed) {
    auto unpacked = BlockDecompress(body, raw_len);
    // The digest already vouched for the bytes; a decompression failure
    // here means a framing bug, but report it as corruption either way.
    if (!unpacked.ok()) return damaged("bad compressed block");
    frame.payload = std::move(*unpacked);
  } else {
    if (raw_len != wire_len) return damaged("length mismatch");
    frame.payload.assign(body);
  }
  return frame;
}

// ---- block compression ----

void BlockCompress(std::string_view in, std::string* out) {
  out->clear();
  const size_t n = in.size();
  const auto* src = reinterpret_cast<const uint8_t*>(in.data());
  auto emit_len = [&](size_t v) {
    while (v >= 255) {
      out->push_back(static_cast<char>(255));
      v -= 255;
    }
    out->push_back(static_cast<char>(v));
  };
  auto emit = [&](size_t lit_start, size_t lit_len, size_t match_len,
                  size_t offset) {
    size_t mcode = match_len >= 4 ? match_len - 4 : 0;
    uint8_t token =
        static_cast<uint8_t>(std::min<size_t>(lit_len, 15) << 4 |
                             std::min<size_t>(mcode, 15));
    out->push_back(static_cast<char>(token));
    if (lit_len >= 15) emit_len(lit_len - 15);
    out->append(in.data() + lit_start, lit_len);
    if (match_len >= 4) {
      out->push_back(static_cast<char>(offset & 0xff));
      out->push_back(static_cast<char>(offset >> 8 & 0xff));
      if (mcode >= 15) emit_len(mcode - 15);
    }
  };
  if (n < 16) {
    if (n > 0) emit(0, n, 0, 0);
    return;
  }
  std::vector<int32_t> table(1u << 13, -1);
  auto hash4 = [&](size_t p) {
    uint32_t v;
    std::memcpy(&v, src + p, 4);
    return (v * 2654435761u) >> 19;
  };
  size_t anchor = 0;
  size_t i = 0;
  const size_t limit = n - 4;
  while (i <= limit) {
    uint32_t h = hash4(i);
    int32_t cand = table[h];
    table[h] = static_cast<int32_t>(i);
    if (cand >= 0 && i - static_cast<size_t>(cand) <= 65535 &&
        std::memcmp(src + cand, src + i, 4) == 0) {
      size_t match_len = 4;
      while (i + match_len < n &&
             src[static_cast<size_t>(cand) + match_len] == src[i + match_len]) {
        ++match_len;
      }
      emit(anchor, i - anchor, match_len, i - static_cast<size_t>(cand));
      i += match_len;
      anchor = i;
    } else {
      ++i;
    }
  }
  if (n > anchor) emit(anchor, n - anchor, 0, 0);
}

Result<std::string> BlockDecompress(std::string_view in, size_t raw_len) {
  if (raw_len > kMaxDecodeCount) {
    return Corruption("implausible decompressed length");
  }
  std::string out;
  out.reserve(raw_len);
  size_t pos = 0;
  auto extend = [&](size_t nibble) -> Result<size_t> {
    size_t v = nibble;
    if (nibble == 15) {
      uint8_t b;
      do {
        if (pos >= in.size()) return Corruption("truncated run length");
        b = static_cast<uint8_t>(in[pos++]);
        v += b;
      } while (b == 255);
    }
    return v;
  };
  while (out.size() < raw_len) {
    if (pos >= in.size()) return Corruption("truncated compressed block");
    uint8_t token = static_cast<uint8_t>(in[pos++]);
    GRIDDB_ASSIGN_OR_RETURN(size_t lit_len, extend(token >> 4));
    if (lit_len > in.size() - pos || out.size() + lit_len > raw_len) {
      return Corruption("literal run out of range");
    }
    out.append(in.data() + pos, lit_len);
    pos += lit_len;
    if (out.size() >= raw_len) break;
    if (pos + 2 > in.size()) return Corruption("truncated match offset");
    size_t offset = static_cast<uint8_t>(in[pos]) |
                    static_cast<size_t>(static_cast<uint8_t>(in[pos + 1])) << 8;
    pos += 2;
    if (offset == 0 || offset > out.size()) {
      return Corruption("match offset out of range");
    }
    GRIDDB_ASSIGN_OR_RETURN(size_t mcode, extend(token & 15));
    size_t match_len = mcode + 4;
    if (out.size() + match_len > raw_len) {
      return Corruption("match run out of range");
    }
    size_t from = out.size() - offset;
    for (size_t k = 0; k < match_len; ++k) out.push_back(out[from + k]);
  }
  if (pos != in.size()) {
    return Corruption("compressed block has trailing bytes");
  }
  return out;
}

// ---- columnar row blocks ----

Status EncodeRowsColumnar(const storage::ResultSet& rs, size_t start,
                          size_t len, std::string* out) {
  for (size_t r = start; r < start + len && r < rs.rows.size(); ++r) {
    if (rs.rows[r].size() != rs.columns.size()) {
      return FailedPrecondition("row " + std::to_string(r) + " has " +
                                std::to_string(rs.rows[r].size()) +
                                " cells for " +
                                std::to_string(rs.columns.size()) +
                                " columns");
    }
  }
  storage::RowBatch batch;
  batch.cols.resize(rs.columns.size());
  GRIDDB_RETURN_IF_ERROR(
      storage::AppendRowsToBatch(rs.rows, start, len, batch));
  AppendVarint(len, out);
  for (const storage::ColumnVector& col : batch.cols) {
    const size_t n = col.size();
    if (col.rep() == storage::ColumnVector::Rep::kNone) {
      out->push_back(static_cast<char>(kColAllNull));
      continue;
    }
    uint8_t rep = kColMixed;
    switch (col.rep()) {
      case storage::ColumnVector::Rep::kInt64: rep = kColInt64; break;
      case storage::ColumnVector::Rep::kDouble: rep = kColDouble; break;
      case storage::ColumnVector::Rep::kBool: rep = kColBool; break;
      case storage::ColumnVector::Rep::kString: rep = kColString; break;
      default: rep = kColMixed; break;
    }
    out->push_back(static_cast<char>(rep));
    AppendVarint(col.null_count(), out);
    if (col.null_count() > 0) {
      // Packed bit-per-row null map, little-endian within each byte.
      size_t bytes = (n + 7) / 8;
      size_t base = out->size();
      out->append(bytes, '\0');
      for (size_t r = 0; r < n; ++r) {
        if (col.IsNull(r)) {
          (*out)[base + (r >> 3)] |= static_cast<char>(1u << (r & 7));
        }
      }
    }
    switch (rep) {
      case kColInt64: {
        const int64_t* vals = col.ints();
        for (size_t r = 0; r < n; ++r) {
          if (!col.IsNull(r)) AppendVarint(ZigzagEncode(vals[r]), out);
        }
        break;
      }
      case kColDouble: {
        const double* vals = col.doubles();
        for (size_t r = 0; r < n; ++r) {
          if (!col.IsNull(r)) AppendDoubleBits(vals[r], out);
        }
        break;
      }
      case kColBool: {
        const uint8_t* vals = col.bools();
        uint8_t acc = 0;
        int bit = 0;
        for (size_t r = 0; r < n; ++r) {
          if (col.IsNull(r)) continue;
          if (vals[r]) acc |= static_cast<uint8_t>(1u << bit);
          if (++bit == 8) {
            out->push_back(static_cast<char>(acc));
            acc = 0;
            bit = 0;
          }
        }
        if (bit > 0) out->push_back(static_cast<char>(acc));
        break;
      }
      case kColString: {
        const std::string* vals = col.strings();
        for (size_t r = 0; r < n; ++r) {
          if (col.IsNull(r)) continue;
          AppendVarint(vals[r].size(), out);
          out->append(vals[r]);
        }
        break;
      }
      default: {  // kColMixed: per-cell tagged scalars
        const Value* vals = col.values();
        for (size_t r = 0; r < n; ++r) {
          if (col.IsNull(r)) continue;
          const Value& v = vals[r];
          switch (v.type()) {
            case DataType::kInt64:
              out->push_back(static_cast<char>(kColInt64));
              AppendVarint(ZigzagEncode(v.AsInt64Strict()), out);
              break;
            case DataType::kDouble:
              out->push_back(static_cast<char>(kColDouble));
              AppendDoubleBits(v.AsDoubleStrict(), out);
              break;
            case DataType::kBool:
              out->push_back(static_cast<char>(kColBool));
              out->push_back(v.AsBoolStrict() ? 1 : 0);
              break;
            case DataType::kString: {
              const std::string& s = v.AsStringStrict();
              out->push_back(static_cast<char>(kColString));
              AppendVarint(s.size(), out);
              out->append(s);
              break;
            }
            case DataType::kNull:
              // Unreachable: nulls are excluded by IsNull above; keep the
              // stream decodable anyway.
              out->push_back(static_cast<char>(kColAllNull));
              break;
          }
        }
        break;
      }
    }
  }
  return Status::Ok();
}

Status DecodeRowsColumnar(std::string_view in, size_t* offset, size_t num_cols,
                          std::vector<storage::Row>* out) {
  GRIDDB_ASSIGN_OR_RETURN(uint64_t nrows, ReadVarint(in, offset));
  GRIDDB_RETURN_IF_ERROR(CheckCount(nrows, kMaxDecodeCount));
  if (nrows > 0 && num_cols == 0) {
    return Corruption("columnar block with rows but no columns");
  }
  storage::RowBatch batch;
  batch.cols.resize(num_cols);
  batch.rows = nrows;
  const size_t n = nrows;
  // All-null columns occupy one byte regardless of n, so their O(n)
  // expansion is deferred until some other column has anchored n to the
  // payload size (its bitmap or values must physically fit in the
  // remaining bytes). A block where every column is all-null has no
  // such anchor and is held to kMaxAllNullOnlyCells instead.
  std::vector<size_t> all_null_cols;
  bool rows_byte_anchored = false;
  for (size_t c = 0; c < num_cols; ++c) {
    storage::ColumnVector& col = batch.cols[c];
    if (*offset >= in.size()) return Corruption("truncated column block");
    uint8_t rep = static_cast<uint8_t>(in[(*offset)++]);
    if (rep == kColAllNull) {
      all_null_cols.push_back(c);
      continue;
    }
    if (rep > kColMixed) return Corruption("unknown column representation");
    GRIDDB_ASSIGN_OR_RETURN(uint64_t null_count, ReadVarint(in, offset));
    if (null_count > n) return Corruption("null count exceeds row count");
    std::string_view bitmap;
    if (null_count > 0) {
      GRIDDB_ASSIGN_OR_RETURN(bitmap, ReadBytes(in, offset, (n + 7) / 8));
    }
    // Before any per-row work: the remaining payload must at least hold
    // this column's minimal footprint (one bit per present bool, one
    // byte per present value otherwise), so a tiny frame declaring a
    // huge row count fails in O(1) instead of driving n appends.
    const size_t present = n - static_cast<size_t>(null_count);
    const size_t min_bytes = rep == kColBool ? (present + 7) / 8 : present;
    if (in.size() - *offset < min_bytes) {
      return Corruption("column block shorter than its row count implies");
    }
    col.Reserve(n);
    rows_byte_anchored = true;
    auto is_null = [&](size_t r) {
      return null_count > 0 &&
             (static_cast<uint8_t>(bitmap[r >> 3]) >> (r & 7) & 1);
    };
    switch (rep) {
      case kColInt64:
        for (size_t r = 0; r < n; ++r) {
          if (is_null(r)) {
            col.AppendNull();
          } else {
            GRIDDB_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint(in, offset));
            col.AppendInt64(ZigzagDecode(raw));
          }
        }
        break;
      case kColDouble:
        for (size_t r = 0; r < n; ++r) {
          if (is_null(r)) {
            col.AppendNull();
          } else {
            GRIDDB_ASSIGN_OR_RETURN(double d, ReadDoubleBits(in, offset));
            col.AppendDouble(d);
          }
        }
        break;
      case kColBool: {
        size_t present = n - static_cast<size_t>(null_count);
        GRIDDB_ASSIGN_OR_RETURN(std::string_view bits,
                                ReadBytes(in, offset, (present + 7) / 8));
        size_t k = 0;
        for (size_t r = 0; r < n; ++r) {
          if (is_null(r)) {
            col.AppendNull();
          } else {
            col.AppendBool(static_cast<uint8_t>(bits[k >> 3]) >> (k & 7) & 1);
            ++k;
          }
        }
        break;
      }
      case kColString:
        for (size_t r = 0; r < n; ++r) {
          if (is_null(r)) {
            col.AppendNull();
          } else {
            GRIDDB_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(in, offset));
            GRIDDB_RETURN_IF_ERROR(CheckCount(len, in.size() - *offset));
            GRIDDB_ASSIGN_OR_RETURN(std::string_view s,
                                    ReadBytes(in, offset, len));
            col.AppendString(std::string(s));
          }
        }
        break;
      default:  // kColMixed
        for (size_t r = 0; r < n; ++r) {
          if (is_null(r)) {
            col.AppendNull();
            continue;
          }
          if (*offset >= in.size()) return Corruption("truncated mixed cell");
          uint8_t cell_tag = static_cast<uint8_t>(in[(*offset)++]);
          switch (cell_tag) {
            case kColInt64: {
              GRIDDB_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint(in, offset));
              col.Append(Value(ZigzagDecode(raw)));
              break;
            }
            case kColDouble: {
              GRIDDB_ASSIGN_OR_RETURN(double d, ReadDoubleBits(in, offset));
              col.Append(Value(d));
              break;
            }
            case kColBool: {
              if (*offset >= in.size()) {
                return Corruption("truncated mixed bool");
              }
              col.Append(Value(in[(*offset)++] != 0));
              break;
            }
            case kColString: {
              GRIDDB_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(in, offset));
              GRIDDB_RETURN_IF_ERROR(CheckCount(len, in.size() - *offset));
              GRIDDB_ASSIGN_OR_RETURN(std::string_view s,
                                      ReadBytes(in, offset, len));
              col.Append(Value(std::string(s)));
              break;
            }
            case kColAllNull:
              col.Append(Value::Null());
              break;
            default:
              return Corruption("unknown mixed cell tag");
          }
        }
        break;
    }
  }
  if (!all_null_cols.empty()) {
    if (!rows_byte_anchored &&
        nrows * static_cast<uint64_t>(num_cols) > kMaxAllNullOnlyCells) {
      return Corruption("implausible all-null columnar block");
    }
    for (size_t c : all_null_cols) {
      storage::ColumnVector& col = batch.cols[c];
      col.Reserve(n);
      for (size_t r = 0; r < n; ++r) col.AppendNull();
    }
  }
  storage::MaterializeRows(batch, *out);
  return Status::Ok();
}

// ---- value codec (public wrappers) ----

void EncodeValue(const XmlRpcValue& value, std::string* out) {
  EncodeCtx ctx;
  EncodeValueImpl(value, ctx, out);
}

Result<XmlRpcValue> DecodeValue(std::string_view in, size_t* offset) {
  return DecodeValueImpl(in, offset, DecodeCtx{});
}

// ---- response codec ----

std::string EncodeBinaryResponse(const XmlRpcValue& value, uint32_t caps,
                                 size_t chunk_rows, size_t xml_size_hint) {
  const bool compress = (caps & kCapLz4) != 0;
  if (chunk_rows == 0) chunk_rows = 1024;

  // Pick the streaming candidate: the largest result set embedded either
  // as the response itself or as a direct struct member, big enough to
  // span more than one chunk.
  const storage::ResultSet* target = nullptr;
  if (caps & kCapStream) {
    auto consider = [&](const XmlRpcValue& v) {
      const storage::ResultSet* rs = v.result_set();
      if (rs == nullptr || rs->rows.size() <= chunk_rows) return;
      if (target == nullptr || rs->rows.size() > target->rows.size()) {
        target = rs;
      }
    };
    consider(value);
    if (value.is_struct()) {
      for (const auto& [key, member] : *value.AsStruct().value()) {
        (void)key;
        consider(member);
      }
    }
  }

  std::string out;
  auto append_stream = [&]() -> Status {
    EncodeCtx ctx;
    ctx.stream_target = target;
    std::string header;
    EncodeValueImpl(value, ctx, &header);
    AppendFrame(FrameKind::kStreamHeader, 0, header, compress, &out);
    uint32_t seq = 1;
    const size_t total = target->rows.size();
    for (size_t start = 0; start < total; start += chunk_rows) {
      size_t len = std::min(chunk_rows, total - start);
      std::string block;
      GRIDDB_RETURN_IF_ERROR(EncodeRowsColumnar(*target, start, len, &block));
      AppendFrame(FrameKind::kStreamChunk, seq++, block, compress, &out);
    }
    std::string trailer;
    AppendVarint(total, &trailer);
    AppendVarint(seq - 1, &trailer);
    AppendFrame(FrameKind::kStreamTrailer, seq, trailer, compress, &out);
    ChunksStreamed().Add(seq - 1);
    return Status::Ok();
  };
  if (target != nullptr && !append_stream().ok()) {
    // Rows that disagree with the column list cannot stream: send one
    // whole frame, whose result-set layout byte the peer rejects.
    out.clear();
    target = nullptr;
  }
  if (target == nullptr) {
    std::string payload;
    EncodeCtx plain;
    EncodeValueImpl(value, plain, &payload);
    AppendFrame(FrameKind::kWhole, 0, payload, compress, &out);
  }
  BinaryResponses().Add(1);
  if (xml_size_hint > out.size()) {
    BytesSaved().Add(xml_size_hint - out.size());
  }
  return out;
}

Status ResponseDecoder::Consume(Frame frame, storage::ResultSet* chunk,
                                bool* is_chunk) {
  *is_chunk = false;
  if (done_) return Corruption("frame after end of binary response");
  if (frame.seq != next_seq_) {
    return Corruption("binary frame out of sequence");
  }
  ++next_seq_;
  size_t offset = 0;
  switch (frame.kind) {
    case FrameKind::kWhole: {
      if (have_envelope_) return Corruption("second envelope frame");
      GRIDDB_ASSIGN_OR_RETURN(
          envelope_, DecodeValueImpl(frame.payload, &offset, DecodeCtx{}));
      if (offset != frame.payload.size()) {
        return Corruption("trailing bytes after binary response value");
      }
      have_envelope_ = true;
      done_ = true;
      return Status::Ok();
    }
    case FrameKind::kStreamHeader: {
      if (have_envelope_) return Corruption("second envelope frame");
      DecodeCtx ctx;
      ctx.stream_slot = &stream_slot_;
      GRIDDB_ASSIGN_OR_RETURN(envelope_,
                              DecodeValueImpl(frame.payload, &offset, ctx));
      if (offset != frame.payload.size()) {
        return Corruption("trailing bytes after stream header");
      }
      if (stream_slot_ == nullptr) {
        return Corruption("stream header without a streamed member");
      }
      columns_ = stream_slot_->columns;
      have_envelope_ = true;
      return Status::Ok();
    }
    case FrameKind::kStreamChunk: {
      if (!have_envelope_ || stream_slot_ == nullptr) {
        return Corruption("stream chunk before header");
      }
      chunk->columns = columns_;
      chunk->rows.clear();
      GRIDDB_RETURN_IF_ERROR(DecodeRowsColumnar(frame.payload, &offset,
                                                columns_.size(), &chunk->rows));
      if (offset != frame.payload.size()) {
        return Corruption("trailing bytes after stream chunk");
      }
      rows_seen_ += chunk->rows.size();
      *is_chunk = true;
      return Status::Ok();
    }
    case FrameKind::kStreamTrailer: {
      if (!have_envelope_ || stream_slot_ == nullptr) {
        return Corruption("stream trailer before header");
      }
      GRIDDB_ASSIGN_OR_RETURN(uint64_t total_rows,
                              ReadVarint(frame.payload, &offset));
      GRIDDB_ASSIGN_OR_RETURN(uint64_t total_chunks,
                              ReadVarint(frame.payload, &offset));
      if (offset != frame.payload.size()) {
        return Corruption("trailing bytes after stream trailer");
      }
      if (total_rows != rows_seen_ || total_chunks + 2 != next_seq_) {
        return Corruption("stream trailer disagrees with delivered chunks");
      }
      done_ = true;
      return Status::Ok();
    }
  }
  return Corruption("unknown frame kind");
}

Result<XmlRpcValue> ResponseDecoder::Finish(bool attach_rows,
                                            std::vector<storage::Row> rows) {
  if (!done_ || !have_envelope_) {
    return Corruption("binary response ended before its trailer");
  }
  if (stream_slot_ != nullptr && attach_rows) {
    stream_slot_->rows = std::move(rows);
  }
  return envelope_;
}

}  // namespace griddb::rpc::wire
