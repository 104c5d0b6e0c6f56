// Negotiated binary wire protocol: columnar framing, block compression,
// chunked result streaming (DESIGN.md §16).
//
// XML-RPC stays the verbatim default — every fault-free response of a
// non-negotiated exchange is byte-identical to the text codec the paper
// describes. When a client asks for more at connect time (the capability
// exchange rides the existing connect/auth handshake) and the server
// agrees, successful responses switch to length-prefixed, digest-checked
// binary frames:
//
//   [4B magic "GBF1"][1B kind][1B flags][4B seq][4B raw_len][4B wire_len]
//   [8B FNV-1a-64 digest][payload ...]
//
// The payload is a TLV encoding of the response value in which result
// sets travel as typed *columns* built straight from the vectorized
// executor's ColumnVector batches — int64s as zigzag varints, doubles as
// 8-byte IEEE, bools bit-packed, strings length-prefixed, plus a packed
// null bitmap per column — instead of one <value> element per cell.
// Frames optionally carry an LZ4-style compressed payload (greedy
// hash-match block format, self-contained, no external dependency) when
// that actually shrinks them. The digest lets the client detect frames
// corrupted in transit by net::FaultPlan and fail the attempt with
// kCorruption, which the existing RetryPolicy already retries.
//
// Large results additionally stream as header + N chunk frames + trailer
// so the consumer starts integrating rows while later chunks are still
// on the wire; rpc::RpcClient models the overlap with a bounded window
// of in-flight chunks refilled by consumer credit (see server.cc).
//
// Faults and requests always stay XML: the first bytes of a response
// ('<' vs "GBF1") select the decoder, so an old client talking to a new
// server — or the reverse — degrades to plain XML-RPC transparently.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "griddb/rpc/xmlrpc_value.h"
#include "griddb/storage/result_set.h"
#include "griddb/util/status.h"

namespace griddb::rpc::wire {

// ---- capabilities ----

enum WireCap : uint32_t {
  kCapBinary = 1u << 0,  ///< TLV/columnar binary response framing.
  kCapLz4 = 1u << 1,     ///< Per-frame block compression (needs kCapBinary).
  kCapStream = 1u << 2,  ///< Chunked result streaming (needs kCapBinary).
};
inline constexpr uint32_t kAllCaps = kCapBinary | kCapLz4 | kCapStream;

/// "binary,lz4,stream" (subset, in that order); "" for 0.
std::string CapsToString(uint32_t caps);
/// Inverse of CapsToString; unrecognized tokens are ignored, which is
/// what makes the handshake forward-compatible (a newer peer may
/// advertise words this build has never heard of).
uint32_t CapsFromString(std::string_view text);

/// Client-side default wire preference from the GRIDDB_WIRE environment
/// toggle: "binary" = kAllCaps, anything else (or unset) = 0 (XML-RPC,
/// the seed behaviour). Read per call so tests can flip it.
uint32_t EnvWirePreference();

// ---- frames ----

enum class FrameKind : uint8_t {
  kWhole = 0,          ///< Entire response value in one payload.
  kStreamHeader = 1,   ///< Response envelope; streamed member is a stub.
  kStreamChunk = 2,    ///< One columnar block of rows.
  kStreamTrailer = 3,  ///< Total row/chunk counts (end-of-stream marker).
};

inline constexpr size_t kFrameHeaderSize = 26;
inline constexpr char kFrameMagic[4] = {'G', 'B', 'F', '1'};

/// A decoded (digest-checked, decompressed) frame.
struct Frame {
  FrameKind kind = FrameKind::kWhole;
  uint32_t seq = 0;
  bool compressed = false;
  std::string payload;
};

/// True when `raw` starts with the binary frame magic (an XML response
/// starts with '<'; the two cannot collide).
bool LooksBinary(std::string_view raw);

/// Appends one framed payload to `out`. With `allow_compress` the payload
/// is LZ4-compressed when that shrinks it (>= kCompressMinBytes).
void AppendFrame(FrameKind kind, uint32_t seq, std::string_view payload,
                 bool allow_compress, std::string* out);

/// Byte ranges of the frames packed in `raw` (offset, length). Fails on
/// malformed framing; runs on the server-side pristine bytes, before any
/// simulated transfer can damage them.
Result<std::vector<std::pair<size_t, size_t>>> SplitFrames(
    std::string_view raw);

/// Verifies and unpacks one frame (as delivered, possibly damaged in
/// transit). A digest mismatch — or framing too mangled to read — fails
/// with kCorruption, which IsRetryable() already covers.
Result<Frame> ParseFrame(std::string_view raw);

// ---- block compression (LZ4-style token/literal/match format) ----

inline constexpr size_t kCompressMinBytes = 128;

/// Greedy single-pass compressor; `out` is overwritten. The format is
/// self-framing given the raw length (carried in the frame header).
void BlockCompress(std::string_view in, std::string* out);
/// Inverse; bounds-checked so damaged input fails (kCorruption) instead
/// of reading out of range.
Result<std::string> BlockDecompress(std::string_view in, size_t raw_len);

// ---- value codec (TLV) ----

void EncodeValue(const XmlRpcValue& value, std::string* out);
Result<XmlRpcValue> DecodeValue(std::string_view in, size_t* offset);

/// Columnar block for rows[start, start+len) of `rs` (no schema; the
/// column count frames the block, so every decoded row is as wide as the
/// column list). Fails kFailedPrecondition on a row of another width.
Status EncodeRowsColumnar(const storage::ResultSet& rs, size_t start,
                          size_t len, std::string* out);
Status DecodeRowsColumnar(std::string_view in, size_t* offset, size_t num_cols,
                          std::vector<storage::Row>* out);

// ---- response codec ----

/// Encodes a successful response under the negotiated `caps`: one kWhole
/// frame, or header + chunk(s) + trailer when kCapStream is set and the
/// largest directly-embedded result set has more than `chunk_rows` rows.
/// `xml_size_hint` (the size EncodeResponse would have produced; 0 =
/// unknown) feeds the griddb.wire.bytes_saved metric.
std::string EncodeBinaryResponse(const XmlRpcValue& value, uint32_t caps,
                                 size_t chunk_rows, size_t xml_size_hint);

/// Consumer of streamed chunks. The return value of OnChunk is the
/// simulated milliseconds the consumer spends integrating the chunk;
/// the client's flow-control window uses it as the credit-grant delay
/// (a slow consumer stalls the producer). Errors abort the call.
class StreamSink {
 public:
  virtual ~StreamSink() = default;
  /// A retry re-delivers the stream from the top; drop partial state.
  virtual void OnRestart() {}
  virtual Result<double> OnChunk(storage::ResultSet&& chunk, size_t seq) = 0;
};

/// Reassembles a framed response on the client. Feed frames in order via
/// Consume; chunk frames hand their decoded rows back through `chunk`
/// (columns filled from the stream header). Finish returns the response
/// envelope — with the accumulated rows attached to the streamed member
/// when `attach_rows` is set (no external sink), or with the streamed
/// member holding only the column schema when the sink consumed them.
class ResponseDecoder {
 public:
  /// `*is_chunk` reports whether `chunk` received rows.
  Status Consume(Frame frame, storage::ResultSet* chunk, bool* is_chunk);
  Result<XmlRpcValue> Finish(bool attach_rows, std::vector<storage::Row> rows);
  bool done() const { return done_; }
  size_t num_columns() const { return columns_.size(); }

 private:
  XmlRpcValue envelope_;
  bool have_envelope_ = false;
  bool done_ = false;
  std::shared_ptr<storage::ResultSet> stream_slot_;
  std::vector<std::string> columns_;
  uint32_t next_seq_ = 0;
  size_t rows_seen_ = 0;
};

}  // namespace griddb::rpc::wire
