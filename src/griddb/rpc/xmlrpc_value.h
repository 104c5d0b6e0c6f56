// XML-RPC value model and wire codec.
//
// Clarens exposes its services over XML-RPC; JClarens (the Java server the
// paper builds on) keeps the same wire format. We implement the classic
// <methodCall>/<methodResponse> vocabulary: i4/int, double, boolean,
// string, array and struct. (dateTime and base64 are not needed by any of
// the services in the prototype.)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "griddb/storage/result_set.h"
#include "griddb/util/status.h"

namespace griddb::rpc {

class XmlRpcValue;
using XmlRpcArray = std::vector<XmlRpcValue>;
using XmlRpcStruct = std::map<std::string, XmlRpcValue>;
/// Result sets ride inside XmlRpcValue unconverted (shared, so wrapping
/// is O(1) and responses fanning out to several encoders share one
/// copy). The XML writer renders a wrapped set exactly as the classic
/// struct{columns,rows} form, so the text wire format is unchanged; the
/// binary codec (rpc/wire) serializes the rows columnar without ever
/// boxing cells into per-value variants.
using ResultSetPtr = std::shared_ptr<storage::ResultSet>;

class XmlRpcValue {
 public:
  XmlRpcValue() : data_(std::monostate{}) {}
  XmlRpcValue(int64_t v) : data_(v) {}  // NOLINT(google-explicit-constructor)
  XmlRpcValue(int v) : data_(static_cast<int64_t>(v)) {}  // NOLINT
  XmlRpcValue(double v) : data_(v) {}   // NOLINT
  XmlRpcValue(bool v) : data_(v) {}     // NOLINT
  XmlRpcValue(std::string v) : data_(std::move(v)) {}  // NOLINT
  XmlRpcValue(const char* v) : data_(std::string(v)) {}  // NOLINT
  XmlRpcValue(XmlRpcArray v) : data_(std::move(v)) {}    // NOLINT
  XmlRpcValue(XmlRpcStruct v) : data_(std::move(v)) {}   // NOLINT
  XmlRpcValue(ResultSetPtr v) : data_(std::move(v)) {}   // NOLINT

  bool is_empty() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<XmlRpcArray>(data_); }
  bool is_struct() const { return std::holds_alternative<XmlRpcStruct>(data_); }
  bool is_result_set() const {
    return std::holds_alternative<ResultSetPtr>(data_);
  }

  Result<int64_t> AsInt() const;
  Result<double> AsDouble() const;  ///< ints widen to double
  Result<bool> AsBool() const;
  Result<std::string> AsString() const;
  Result<const XmlRpcArray*> AsArray() const;
  Result<const XmlRpcStruct*> AsStruct() const;

  /// Struct member access; error when not a struct or key absent.
  Result<const XmlRpcValue*> Member(const std::string& key) const;

  /// The wrapped result set (nullptr unless is_result_set()).
  const storage::ResultSet* result_set() const {
    const auto* p = std::get_if<ResultSetPtr>(&data_);
    return p ? p->get() : nullptr;
  }
  ResultSetPtr result_set_ptr() const {
    const auto* p = std::get_if<ResultSetPtr>(&data_);
    return p ? *p : nullptr;
  }

  /// Appends this value's compact <value>...</value> serialization to
  /// `out` directly: no document tree, no per-cell boxing, numbers via
  /// std::to_chars, escaping only where string content can need it. The
  /// bytes are those of the classic XML-RPC tree writer kept as a test
  /// oracle in bench/xmlrpc_tree_oracle.h.
  void AppendXml(std::string* out) const;
  /// Upper-bound-ish size estimate for AppendXml (single up-front
  /// reserve; an underestimate merely costs a realloc).
  size_t EstimateXmlSize() const;

  /// Approximate wire footprint: the serialized XML size.
  size_t WireSize() const;

  /// Structural equality. A wrapped result set compares equal to the
  /// classic struct{columns,rows} encoding of the same data (both sides
  /// are compared via their canonical XML serialization when a wrapped
  /// set is involved).
  bool operator==(const XmlRpcValue& other) const;

 private:
  // Reads cells without a Result<> wrapper and copy per cell.
  friend Result<storage::ResultSet> RpcToResultSet(const XmlRpcValue& value);

  std::variant<std::monostate, int64_t, double, bool, std::string, XmlRpcArray,
               XmlRpcStruct, ResultSetPtr>
      data_;
};

// ---- storage interop: result sets cross the wire as struct{columns,rows}
// on the XML codec, or as typed columns on the negotiated binary codec.
// Both forms decode back via RpcToResultSet.

XmlRpcValue ResultSetToRpc(const storage::ResultSet& rs);
XmlRpcValue ResultSetToRpc(storage::ResultSet&& rs);
/// The XML form fails kCorruption on a row whose width differs from the
/// column list; the binary form is rectangular by construction.
Result<storage::ResultSet> RpcToResultSet(const XmlRpcValue& value);

// ---- message codec ----

struct RpcRequest {
  std::string method;
  XmlRpcArray params;
  std::string session_token;  ///< Carried as a header param; empty = none.
  /// Distributed-trace context (obs/trace.h), carried as a header element
  /// like the session token. Encoded ONLY when trace_id != 0, so requests
  /// from untraced clients are byte-identical to the pre-tracing wire
  /// format (the Table 1 / Fig 4-6 invariant).
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  /// Remaining query budget in virtual ms, carried as a header element
  /// like the trace context. Encoded ONLY when > 0, so calls without a
  /// deadline stay byte-identical to the pre-deadline wire format. The
  /// value is relative (a budget, not an absolute instant): hosts share
  /// one virtual clock here, but real deployments do not share wall
  /// clocks, and a relative budget survives clock skew.
  double deadline_ms = 0;
  /// Requesting tenant identity, carried hop-by-hop as a header element.
  /// Encoded ONLY when non-empty: the default anonymous tenant sends no
  /// <tenant> element, so untenanted traffic stays byte-identical to the
  /// pre-RBAC wire format.
  std::string tenant;
  /// Wire capabilities the client accepts for THIS call's response
  /// (rpc/wire.h caps string, e.g. "binary,lz4,stream"), the result of
  /// the connect-time handshake. Encoded ONLY when non-empty, so a
  /// client that never negotiated — or a server that never advertised —
  /// keeps the request bytes identical to the XML-only wire format.
  std::string wire_accept;
};

std::string EncodeRequest(const RpcRequest& request);
Result<RpcRequest> DecodeRequest(std::string_view raw);

/// Successful response payload.
std::string EncodeResponse(const XmlRpcValue& value);
/// Fault response (code derived from StatusCode).
std::string EncodeFault(const Status& status);
/// Decodes either form; faults come back as error Status.
Result<XmlRpcValue> DecodeResponse(std::string_view raw);

}  // namespace griddb::rpc
