// The classic XML-RPC codec over the xml::Node document tree, kept as a
// test and bench oracle.
//
// Production XML-RPC (rpc/xmlrpc_value.cc) writes and reads messages in
// one pass with no document tree. This header keeps the tree codec it
// replaced verbatim, apart from reaching XmlRpcValue through its public
// accessors: values convert to and from xml::Node, and messages go
// through xml::Write / xml::Parse.
//
// Two uses:
//   - byte identity: the one-pass writer must emit exactly the bytes of
//     EncodeRequest / EncodeResponse / EncodeFault below
//     (tests/wire_codec_test.cc, tests/xmlrpc_codec_test.cc,
//     bench/bench_ext_wan.cc, bench/bench_ext_xml_codec.cc);
//   - decode parity: the one-pass reader must decode well-formed
//     messages to the same values as DecodeRequest / DecodeResponse
//     below (tests/xmlrpc_codec_test.cc), except where the tree codec
//     is wrong: xml::Parse trims element text, so string values lose
//     leading and trailing whitespace here.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "griddb/rpc/xmlrpc_value.h"
#include "griddb/util/strings.h"
#include "griddb/xml/xml.h"

namespace griddb::bench::xmlrpc_tree {

/// The struct{columns,rows} boxing of a result set.
inline rpc::XmlRpcStruct ResultSetToStruct(const storage::ResultSet& rs) {
  rpc::XmlRpcArray columns;
  columns.reserve(rs.columns.size());
  for (const std::string& c : rs.columns) columns.emplace_back(c);

  rpc::XmlRpcArray rows;
  rows.reserve(rs.rows.size());
  for (const storage::Row& row : rs.rows) {
    rpc::XmlRpcArray cells;
    cells.reserve(row.size());
    for (const storage::Value& cell : row) {
      switch (cell.type()) {
        case storage::DataType::kNull: cells.emplace_back(); break;
        case storage::DataType::kInt64:
          cells.emplace_back(cell.AsInt64Strict());
          break;
        case storage::DataType::kDouble:
          cells.emplace_back(cell.AsDoubleStrict());
          break;
        case storage::DataType::kBool:
          cells.emplace_back(cell.AsBoolStrict());
          break;
        case storage::DataType::kString:
          cells.emplace_back(cell.AsStringStrict());
          break;
      }
    }
    rows.emplace_back(std::move(cells));
  }
  rpc::XmlRpcStruct out;
  out["columns"] = std::move(columns);
  out["rows"] = std::move(rows);
  return out;
}

/// Serializes a value as a <value>...</value> element.
inline xml::Node ToXml(const rpc::XmlRpcValue& value) {
  if (const storage::ResultSet* rs = value.result_set()) {
    return ToXml(rpc::XmlRpcValue(ResultSetToStruct(*rs)));
  }
  xml::Node value_node("value");
  if (value.is_empty()) {
    value_node.AddChild("nil");
  } else if (value.is_int()) {
    value_node.AddTextChild("i4", std::to_string(*value.AsInt()));
  } else if (value.is_double()) {
    value_node.AddTextChild("double", StrFormat("%.17g", *value.AsDouble()));
  } else if (value.is_bool()) {
    value_node.AddTextChild("boolean", *value.AsBool() ? "1" : "0");
  } else if (value.is_string()) {
    value_node.AddTextChild("string", *value.AsString());
  } else if (value.is_array()) {
    xml::Node& data = value_node.AddChild("array").AddChild("data");
    for (const rpc::XmlRpcValue& item : **value.AsArray()) {
      data.children.push_back(std::make_unique<xml::Node>(ToXml(item)));
    }
  } else if (value.is_struct()) {
    xml::Node& struct_node = value_node.AddChild("struct");
    for (const auto& [key, member] : **value.AsStruct()) {
      xml::Node& member_node = struct_node.AddChild("member");
      member_node.AddTextChild("name", key);
      member_node.children.push_back(
          std::make_unique<xml::Node>(ToXml(member)));
    }
  }
  return value_node;
}

inline Result<rpc::XmlRpcValue> FromXml(const xml::Node& value_node) {
  if (value_node.name != "value") {
    return ParseError("expected <value> element, got <" + value_node.name + ">");
  }
  // Bare text inside <value> is a string per the XML-RPC spec.
  if (value_node.children.empty()) return rpc::XmlRpcValue(value_node.text);

  const xml::Node& type_node = *value_node.children[0];
  const std::string& tag = type_node.name;
  if (tag == "nil") return rpc::XmlRpcValue();
  if (tag == "i4" || tag == "int") {
    int64_t v = 0;
    if (!ParseInt64(type_node.text, &v)) {
      return ParseError("bad XML-RPC int '" + type_node.text + "'");
    }
    return rpc::XmlRpcValue(v);
  }
  if (tag == "double") {
    double v = 0;
    if (!ParseDouble(type_node.text, &v)) {
      return ParseError("bad XML-RPC double '" + type_node.text + "'");
    }
    return rpc::XmlRpcValue(v);
  }
  if (tag == "boolean") {
    if (type_node.text == "1") return rpc::XmlRpcValue(true);
    if (type_node.text == "0") return rpc::XmlRpcValue(false);
    return ParseError("bad XML-RPC boolean '" + type_node.text + "'");
  }
  if (tag == "string") return rpc::XmlRpcValue(type_node.text);
  if (tag == "array") {
    const xml::Node* data = type_node.Child("data");
    if (!data) return ParseError("<array> without <data>");
    rpc::XmlRpcArray array;
    array.reserve(data->children.size());
    for (const auto& child : data->children) {
      GRIDDB_ASSIGN_OR_RETURN(rpc::XmlRpcValue item, FromXml(*child));
      array.push_back(std::move(item));
    }
    return rpc::XmlRpcValue(std::move(array));
  }
  if (tag == "struct") {
    rpc::XmlRpcStruct record;
    for (const auto& member : type_node.children) {
      if (member->name != "member") {
        return ParseError("<struct> child is not <member>");
      }
      const xml::Node* name = member->Child("name");
      const xml::Node* value = member->Child("value");
      if (!name || !value) return ParseError("<member> missing name/value");
      GRIDDB_ASSIGN_OR_RETURN(rpc::XmlRpcValue item, FromXml(*value));
      record[name->text] = std::move(item);
    }
    return rpc::XmlRpcValue(std::move(record));
  }
  return ParseError("unknown XML-RPC type <" + tag + ">");
}

// ---- message codec ----

inline xml::WriteOptions CompactXml() {
  xml::WriteOptions options;
  options.pretty = false;
  return options;
}

inline std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

inline bool ParseHexU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

inline std::string EncodeRequest(const rpc::RpcRequest& request) {
  xml::Node root("methodCall");
  root.AddTextChild("methodName", request.method);
  if (!request.session_token.empty()) {
    root.AddTextChild("sessionToken", request.session_token);
  }
  // Sparse: untraced requests carry no trace element at all.
  if (request.trace_id != 0) {
    root.AddTextChild("traceContext", HexU64(request.trace_id) + ":" +
                                          HexU64(request.parent_span_id));
  }
  // Sparse: calls without a deadline carry no budget element at all.
  if (request.deadline_ms > 0) {
    root.AddTextChild("deadlineMs", StrFormat("%.17g", request.deadline_ms));
  }
  // Sparse: anonymous-tenant calls carry no tenant element at all.
  if (!request.tenant.empty()) {
    root.AddTextChild("tenant", request.tenant);
  }
  // Sparse: clients that never negotiated binary framing carry no
  // wireAccept element at all (the byte-identity invariant again).
  if (!request.wire_accept.empty()) {
    root.AddTextChild("wireAccept", request.wire_accept);
  }
  xml::Node& params = root.AddChild("params");
  for (const rpc::XmlRpcValue& param : request.params) {
    xml::Node& param_node = params.AddChild("param");
    param_node.children.push_back(std::make_unique<xml::Node>(ToXml(param)));
  }
  return xml::Write(root, CompactXml());
}

inline Result<rpc::RpcRequest> DecodeRequest(std::string_view raw) {
  GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<xml::Node> doc, xml::Parse(raw));
  if (doc->name != "methodCall") {
    return ParseError("expected <methodCall> document");
  }
  rpc::RpcRequest request;
  request.method = doc->ChildText("methodName");
  if (request.method.empty()) return ParseError("missing <methodName>");
  request.session_token = doc->ChildText("sessionToken");
  std::string trace = doc->ChildText("traceContext");
  if (!trace.empty()) {
    size_t colon = trace.find(':');
    if (colon == std::string::npos ||
        !ParseHexU64(std::string_view(trace).substr(0, colon),
                     &request.trace_id) ||
        !ParseHexU64(std::string_view(trace).substr(colon + 1),
                     &request.parent_span_id)) {
      return ParseError("malformed <traceContext> '" + trace + "'");
    }
  }
  std::string deadline = doc->ChildText("deadlineMs");
  if (!deadline.empty()) {
    if (!ParseDouble(deadline, &request.deadline_ms) ||
        request.deadline_ms < 0) {
      return ParseError("malformed <deadlineMs> '" + deadline + "'");
    }
  }
  request.tenant = doc->ChildText("tenant");
  request.wire_accept = doc->ChildText("wireAccept");
  if (const xml::Node* params = doc->Child("params")) {
    for (const auto& param : params->children) {
      if (param->name != "param" || param->children.empty()) {
        return ParseError("malformed <param>");
      }
      GRIDDB_ASSIGN_OR_RETURN(rpc::XmlRpcValue value,
                              FromXml(*param->children[0]));
      request.params.push_back(std::move(value));
    }
  }
  return request;
}

/// The generic XML writer over a methodResponse tree.
inline std::string EncodeResponse(const rpc::XmlRpcValue& value) {
  xml::Node root("methodResponse");
  xml::Node& param = root.AddChild("params").AddChild("param");
  param.children.push_back(std::make_unique<xml::Node>(ToXml(value)));
  return xml::Write(root, CompactXml());
}

inline std::string EncodeFault(const Status& status) {
  xml::Node root("methodResponse");
  xml::Node& fault = root.AddChild("fault");
  rpc::XmlRpcStruct detail;
  detail["faultCode"] = static_cast<int64_t>(status.code());
  detail["faultString"] = std::string(StatusCodeName(status.code())) + ": " +
                          status.message();
  fault.children.push_back(
      std::make_unique<xml::Node>(ToXml(rpc::XmlRpcValue(detail))));
  return xml::Write(root, CompactXml());
}

inline Result<rpc::XmlRpcValue> DecodeResponse(std::string_view raw) {
  GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<xml::Node> doc, xml::Parse(raw));
  if (doc->name != "methodResponse") {
    return ParseError("expected <methodResponse> document");
  }
  if (const xml::Node* fault = doc->Child("fault")) {
    if (fault->children.empty()) return ParseError("empty <fault>");
    GRIDDB_ASSIGN_OR_RETURN(rpc::XmlRpcValue detail,
                            FromXml(*fault->children[0]));
    auto code_member = detail.Member("faultCode");
    auto text_member = detail.Member("faultString");
    StatusCode code = StatusCode::kInternal;
    std::string message = "remote fault";
    if (code_member.ok()) {
      auto code_value = (*code_member)->AsInt();
      if (code_value.ok()) code = static_cast<StatusCode>(*code_value);
    }
    if (text_member.ok()) {
      auto text = (*text_member)->AsString();
      if (text.ok()) message = *text;
    }
    if (code == StatusCode::kOk) code = StatusCode::kInternal;
    return Status(code, message);
  }
  const xml::Node* params = doc->Child("params");
  if (!params || params->children.empty() ||
      params->children[0]->children.empty()) {
    return ParseError("response missing <params>");
  }
  return FromXml(*params->children[0]->children[0]);
}

}  // namespace griddb::bench::xmlrpc_tree
