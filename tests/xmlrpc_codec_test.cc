// One-pass XML-RPC codec (rpc/xmlrpc_value.cc, DESIGN.md §16): the
// writer is byte-identical to the tree codec kept in
// bench/xmlrpc_tree_oracle.h, including std::to_chars number output
// against printf "%.17g"; the reader decodes compact, pretty-printed,
// CDATA and character-reference forms of random values exactly as the
// tree oracle does, apart from the string whitespace the oracle trims;
// the accepted and rejected grammar; the nesting-depth cap on every
// decoder of untrusted bytes; padded strings and subnormal doubles
// crossing a federated query unchanged on both codecs; and a reply whose
// rows disagree with its column list refused as kCorruption, which a
// federated query fails over on.
#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/xmlrpc_tree_oracle.h"
#include "griddb/core/jclarens_server.h"
#include "griddb/rpc/server.h"
#include "griddb/rpc/wire.h"
#include "griddb/util/limits.h"
#include "griddb/util/rng.h"
#include "griddb/util/strings.h"
#include "griddb/xml/xml.h"

namespace griddb::rpc {
namespace {

namespace tree = bench::xmlrpc_tree;
using storage::ResultSet;
using storage::Row;
using storage::Value;

// ---------- random values ----------

std::string RandomString(Rng& rng) {
  // Empty strings, everything that needs escaping, whitespace at either
  // end, a CDATA terminator and raw UTF-8.
  static const char* const kPieces[] = {
      "a", "Z", "7", "x y", " ", "\t", "\n", "<", ">", "&", "\"", "'",
      "]]>", "&amp;", "\xc3\xa9", "--"};
  constexpr int64_t kCount = sizeof(kPieces) / sizeof(kPieces[0]);
  std::string s;
  int64_t n = rng.UniformInt(0, 8);
  for (int64_t i = 0; i < n; ++i) s += kPieces[rng.UniformInt(0, kCount - 1)];
  return s;
}

double RandomDouble(Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0: return rng.Gaussian(0, 1e6);
    case 1:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.UniformInt(1, 1 << 20));
    case 2: {
      static const double kEdges[] = {
          0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::nextafter(DBL_MIN, 0.0)};
      return kEdges[rng.UniformInt(0, 7)];
    }
    default: {
      // Any finite bit pattern.
      double d = 0;
      do {
        uint64_t bits = rng.Next();
        std::memcpy(&d, &bits, sizeof(d));
      } while (!std::isfinite(d));
      return d;
    }
  }
}

ResultSet RandomResultSet(Rng& rng) {
  ResultSet rs;
  int64_t num_cols = rng.UniformInt(0, 4);
  for (int64_t c = 0; c < num_cols; ++c) rs.columns.push_back(RandomString(rng));
  int64_t num_rows = rng.UniformInt(0, 6);
  for (int64_t r = 0; r < num_rows; ++r) {
    Row row;
    for (int64_t c = 0; c < num_cols; ++c) {
      switch (rng.UniformInt(0, 4)) {
        case 0: row.push_back(Value::Null()); break;
        case 1: row.push_back(Value(static_cast<int64_t>(rng.Next()))); break;
        case 2: row.push_back(Value(RandomDouble(rng))); break;
        case 3: row.push_back(Value(rng.NextDouble() < 0.5)); break;
        default: row.push_back(Value(RandomString(rng)));
      }
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

XmlRpcValue RandomValue(Rng& rng, int depth) {
  switch (rng.UniformInt(0, depth >= 3 ? 4 : 7)) {
    case 0: return XmlRpcValue();
    case 1: return XmlRpcValue(static_cast<int64_t>(rng.Next()));
    case 2: return XmlRpcValue(RandomDouble(rng));
    case 3: return XmlRpcValue(rng.NextDouble() < 0.5);
    case 4: return XmlRpcValue(RandomString(rng));
    case 5: {
      XmlRpcArray items;
      int64_t n = rng.UniformInt(0, 4);
      for (int64_t i = 0; i < n; ++i) items.push_back(RandomValue(rng, depth + 1));
      return XmlRpcValue(std::move(items));
    }
    case 6: {
      XmlRpcStruct record;
      int64_t n = rng.UniformInt(0, 4);
      for (int64_t i = 0; i < n; ++i) {
        record[RandomString(rng)] = RandomValue(rng, depth + 1);
      }
      return XmlRpcValue(std::move(record));
    }
    default:
      return ResultSetToRpc(RandomResultSet(rng));
  }
}

/// What the tree oracle decodes `v` to: xml::Parse trims element text,
/// so strings and member names lose surrounding whitespace.
XmlRpcValue Trimmed(const XmlRpcValue& v) {
  if (const ResultSet* rs = v.result_set()) {
    return Trimmed(XmlRpcValue(tree::ResultSetToStruct(*rs)));
  }
  if (v.is_string()) return XmlRpcValue(std::string(Trim(*v.AsString())));
  if (v.is_array()) {
    XmlRpcArray items;
    for (const XmlRpcValue& item : **v.AsArray()) items.push_back(Trimmed(item));
    return XmlRpcValue(std::move(items));
  }
  if (v.is_struct()) {
    XmlRpcStruct record;
    for (const auto& [key, member] : **v.AsStruct()) {
      record[std::string(Trim(key))] = Trimmed(member);
    }
    return XmlRpcValue(std::move(record));
  }
  return v;
}

// ---------- re-serialization in the forms peers send ----------

enum class Form { kCompact, kPretty, kCdata, kCharRefs };
constexpr Form kForms[] = {Form::kCompact, Form::kPretty, Form::kCdata,
                           Form::kCharRefs};

const char* FormName(Form form) {
  switch (form) {
    case Form::kCompact: return "compact";
    case Form::kPretty: return "pretty";
    case Form::kCdata: return "cdata";
    case Form::kCharRefs: return "charrefs";
  }
  return "?";
}

/// Character data for `text` in the CDATA or character-reference form.
std::string StyledText(std::string_view text, Form form) {
  std::string out;
  if (form == Form::kCdata) {
    // "]]>" cannot occur inside a section: split it across two.
    out = "<![CDATA[";
    out += ReplaceAll(text, "]]>", "]]]]><![CDATA[>");
    out += "]]>";
    return out;
  }
  bool hex = false;
  for (unsigned char c : text) {
    if (c >= 0x80) {
      out += static_cast<char>(c);  // raw UTF-8: a reference names a code point
      continue;
    }
    char buf[16];
    std::snprintf(buf, sizeof(buf), hex ? "&#x%X;" : "&#%d;", c);
    out += buf;
    hex = !hex;
  }
  return out;
}

/// <value> in the CDATA form (plus comments between elements) or the
/// character-reference form (plus bare <value>text</value> strings and
/// attributes).
void AppendStyledValue(const XmlRpcValue& v, Form form, std::string* out) {
  if (const ResultSet* rs = v.result_set()) {
    AppendStyledValue(XmlRpcValue(tree::ResultSetToStruct(*rs)), form, out);
    return;
  }
  const char* gap = form == Form::kCdata ? "<!-- gap -->" : "\n ";
  if (v.is_empty()) {
    *out += "<value><nil/></value>";
  } else if (v.is_int()) {
    *out += "<value><int>" + StyledText(std::to_string(*v.AsInt()), form) +
            "</int></value>";
  } else if (v.is_double()) {
    *out += "<value><double>" +
            StyledText(StrFormat("%.17g", *v.AsDouble()), form) +
            "</double></value>";
  } else if (v.is_bool()) {
    *out += *v.AsBool() ? "<value><boolean>1</boolean></value>"
                        : "<value><boolean>0</boolean></value>";
  } else if (v.is_string()) {
    const std::string s = *v.AsString();
    if (form == Form::kCdata) {
      *out += s.empty() ? "<value/>"
                        : "<value><string>" + StyledText(s, form) +
                              "</string></value>";
    } else {
      *out += "<value>" + StyledText(s, form) + "</value>";
    }
  } else if (v.is_array()) {
    *out += form == Form::kCharRefs ? "<value><array><data kind='list'>"
                                    : "<value><array><data>";
    for (const XmlRpcValue& item : **v.AsArray()) {
      *out += gap;
      AppendStyledValue(item, form, out);
    }
    *out += gap;
    *out += "</data></array></value>";
  } else if (v.is_struct()) {
    *out += "<value><struct>";
    for (const auto& [key, member] : **v.AsStruct()) {
      *out += gap;
      *out += "<member><name>" + StyledText(key, form) + "</name>";
      *out += gap;
      AppendStyledValue(member, form, out);
      *out += "</member>";
    }
    *out += "</struct></value>";
  }
}

std::string ResponseIn(const XmlRpcValue& v, Form form) {
  switch (form) {
    case Form::kCompact:
      return EncodeResponse(v);
    case Form::kPretty: {
      xml::Node root("methodResponse");
      xml::Node& param = root.AddChild("params").AddChild("param");
      param.children.push_back(std::make_unique<xml::Node>(tree::ToXml(v)));
      return xml::Write(root);  // pretty, with declaration
    }
    default: {
      std::string out =
          "<?xml version=\"1.0\"?>\n<!DOCTYPE methodResponse>\n"
          "<!-- styled -->\n<methodResponse note=\"a &amp; b\">"
          "<params><param>";
      AppendStyledValue(v, form, &out);
      out += "</param></params></methodResponse>\n";
      return out;
    }
  }
}

std::string RequestIn(const RpcRequest& request, Form form) {
  switch (form) {
    case Form::kCompact:
      return EncodeRequest(request);
    case Form::kPretty: {
      // The oracle's request tree, written by the tree writer's pretty
      // mode (one element per line, indented).
      xml::Node root("methodCall");
      root.AddTextChild("methodName", request.method);
      if (!request.session_token.empty()) {
        root.AddTextChild("sessionToken", request.session_token);
      }
      if (request.trace_id != 0) {
        root.AddTextChild("traceContext",
                          tree::HexU64(request.trace_id) + ":" +
                              tree::HexU64(request.parent_span_id));
      }
      if (request.deadline_ms > 0) {
        root.AddTextChild("deadlineMs", StrFormat("%.17g", request.deadline_ms));
      }
      if (!request.tenant.empty()) root.AddTextChild("tenant", request.tenant);
      if (!request.wire_accept.empty()) {
        root.AddTextChild("wireAccept", request.wire_accept);
      }
      xml::Node& params = root.AddChild("params");
      for (const XmlRpcValue& param : request.params) {
        params.AddChild("param").children.push_back(
            std::make_unique<xml::Node>(tree::ToXml(param)));
      }
      return xml::Write(root);
    }
    default: {
      std::string out = "<methodCall>\n<methodName>" + request.method +
                        "</methodName>\n<params>";
      for (const XmlRpcValue& param : request.params) {
        out += "<param>";
        AppendStyledValue(param, form, &out);
        out += "</param>";
      }
      out += "</params></methodCall>";
      return out;
    }
  }
}

// ---------- decode parity against the tree oracle ----------

TEST(XmlDecodeParityTest, RandomValuesInEveryFormMatchTheTreeOracle) {
  Rng rng(1205);
  for (int trial = 0; trial < 300; ++trial) {
    const XmlRpcValue v = RandomValue(rng, 0);
    const XmlRpcValue trimmed = Trimmed(v);
    for (Form form : kForms) {
      SCOPED_TRACE(std::string(FormName(form)) + " trial " +
                   std::to_string(trial));
      const std::string doc = ResponseIn(v, form);
      auto direct = DecodeResponse(doc);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString() << "\n" << doc;
      EXPECT_TRUE(*direct == v) << doc;
      auto oracle = tree::DecodeResponse(doc);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << "\n" << doc;
      EXPECT_TRUE(*oracle == trimmed) << doc;
    }
  }
}

TEST(XmlDecodeParityTest, RandomRequestsMatchTheTreeOracle) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    RpcRequest request;
    request.method = "dataaccess.m" + std::to_string(trial);
    if (trial % 2 == 0) request.session_token = "sess-" + std::to_string(trial);
    if (trial % 3 == 0) {
      request.trace_id = rng.Next() | 1;
      request.parent_span_id = rng.Next();
    }
    if (trial % 4 == 0) request.deadline_ms = rng.Uniform(0.001, 1e5);
    if (trial % 5 == 0) request.tenant = "tenant-" + std::to_string(trial);
    if (trial % 6 == 0) request.wire_accept = "binary,lz4,stream";
    int64_t n = rng.UniformInt(0, 3);
    for (int64_t i = 0; i < n; ++i) request.params.push_back(RandomValue(rng, 1));

    for (Form form : kForms) {
      SCOPED_TRACE(std::string(FormName(form)) + " trial " +
                   std::to_string(trial));
      const std::string doc = RequestIn(request, form);
      auto direct = DecodeRequest(doc);
      auto oracle = tree::DecodeRequest(doc);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString() << "\n" << doc;
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << "\n" << doc;
      EXPECT_EQ(direct->method, request.method);
      EXPECT_EQ(oracle->method, request.method);
      ASSERT_EQ(direct->params.size(), request.params.size());
      ASSERT_EQ(oracle->params.size(), request.params.size());
      for (size_t i = 0; i < request.params.size(); ++i) {
        EXPECT_TRUE(direct->params[i] == request.params[i]) << doc;
        EXPECT_TRUE(oracle->params[i] == Trimmed(request.params[i])) << doc;
      }
      if (form == Form::kCompact || form == Form::kPretty) {
        for (const RpcRequest* got : {&*direct, &*oracle}) {
          EXPECT_EQ(got->session_token, request.session_token);
          EXPECT_EQ(got->trace_id, request.trace_id);
          EXPECT_EQ(got->parent_span_id, request.parent_span_id);
          EXPECT_EQ(got->deadline_ms, request.deadline_ms);
          EXPECT_EQ(got->tenant, request.tenant);
          EXPECT_EQ(got->wire_accept, request.wire_accept);
        }
      }
    }
  }
}

// ---------- encoder byte identity ----------

TEST(XmlByteIdentityTest, RequestsAndFaultsMatchTheTreeWriter) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    RpcRequest request;
    request.method = trial % 10 == 0 ? "" : RandomString(rng);
    if (trial % 2 == 0) request.session_token = RandomString(rng);
    if (trial % 3 == 0) {
      request.trace_id = rng.Next();
      request.parent_span_id = rng.Next();
    }
    if (trial % 4 == 0) request.deadline_ms = std::fabs(RandomDouble(rng));
    if (trial % 5 == 0) request.tenant = RandomString(rng);
    if (trial % 6 == 0) request.wire_accept = RandomString(rng);
    int64_t n = rng.UniformInt(0, 3);
    for (int64_t i = 0; i < n; ++i) request.params.push_back(RandomValue(rng, 0));
    EXPECT_EQ(EncodeRequest(request), tree::EncodeRequest(request))
        << "trial " << trial;

    const Status fault(static_cast<StatusCode>(rng.UniformInt(1, 10)),
                       RandomString(rng));
    EXPECT_EQ(EncodeFault(fault), tree::EncodeFault(fault)) << "trial " << trial;
  }
}

TEST(XmlByteIdentityTest, ToCharsMatchesPrintfG17) {
  std::vector<double> doubles = {
      0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      0.1, 1e21, 1e-5, 123456789012345678.0, 5e-324, 1.5, 100.0};
  Rng rng(1701);
  for (int i = 0; i < 100000; ++i) {
    uint64_t bits = rng.Next();
    double d = 0;
    std::memcpy(&d, &bits, sizeof(d));
    doubles.push_back(d);
  }
  for (double d : doubles) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    std::string written;
    XmlRpcValue(d).AppendXml(&written);
    ASSERT_EQ(written, std::string("<value><double>") + buf + "</double></value>");
    if (std::isnan(d)) continue;
    // And the reader returns the identical bits, subnormals included.
    auto back = DecodeResponse(EncodeResponse(XmlRpcValue(d)));
    ASSERT_TRUE(back.ok()) << buf << ": " << back.status().ToString();
    double got = *back->AsDouble();
    ASSERT_EQ(std::memcmp(&got, &d, sizeof(d)), 0) << buf;
  }

  std::vector<int64_t> ints = {0, -1, 1, INT64_MIN, INT64_MAX};
  for (int i = 0; i < 10000; ++i) ints.push_back(static_cast<int64_t>(rng.Next()));
  for (int64_t v : ints) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    std::string written;
    XmlRpcValue(v).AppendXml(&written);
    ASSERT_EQ(written, std::string("<value><i4>") + buf + "</i4></value>");
  }
}

// ---------- the accepted and rejected grammar ----------

std::string Wrap(const std::string& value_xml) {
  return "<methodResponse><params><param>" + value_xml +
         "</param></params></methodResponse>";
}

TEST(XmlReaderTest, AcceptsWhatPeersSend) {
  struct Case {
    std::string doc;
    XmlRpcValue want;
  };
  const std::vector<Case> cases = {
      {"<?xml version='1.0' encoding='UTF-8'?>\n"
       "<!DOCTYPE methodResponse>\n<!-- lead -->\n<methodResponse>\n"
       " <params>\n  <param>\n   <value>\n    <i4>7</i4>\n   </value>\n"
       "  </param>\n </params>\n</methodResponse>\n<!-- tail -->\n",
       XmlRpcValue(int64_t{7})},
      {"<!DOCTYPE methodResponse [ <!ELEMENT methodResponse ANY> ]>" +
           Wrap("<value><int>-3</int></value>"),
       XmlRpcValue(int64_t{-3})},
      {"<methodResponse a='1' b=\"&amp;&#65;\"><params><param>"
       "<value  kind = 'x' ><i4 >5</i4 ></value ></param></params>"
       "</methodResponse >",
       XmlRpcValue(int64_t{5})},
      {Wrap("<value/>"), XmlRpcValue(std::string())},
      {Wrap("<value></value>"), XmlRpcValue(std::string())},
      {Wrap("<value>  two words\t</value>"), XmlRpcValue("  two words\t")},
      {Wrap("<value><string> padded </string></value>"),
       XmlRpcValue(" padded ")},
      {Wrap("<value><string><![CDATA[<raw> & ]]></string></value>"),
       XmlRpcValue("<raw> & ")},
      {Wrap("<value><string>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;&#xe9;"
            "&#x1F600;</string></value>"),
       XmlRpcValue("<>&\"'AB\xc3\xa9\xf0\x9f\x98\x80")},
      {Wrap("<value><string>a<!-- x -->b</string></value>"), XmlRpcValue("ab")},
      {Wrap("<value><string/></value>"), XmlRpcValue(std::string())},
      {Wrap("<value><nil/></value>"), XmlRpcValue()},
      {Wrap("<value><nil></nil></value>"), XmlRpcValue()},
      {Wrap("<value><boolean> 1 </boolean></value>"), XmlRpcValue(true)},
      {Wrap("<value><double>+1.5</double></value>"), XmlRpcValue(1.5)},
      {Wrap("<value><double>4.9406564584124654e-324</double></value>"),
       XmlRpcValue(std::numeric_limits<double>::denorm_min())},
      {Wrap("<value><i4> 42 </i4></value>"), XmlRpcValue(int64_t{42})},
      {Wrap("<value><i4>&#52;2</i4></value>"), XmlRpcValue(int64_t{42})},
      {Wrap("<value><array><data/></array></value>"), XmlRpcValue(XmlRpcArray{})},
      {Wrap("<value><struct/></value>"), XmlRpcValue(XmlRpcStruct{})},
      {Wrap("<value><struct><member><name/><value>v</value></member>"
            "</struct></value>"),
       XmlRpcValue(XmlRpcStruct{{"", XmlRpcValue("v")}})},
  };
  for (const Case& c : cases) {
    auto got = DecodeResponse(c.doc);
    ASSERT_TRUE(got.ok()) << c.doc << "\n" << got.status().ToString();
    EXPECT_TRUE(*got == c.want) << c.doc;
  }

  // Request headers are tokens (surrounding whitespace dropped) and
  // unknown header elements from newer peers are skipped whole.
  auto request = DecodeRequest(
      "<methodCall><methodName>\n  system.ping\n</methodName>"
      "<futureHeader level='2'><x>y<z/></x></futureHeader>"
      "<tenant> atlas </tenant><params/></methodCall>");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->method, "system.ping");
  EXPECT_EQ(request->tenant, "atlas");
  EXPECT_TRUE(request->params.empty());
}

TEST(XmlReaderTest, RejectsMalformedDocumentsWithParseError) {
  const std::vector<std::string> bad = {
      Wrap("<value><i4>1</int></value>"),                 // mismatched tag
      "<methodResponse><params><param><value><i4>1</i4>",  // unterminated
      Wrap("<value><string>&bogus;</string></value>"),     // unknown entity
      Wrap("<value><string>&amp</string></value>"),        // unterminated
      Wrap("<value><string>&#0;</string></value>"),        // bad reference
      Wrap("<value><string>&#x110000;</string></value>"),
      Wrap("<value><string>&#-5;</string></value>"),
      Wrap("<value><dateTime.iso8601>x</dateTime.iso8601></value>"),
      Wrap("<value><i4>12x</i4></value>"),                  // bad numbers
      Wrap("<value><i4>99999999999999999999</i4></value>"),
      Wrap("<value><i4></i4></value>"),
      Wrap("<value><double>1e999</double></value>"),
      Wrap("<value><double>0x10</double></value>"),
      Wrap("<value><boolean>2</boolean></value>"),
      Wrap("<value>x<i4>1</i4></value>"),                   // text beside
      Wrap("<value><i4>1</i4>x</value>"),
      Wrap("<value><i4>1</i4><i4>2</i4></value>"),          // two types
      Wrap("<value><nil>x</nil></value>"),
      Wrap("<value><string><b/></string></value>"),
      Wrap("<value><array/></value>"),
      Wrap("<value><array><data>junk</data></array></value>"),
      Wrap("<value><struct><member/></struct></value>"),
      Wrap("<value><struct><member><name>k</name></member></struct></value>"),
      Wrap("<value><struct><value>v</value></struct></value>"),
      Wrap("<value><string><![CDATA[open</string></value>"),
      Wrap("<value><!-- open </value>"),
      "<methodResponse a='<'>" + Wrap("<value/>").substr(16),
      Wrap("<value/>") + "<extra/>",                        // trailing
      Wrap("<value/>") + "text",
      "<methodResponse><params><param><value/></param><param><value/>"
      "</param></params></methodResponse>",
      "<methodResponse><params/></methodResponse>",
      "<methodResponse/>",
      "<methodResponse><fault/></methodResponse>",
      "<methodCall/>",
      "",
      "<?xml version='1.0'?>",
  };
  for (const std::string& doc : bad) {
    auto response = DecodeResponse(doc);
    ASSERT_FALSE(response.ok()) << doc;
    EXPECT_EQ(response.status().code(), StatusCode::kParseError)
        << doc << "\n" << response.status().ToString();
  }
  for (const std::string& doc :
       {std::string("<methodCall><params/></methodCall>"),
        std::string("<methodCall><methodName>m</methodName><params><param/>"
                    "</params></methodCall>"),
        std::string("<methodCall><methodName>m</methodName>"
                    "<traceContext>zz</traceContext></methodCall>"),
        std::string("<methodCall><methodName>m</methodName>"
                    "<deadlineMs>-1</deadlineMs></methodCall>"),
        std::string("<methodCall><methodName>m</methodName></methodCall>"
                    "<methodCall/>"),
        std::string("<methodResponse/>")}) {
    auto request = DecodeRequest(doc);
    ASSERT_FALSE(request.ok()) << doc;
    EXPECT_EQ(request.status().code(), StatusCode::kParseError) << doc;
  }
}

// ---------- nesting depth ----------

std::string NestedArrays(int levels) {
  std::string out;
  out.reserve(static_cast<size_t>(levels) * 44 + 32);
  for (int i = 0; i < levels; ++i) out += "<value><array><data>";
  out += "<value><nil/></value>";
  for (int i = 0; i < levels; ++i) out += "</data></array></value>";
  return out;
}

std::string NestedRequest(int levels) {
  return "<methodCall><methodName>m</methodName><params><param>" +
         NestedArrays(levels) + "</param></params></methodCall>";
}

std::string NestedBinary(int levels) {
  // One array holding nil is [array tag, count 1, nil tag]; nesting
  // repeats the two-byte array header.
  std::string one;
  wire::EncodeValue(XmlRpcValue(XmlRpcArray{XmlRpcValue()}), &one);
  std::string out;
  for (int i = 0; i < levels; ++i) out += one.substr(0, one.size() - 1);
  out += one.back();
  return out;
}

TEST(NestingDepthTest, HundredThousandLevelsFailWithParseError) {
  constexpr int kDeep = 100000;
  auto request = DecodeRequest(NestedRequest(kDeep));
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kParseError)
      << request.status().ToString();

  auto response = DecodeResponse(Wrap(NestedArrays(kDeep)));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kParseError)
      << response.status().ToString();

  std::string binary = NestedBinary(kDeep);
  size_t offset = 0;
  auto value = wire::DecodeValue(binary, &offset);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kParseError)
      << value.status().ToString();

  std::string deep_xml;
  for (int i = 0; i < kDeep; ++i) deep_xml += "<n>";
  for (int i = 0; i < kDeep; ++i) deep_xml += "</n>";
  auto doc = xml::Parse(deep_xml);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);

  // An unknown request header nested that deep is refused too.
  std::string header = "<methodCall><methodName>m</methodName>";
  for (int i = 0; i < kDeep; ++i) header += "<h>";
  for (int i = 0; i < kDeep; ++i) header += "</h>";
  header += "</methodCall>";
  request = DecodeRequest(header);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kParseError);
}

TEST(NestingDepthTest, NestingJustUnderTheCapStillDecodes) {
  const int levels = kMaxNestingDepth - 1;
  auto request = DecodeRequest(NestedRequest(levels));
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  auto response = DecodeResponse(Wrap(NestedArrays(levels)));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(*response == request->params[0]);

  std::string binary = NestedBinary(levels);
  size_t offset = 0;
  auto value = wire::DecodeValue(binary, &offset);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(offset, binary.size());
  EXPECT_TRUE(*value == *response);
}

TEST(NestingDepthTest, DeepRequestBeforeAuthGetsAFaultNotACrash) {
  // The server decodes a request before it checks the session, so this
  // is what an unauthenticated peer can send.
  net::Network network;
  network.AddHost("server-host");
  Transport transport(&network, net::ServiceCosts::Default());
  RpcServer server("clarens://server-host:8080/clarens", &transport);
  const std::string reply =
      server.HandleRaw(NestedRequest(100000), "server-host", nullptr);
  auto decoded = DecodeResponse(reply);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
      << decoded.status().ToString();
}

// ---------- result sets must be rectangular ----------

TEST(RectangularTest, MisshapedRowsInAnXmlReplyAreCorruption) {
  // What a faulty peer can send: rows [1,2], [3,4,99], [5] under a, b.
  auto row = [](std::initializer_list<int64_t> cells) {
    XmlRpcArray out;
    for (int64_t c : cells) out.emplace_back(c);
    return XmlRpcValue(std::move(out));
  };
  XmlRpcStruct probe;
  probe["columns"] = XmlRpcArray{XmlRpcValue("a"), XmlRpcValue("b")};
  probe["rows"] = XmlRpcArray{row({1, 2}), row({3, 4, 99}), row({5})};
  auto decoded = DecodeResponse(EncodeResponse(XmlRpcValue(std::move(probe))));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto rs = RpcToResultSet(*decoded);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kCorruption);
  EXPECT_NE(rs.status().message().find("row 1 has 3 cells for 2 columns"),
            std::string::npos)
      << rs.status().ToString();

  // A lone narrow row is refused the same way. Well-shaped sets cross
  // both codecs unchanged in vectorized_parity_test.
  ResultSet narrow;
  narrow.columns = {"a", "b"};
  narrow.rows.push_back({Value(int64_t{1})});
  auto reply = DecodeResponse(EncodeResponse(ResultSetToRpc(narrow)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto back = RpcToResultSet(*reply);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

// ---------- padded strings and subnormals through a federated query ----------

struct XmlFederationFixture : public ::testing::Test {
  XmlFederationFixture()
      : transport(&network, net::ServiceCosts::Default()),
        db_remote("db_remote", sql::Vendor::kMySql) {
    for (const char* h : {"server-a", "server-b", "rls-host", "client"}) {
      network.AddHost(h);
    }
    rls = std::make_unique<rls::RlsServer>("rls://rls-host:39281/rls",
                                           &transport);
    EXPECT_TRUE(db_remote
                    .Execute("CREATE TABLE PADDED (ID INT PRIMARY KEY, "
                             "S VARCHAR(32), E DOUBLE)")
                    .ok());
    // Leading/trailing spaces, tabs and newlines; subnormal doubles,
    // written as SQL literals (the lexer parses them with ParseDouble).
    for (const char* row : {
             "(1, ' padded ', 4.9406564584124654e-324)",
             "(2, '\tlead', 1e-310)",
             "(3, 'trail\n', -2.2250738585072009e-308)",
             "(4, '  ', 0.5)",
             "(5, '\n\t mixed \t\n', NULL)",
             "(6, '', 2.2250738585072014e-308)",
             "(7, 'plain', -4.9406564584124654e-324)",
         }) {
      auto inserted = db_remote.Execute(
          std::string("INSERT INTO PADDED (ID, S, E) VALUES ") + row);
      EXPECT_TRUE(inserted.ok()) << row << ": " << inserted.status().ToString();
    }
    EXPECT_TRUE(catalog
                    .Add({"mysql://server-b/db_remote", &db_remote, "server-b",
                          "", ""})
                    .ok());
    core::DataAccessConfig config_b;
    config_b.server_name = "jclarens-b";
    config_b.host = "server-b";
    config_b.server_url = "clarens://server-b:8080/clarens";
    config_b.rls_url = "rls://rls-host:39281/rls";
    server_b = std::make_unique<core::JClarensServer>(config_b, &catalog,
                                                      &transport);
    EXPECT_TRUE(server_b->service()
                    .RegisterLiveDatabase("mysql://server-b/db_remote", "")
                    .ok());
  }

  /// A query-only coordinator on `client`; PADDED resolves through the
  /// RLS and is fetched from server-b over `wire_protocol`.
  std::unique_ptr<core::DataAccessService> Coordinator(
      const std::string& wire_protocol) {
    core::DataAccessConfig config;
    config.server_name = "coordinator";
    config.host = "client";
    config.rls_url = "rls://rls-host:39281/rls";
    config.wire_protocol = wire_protocol;
    return std::make_unique<core::DataAccessService>(config, &catalog,
                                                     &transport);
  }

  net::Network network;
  rpc::Transport transport;
  engine::Database db_remote;
  ral::DatabaseCatalog catalog;
  std::unique_ptr<rls::RlsServer> rls;
  std::unique_ptr<core::JClarensServer> server_b;
};

TEST_F(XmlFederationFixture, PaddedStringsAndSubnormalsMatchTheReference) {
  const std::string sql = "SELECT id, s, e FROM padded ORDER BY id";
  auto reference = db_remote.Execute(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), 7u);
  EXPECT_EQ(reference->rows[0][1].AsStringStrict(), " padded ");
  EXPECT_EQ(reference->rows[0][2].AsDoubleStrict(),
            std::numeric_limits<double>::denorm_min());
  for (const char* codec : {"xmlrpc", "binary"}) {
    SCOPED_TRACE(codec);
    auto rs = Coordinator(codec)->Query(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->columns, reference->columns);
    EXPECT_EQ(rs->rows, reference->rows);
  }
}

TEST_F(XmlFederationFixture, MisshapedReplyFailsOverOrFailsAsCorruption) {
  // A peer whose dataaccess.query answer has a row narrower than its
  // column list. Its URL sorts before server-b's, so it is tried first.
  const std::string rogue_url = "clarens://rogue:8080/clarens";
  network.AddHost("rogue");
  RpcServer rogue(rogue_url, &transport);
  (void)rogue.RegisterMethod(
      "dataaccess.query",
      [](const XmlRpcArray&, CallContext&) -> Result<XmlRpcValue> {
        ResultSet rs;
        rs.columns = {"ID", "S", "E"};
        rs.rows.push_back({Value(int64_t{1}), Value("x"), Value(0.5)});
        rs.rows.push_back({Value(int64_t{2}), Value("y")});
        XmlRpcStruct out;
        out["result"] = ResultSetToRpc(std::move(rs));
        return XmlRpcValue(std::move(out));
      });
  ASSERT_TRUE(rls->Publish("padded", rogue_url).ok());

  const std::string sql = "SELECT id, s, e FROM padded ORDER BY id";
  auto reference = db_remote.Execute(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const char* codec : {"xmlrpc", "binary"}) {
    SCOPED_TRACE(codec);
    core::QueryStats stats;
    auto rs = Coordinator(codec)->Query(sql, &stats);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->columns, reference->columns);
    EXPECT_EQ(rs->rows, reference->rows);
    EXPECT_EQ(stats.failovers, 1u);
  }

  // With the healthy replica gone there is nothing to fail over to.
  ASSERT_TRUE(
      rls->Unpublish("padded", "clarens://server-b:8080/clarens").ok());
  for (const char* codec : {"xmlrpc", "binary"}) {
    SCOPED_TRACE(codec);
    auto rs = Coordinator(codec)->Query(sql);
    ASSERT_FALSE(rs.ok());
    EXPECT_EQ(rs.status().code(), StatusCode::kCorruption)
        << rs.status().ToString();
  }
}

TEST(XmlWhitespaceTest, PaddedColumnNamesAndCellsCrossTheRpcLayerExactly) {
  // Column names are plain strings on the XML wire too.
  net::Network network;
  network.AddHost("server-host");
  network.AddHost("client-host");
  Transport transport(&network, net::ServiceCosts::Default());
  RpcServer server("clarens://server-host:8080/clarens", &transport);
  ResultSet padded;
  padded.columns = {" c", "d\t", "\nboth "};
  padded.rows.push_back({Value(" x "), Value("\t"), Value("\n\ny\n")});
  padded.rows.push_back({Value(""), Value(" "), Value::Null()});
  (void)server.RegisterMethod(
      "data.padded", [&padded](const XmlRpcArray&, CallContext&)
                         -> Result<XmlRpcValue> { return ResultSetToRpc(padded); });
  for (uint32_t preference : {0u, uint32_t{wire::kAllCaps}}) {
    RpcClient client(&transport, "client-host",
                     "clarens://server-host:8080/clarens");
    client.set_wire_preference(preference);
    auto response = client.Call("data.padded", {}, nullptr);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto rs = RpcToResultSet(*response);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->columns, padded.columns) << "preference " << preference;
    EXPECT_EQ(rs->rows, padded.rows) << "preference " << preference;
  }
}

}  // namespace
}  // namespace griddb::rpc
