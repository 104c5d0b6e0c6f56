// Robustness: hostile and randomized inputs must produce a Status, never
// a crash, hang or assertion — the web-service interface is exposed to
// arbitrary clients ("all kinds of (simple and) complex clients", §1).
#include <gtest/gtest.h>

#include "griddb/engine/database.h"
#include "griddb/rpc/wire.h"
#include "griddb/rpc/xmlrpc_value.h"
#include "griddb/sql/parser.h"
#include "griddb/unity/xspec.h"
#include "griddb/util/rng.h"
#include "griddb/xml/xml.h"

namespace griddb {
namespace {

// ---------- SQL parser under token soup ----------

TEST(ParserRobustnessTest, RandomTokenSoupNeverCrashes) {
  const char* fragments[] = {
      "SELECT", "FROM",  "WHERE", "JOIN",  "ON",    "GROUP",  "BY",
      "ORDER",  "LIMIT", "AND",   "OR",    "NOT",   "IN",     "BETWEEN",
      "LIKE",   "IS",    "NULL",  "CASE",  "WHEN",  "THEN",   "END",
      "t",      "a",     "b",     "42",    "3.5",   "'str'",  "(",
      ")",      ",",     ".",     "*",     "=",     "<>",     "<",
      ">",      "+",     "-",     "/",     "%",     "||",     ";",
      "\"q\"",  "`q`",   "[q]",   "AS",    "COUNT", "DISTINCT"};
  Rng rng(4242);
  const sql::Dialect& dialect = sql::Dialect::For(sql::Vendor::kSqlite);
  int parsed_ok = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::string soup;
    int length = static_cast<int>(rng.UniformInt(1, 24));
    for (int i = 0; i < length; ++i) {
      soup += fragments[rng.UniformInt(
          0, static_cast<int64_t>(std::size(fragments)) - 1)];
      soup += ' ';
    }
    auto result = sql::ParseStatement(soup, dialect);
    if (result.ok()) ++parsed_ok;  // rare but legitimate
  }
  // The point is reaching this line; a handful of soups happen to be SQL.
  SUCCEED() << parsed_ok << " random soups were valid SQL";
}

TEST(ParserRobustnessTest, PathologicalInputs) {
  const sql::Dialect& dialect = sql::Dialect::For(sql::Vendor::kSqlite);
  // Deep parenthesis nesting parses (recursion bounded by input length).
  std::string deep = "SELECT ";
  for (int i = 0; i < 200; ++i) deep += "(";
  deep += "1";
  for (int i = 0; i < 200; ++i) deep += ")";
  deep += " FROM t";
  EXPECT_TRUE(sql::ParseSelect(deep, dialect).ok());

  for (const char* evil : {
           "", ";", ";;;", "SELECT", "SELECT FROM", "SELECT * FROM",
           "SELECT * FROM t WHERE", "SELECT * FROM t GROUP BY",
           "SELECT * FROM t ORDER", "INSERT INTO", "CREATE TABLE t",
           "CREATE TABLE t ()", "SELECT (((", "SELECT ) FROM t",
           "SELECT 'unterminated FROM t", "SELECT \x01\x02 FROM t",
           "SELECT a FROM t WHERE a = ", "SELECT a b c d e FROM t",
       }) {
    auto result = sql::ParseStatement(evil, dialect);
    EXPECT_FALSE(result.ok()) << "accepted: " << evil;
  }
}

TEST(ParserRobustnessTest, RandomBytesNeverCrashLexer) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes;
    int length = static_cast<int>(rng.UniformInt(0, 64));
    for (int i = 0; i < length; ++i) {
      bytes += static_cast<char>(rng.UniformInt(1, 255));
    }
    (void)sql::Tokenize(bytes);  // must return, ok or error
  }
  SUCCEED();
}

// ---------- XML parser under random bytes ----------

TEST(XmlRobustnessTest, RandomBytesNeverCrash) {
  Rng rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes;
    int length = static_cast<int>(rng.UniformInt(0, 96));
    for (int i = 0; i < length; ++i) {
      // Bias toward XML-ish characters to reach deeper parser states.
      int c = static_cast<int>(rng.UniformInt(0, 9));
      switch (c) {
        case 0: bytes += '<'; break;
        case 1: bytes += '>'; break;
        case 2: bytes += '/'; break;
        case 3: bytes += '"'; break;
        case 4: bytes += '&'; break;
        case 5: bytes += '='; break;
        default: bytes += static_cast<char>('a' + rng.UniformInt(0, 25));
      }
    }
    (void)xml::Parse(bytes);
  }
  SUCCEED();
}

TEST(XmlRobustnessTest, DeepNestingParses) {
  std::string deep;
  for (int i = 0; i < 300; ++i) deep += "<n>";
  deep += "x";
  for (int i = 0; i < 300; ++i) deep += "</n>";
  auto result = xml::Parse(deep);
  EXPECT_TRUE(result.ok());
}

// ---------- XML-RPC decoding of hostile documents ----------

TEST(RpcRobustnessTest, HostileRpcDocumentsRejectedCleanly) {
  for (const char* evil : {
           "<methodResponse/>",
           "<methodResponse><params/></methodResponse>",
           "<methodResponse><params><param/></params></methodResponse>",
           "<methodResponse><fault/></methodResponse>",
           "<methodCall/>",
           "<methodCall><methodName></methodName></methodCall>",
           "<wrong/>",
           "<methodCall><methodName>x</methodName><params><param>"
           "<value><i4>notanint</i4></value></param></params></methodCall>",
           "<methodCall><methodName>x</methodName><params><param>"
           "<value><array/></value></param></params></methodCall>",
           "<methodCall><methodName>x</methodName><params><param>"
           "<value><struct><member/></struct></value></param></params>"
           "</methodCall>",
       }) {
    // One of request/response decoding must reject it; neither crashes.
    auto request = rpc::DecodeRequest(evil);
    auto response = rpc::DecodeResponse(evil);
    EXPECT_TRUE(!request.ok() || !response.ok()) << evil;
  }
}

// ---------- XML-RPC decoding of mutated messages ----------

/// Applies 1-4 random edits: byte flips, inserted XML-ish tokens, deleted
/// and duplicated ranges, truncation.
std::string Mutate(Rng& rng, std::string doc) {
  static const char* const kTokens[] = {
      "<", ">", "/", "</", "/>", "&", ";", "&amp;", "&#", "&#x41;", "&#0;",
      "<![CDATA[", "]]>", "<!--", "-->", "<value>", "</value>", "<value/>",
      "<array><data>", "</data></array>", "<struct>", "<member>", "<name>",
      "<i4>", "</i4>", "<double>", "<string>", "'", "\"", "=", " ", "\n"};
  constexpr int64_t kTokenCount = sizeof(kTokens) / sizeof(kTokens[0]);
  int64_t edits = rng.UniformInt(1, 4);
  for (int64_t e = 0; e < edits && !doc.empty(); ++e) {
    size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(doc.size()) - 1));
    switch (rng.UniformInt(0, 4)) {
      case 0:
        doc[at] = static_cast<char>(rng.UniformInt(0, 255));
        break;
      case 1:
        doc.insert(at, kTokens[rng.UniformInt(0, kTokenCount - 1)]);
        break;
      case 2:
        doc.erase(at, static_cast<size_t>(rng.UniformInt(1, 16)));
        break;
      case 3: {
        size_t from = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(doc.size()) - 1));
        doc.insert(at, doc.substr(from, static_cast<size_t>(
                                            rng.UniformInt(1, 64))));
        break;
      }
      default:
        doc.resize(at);
    }
  }
  return doc;
}

/// Every result set a decoder hands back is rectangular: a native one
/// (binary codec) as decoded, a struct{columns,rows} one (XML codec)
/// whenever RpcToResultSet accepts it.
void ExpectRectangular(const rpc::XmlRpcValue& value, int trial) {
  auto check = [trial](const storage::ResultSet& rs) {
    for (const storage::Row& row : rs.rows) {
      EXPECT_EQ(row.size(), rs.columns.size()) << "trial " << trial;
    }
  };
  if (const storage::ResultSet* native = value.result_set()) {
    check(*native);
  } else if (value.is_array()) {
    for (const rpc::XmlRpcValue& item : *value.AsArray().value()) {
      ExpectRectangular(item, trial);
    }
  } else if (value.is_struct()) {
    auto boxed = rpc::RpcToResultSet(value);
    if (boxed.ok()) check(*boxed);
    for (const auto& [key, member] : *value.AsStruct().value()) {
      (void)key;
      ExpectRectangular(member, trial);
    }
  }
}

TEST(RpcRobustnessTest, MutatedMessagesDecodeOrFailCleanly) {
  storage::ResultSet rs;
  rs.columns = {"id", "e", "tag", " padded "};
  rs.rows.push_back({storage::Value(int64_t{-7}), storage::Value(0.1),
                     storage::Value("a<b & 'c'"), storage::Value::Null()});
  rs.rows.push_back({storage::Value(int64_t{9}), storage::Value(4.9e-324),
                     storage::Value(true), storage::Value("\tx\n")});
  rpc::XmlRpcStruct envelope;
  envelope["result"] = rpc::ResultSetToRpc(rs);
  envelope["nested"] = rpc::XmlRpcArray{
      rpc::XmlRpcValue(rpc::XmlRpcStruct{{"k", rpc::XmlRpcValue("v")}}),
      rpc::XmlRpcValue(rpc::XmlRpcArray{}), rpc::XmlRpcValue(false)};
  const rpc::XmlRpcValue value(std::move(envelope));

  rpc::RpcRequest request;
  request.method = "dataaccess.query";
  request.session_token = "sess-1";
  request.trace_id = 0xabc;
  request.parent_span_id = 0xdef;
  request.deadline_ms = 250.5;
  request.tenant = "atlas";
  request.params = {rpc::XmlRpcValue("SELECT 1"), value};

  const std::string seeds[] = {rpc::EncodeRequest(request),
                               rpc::EncodeResponse(value),
                               rpc::EncodeFault(NotFound("no table <t>"))};
  Rng rng(2718);
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t seed = static_cast<size_t>(trial % 3);
    const std::string doc = Mutate(rng, seeds[seed]);
    // Whatever the reader accepts must re-encode to a fixed point; what
    // it refuses is a ParseError (or, for a fault, the carried status).
    auto decoded_request = rpc::DecodeRequest(doc);
    if (decoded_request.ok()) {
      ++accepted;
      for (const rpc::XmlRpcValue& param : decoded_request->params) {
        ExpectRectangular(param, trial);
      }
      const std::string once = rpc::EncodeRequest(*decoded_request);
      auto again = rpc::DecodeRequest(once);
      ASSERT_TRUE(again.ok()) << doc;
      EXPECT_EQ(rpc::EncodeRequest(*again), once) << doc;
    } else {
      EXPECT_EQ(decoded_request.status().code(), StatusCode::kParseError)
          << doc;
    }
    auto decoded_response = rpc::DecodeResponse(doc);
    if (decoded_response.ok()) {
      ++accepted;
      ExpectRectangular(*decoded_response, trial);
      const std::string once = rpc::EncodeResponse(*decoded_response);
      auto again = rpc::DecodeResponse(once);
      ASSERT_TRUE(again.ok()) << doc;
      EXPECT_EQ(rpc::EncodeResponse(*again), once) << doc;
    } else if (seed != 2) {
      EXPECT_EQ(decoded_response.status().code(), StatusCode::kParseError)
          << doc;
    }
  }
  // Some mutations (inside string content, say) leave a valid message.
  EXPECT_GT(accepted, 0);
}

// ---------- binary values below the frame digest ----------

TEST(RpcRobustnessTest, MutatedBinaryResultSetsDecodeRectangularOrFail) {
  // The frame digest catches transit damage, so these mutations model a
  // peer that sends a well-framed but malformed payload. Columns cover
  // every columnar representation: int64, double, bool and string with
  // and without nulls, mixed cell types and all-null.
  storage::ResultSet wide;
  wide.columns = {"i", "d", "b", "s", "mixed", "nulls"};
  for (int r = 0; r < 20; ++r) {
    storage::Row row;
    row.push_back(r % 5 == 0 ? storage::Value::Null()
                             : storage::Value(int64_t{r * 1000 - 7}));
    row.push_back(storage::Value(0.25 * r));
    row.push_back(r % 7 == 0 ? storage::Value::Null()
                             : storage::Value(r % 2 == 0));
    row.push_back(storage::Value(std::string(static_cast<size_t>(r % 4), 'x')));
    row.push_back(r % 2 == 0 ? storage::Value(int64_t{r})
                             : storage::Value("c" + std::to_string(r)));
    row.push_back(storage::Value::Null());
    wide.rows.push_back(std::move(row));
  }
  storage::ResultSet empty;
  empty.columns = {"only"};
  rpc::XmlRpcStruct envelope;
  envelope["result"] = rpc::ResultSetToRpc(wide);
  envelope["rows"] = int64_t{20};
  const rpc::XmlRpcValue seeds_values[] = {
      rpc::ResultSetToRpc(wide),
      rpc::XmlRpcValue(std::move(envelope)),
      rpc::XmlRpcArray{rpc::ResultSetToRpc(empty), rpc::ResultSetToRpc(wide)},
  };
  std::vector<std::string> seeds;
  for (const rpc::XmlRpcValue& v : seeds_values) {
    std::string bytes;
    rpc::wire::EncodeValue(v, &bytes);
    seeds.push_back(std::move(bytes));
  }

  Rng rng(1618);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string doc = Mutate(rng, seeds[trial % seeds.size()]);
    size_t offset = 0;
    auto decoded = rpc::wire::DecodeValue(doc, &offset);
    if (decoded.ok()) {
      ++accepted;
      ExpectRectangular(*decoded, trial);
    } else {
      ++rejected;
      StatusCode code = decoded.status().code();
      EXPECT_TRUE(code == StatusCode::kCorruption ||
                  code == StatusCode::kParseError)
          << "trial " << trial << ": " << decoded.status().ToString();
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// ---------- XSpec documents ----------

TEST(XSpecRobustnessTest, HostileXSpecsRejected) {
  for (const char* evil : {
           "<xspec/>",  // missing database attribute
           "<xspec database='d'><table/></xspec>",  // table without name
           "<xspec database='d'><table name='t'>"
           "<column type='integer'/></table></xspec>",  // column w/o name
           "<xspec database='d'><table name='t'>"
           "<column name='c' type='quux'/></table></xspec>",  // bad type
           "<upperXSpec><database/></upperXSpec>",  // entry w/o name/url
       }) {
    bool lower_ok = unity::LowerXSpec::FromXml(evil).ok();
    bool upper_ok = unity::UpperXSpec::FromXml(evil).ok();
    EXPECT_FALSE(lower_ok && upper_ok) << evil;
    if (std::string(evil).find("upperXSpec") == std::string::npos) {
      EXPECT_FALSE(lower_ok) << evil;
    } else {
      EXPECT_FALSE(upper_ok) << evil;
    }
  }
}

// ---------- engine under adversarial statements ----------

TEST(EngineRobustnessTest, AdversarialStatementsReturnStatus) {
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, s TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t (a, s) VALUES (1, 'x')").ok());
  for (const char* evil : {
           "SELECT a FROM t WHERE s > 5 AND UPPER(a) = 1",  // type mix is OK
           "SELECT SUM(s) FROM t",               // SUM over strings
           "SELECT COUNT(*) FROM t GROUP BY nonexistent",
           "SELECT a, COUNT(*) FROM t",          // mixed agg/non-agg: lenient
           "INSERT INTO t (a, s) VALUES (UPPER('x'))",  // arity mismatch
           "UPDATE t SET nonexistent = 1",
           "DELETE FROM nonexistent",
           "SELECT ghost.a FROM t",
       }) {
    auto result = db.Execute(evil);
    (void)result;  // ok or clean error; must not crash
  }
  // The table is still intact and queryable afterwards.
  auto rs = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt64Strict(), 1);
}

}  // namespace
}  // namespace griddb
