#include <gtest/gtest.h>

#include "bench/xmlrpc_tree_oracle.h"
#include "griddb/rpc/server.h"
#include "griddb/rpc/xmlrpc_value.h"

namespace griddb::rpc {
namespace {

// ---------- values & codec ----------

TEST(XmlRpcValueTest, ScalarRoundTrip) {
  for (const XmlRpcValue& original :
       {XmlRpcValue(int64_t{-42}), XmlRpcValue(3.25), XmlRpcValue(true),
        XmlRpcValue(false), XmlRpcValue("hello <world> & 'friends'"),
        XmlRpcValue()}) {
    auto node = bench::xmlrpc_tree::ToXml(original);
    auto decoded = bench::xmlrpc_tree::FromXml(node);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == original);
    // The one-pass codec round-trips the same values.
    auto direct = DecodeResponse(EncodeResponse(original));
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_TRUE(*direct == original);
  }
}

TEST(XmlRpcValueTest, NestedArrayAndStruct) {
  XmlRpcStruct inner;
  inner["count"] = int64_t{3};
  inner["ratio"] = 0.5;
  XmlRpcArray array;
  array.emplace_back("first");
  array.emplace_back(std::move(inner));
  XmlRpcValue original((XmlRpcArray(std::move(array))));

  auto decoded =
      bench::xmlrpc_tree::FromXml(bench::xmlrpc_tree::ToXml(original));
  ASSERT_TRUE(decoded.ok());
  const XmlRpcArray* items = decoded->AsArray().value();
  ASSERT_EQ(items->size(), 2u);
  EXPECT_EQ((*items)[0].AsString().value(), "first");
  EXPECT_EQ((*items)[1].Member("count").value()->AsInt().value(), 3);

  auto direct = DecodeResponse(EncodeResponse(original));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_TRUE(*direct == original);
}

TEST(XmlRpcValueTest, TypeAccessorsEnforce) {
  XmlRpcValue v(int64_t{1});
  EXPECT_TRUE(v.AsInt().ok());
  EXPECT_TRUE(v.AsDouble().ok());  // int widens
  EXPECT_FALSE(v.AsString().ok());
  EXPECT_FALSE(v.AsArray().ok());
  EXPECT_FALSE(XmlRpcValue(2.5).AsInt().ok());
}

TEST(XmlRpcValueTest, RequestCodecRoundTrip) {
  RpcRequest request;
  request.method = "dataaccess.query";
  request.session_token = "sess-1-admin";
  request.params.emplace_back("SELECT * FROM events");
  request.params.emplace_back(int64_t{10});

  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->method, "dataaccess.query");
  EXPECT_EQ(decoded->session_token, "sess-1-admin");
  ASSERT_EQ(decoded->params.size(), 2u);
  EXPECT_EQ(decoded->params[0].AsString().value(), "SELECT * FROM events");
}

TEST(XmlRpcValueTest, ResponseCodecSuccessAndFault) {
  auto ok = DecodeResponse(EncodeResponse(XmlRpcValue(int64_t{7})));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->AsInt().value(), 7);

  auto fault = DecodeResponse(EncodeFault(NotFound("no such table")));
  ASSERT_FALSE(fault.ok());
  EXPECT_EQ(fault.status().code(), StatusCode::kNotFound);
  EXPECT_NE(fault.status().message().find("no such table"), std::string::npos);
}

TEST(XmlRpcValueTest, ResultSetRoundTrip) {
  storage::ResultSet rs;
  rs.columns = {"id", "energy", "tag", "flag"};
  rs.rows = {{storage::Value(int64_t{1}), storage::Value(12.5),
              storage::Value("muon"), storage::Value(true)},
             {storage::Value(int64_t{2}), storage::Value::Null(),
              storage::Value::Null(), storage::Value(false)}};
  auto round = RpcToResultSet(ResultSetToRpc(rs));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->columns, rs.columns);
  ASSERT_EQ(round->rows.size(), 2u);
  EXPECT_EQ(round->rows[0][2].AsStringStrict(), "muon");
  EXPECT_TRUE(round->rows[1][1].is_null());
}

// ---------- URL ----------

TEST(UrlTest, ParseForms) {
  auto url = Url::Parse("clarens://cern-tier1:8443/clarens/service");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->scheme, "clarens");
  EXPECT_EQ(url->host, "cern-tier1");
  EXPECT_EQ(url->port, 8443);
  EXPECT_EQ(url->path, "/clarens/service");

  auto defaults = Url::Parse("http://host");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->port, 8080);
  EXPECT_EQ(defaults->path, "/");

  EXPECT_FALSE(Url::Parse("no-scheme").ok());
  EXPECT_FALSE(Url::Parse("http://").ok());
  EXPECT_FALSE(Url::Parse("http://host:notaport/x").ok());
}

// ---------- server/client ----------

struct RpcFixture : public ::testing::Test {
  RpcFixture()
      : transport(&network, net::ServiceCosts::Default()),
        server("clarens://server-host:8080/clarens", &transport) {
    network.AddHost("server-host");
    network.AddHost("client-host");
    (void)server.RegisterMethod(
        "math.add",
        [](const XmlRpcArray& params, CallContext& ctx) -> Result<XmlRpcValue> {
          ctx.cost.AddMs(1.0);
          int64_t total = 0;
          for (const XmlRpcValue& p : params) {
            GRIDDB_ASSIGN_OR_RETURN(int64_t v, p.AsInt());
            total += v;
          }
          return XmlRpcValue(total);
        });
    (void)server.RegisterMethod(
        "who.am.i",
        [](const XmlRpcArray&, CallContext& ctx) -> Result<XmlRpcValue> {
          return XmlRpcValue(ctx.authenticated_user);
        });
  }

  net::Network network;
  Transport transport;
  RpcServer server;
};

TEST_F(RpcFixture, BasicCall) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  XmlRpcArray params;
  params.emplace_back(int64_t{2});
  params.emplace_back(int64_t{3});
  auto result = client.Call("math.add", std::move(params), nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->AsInt().value(), 5);
}

TEST_F(RpcFixture, UnknownMethodFaults) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  auto result = client.Call("no.such.method", {}, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(RpcFixture, UnresolvedEndpointIsUnavailable) {
  RpcClient client(&transport, "client-host", "clarens://ghost:8080/x");
  auto result = client.Call("math.add", {}, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(RpcFixture, ConnectCostChargedOncePerConnection) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  net::Cost first, second;
  ASSERT_TRUE(client.Call("math.add", {}, &first).ok());
  ASSERT_TRUE(client.Call("math.add", {}, &second).ok());
  const double connect = transport.costs().connect_auth_ms;
  EXPECT_GT(first.total_ms(), connect);
  EXPECT_LT(second.total_ms(), connect);  // connection reused
  EXPECT_GT(second.total_ms(), 0.0);      // still pays transfer + handler
}

TEST_F(RpcFixture, ServerSideCostFlowsToCaller) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  ASSERT_TRUE(client.Connect(nullptr).ok());
  net::Cost cost;
  ASSERT_TRUE(client.Call("math.add", {}, &cost).ok());
  // handler adds 1.0, server parse adds query_parse_ms.
  EXPECT_GE(cost.total_ms(), 1.0 + transport.costs().query_parse_ms);
}

TEST_F(RpcFixture, AuthRequiredRejectsAnonymous) {
  server.AddUser("cms", "secret");
  RpcClient anonymous(&transport, "client-host",
                      "clarens://server-host:8080/clarens");
  auto result = anonymous.Call("math.add", {}, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(RpcFixture, AuthSucceedsWithCredentials) {
  server.AddUser("cms", "secret");
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens", "cms", "secret");
  auto result = client.Call("who.am.i", {}, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->AsString().value(), "cms");
}

TEST_F(RpcFixture, WrongPasswordRejected) {
  server.AddUser("cms", "secret");
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens", "cms", "wrong");
  auto result = client.Call("who.am.i", {}, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(RpcFixture, SystemListMethods) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  auto result = client.Call("system.listMethods", {}, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->AsArray().value()->size(), 2u);
}

TEST_F(RpcFixture, DuplicateMethodRegistrationFails) {
  Status dup = server.RegisterMethod(
      "math.add", [](const XmlRpcArray&, CallContext&) -> Result<XmlRpcValue> {
        return XmlRpcValue();
      });
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST_F(RpcFixture, DuplicateBindRejected) {
  net::Cost cost;
  // Binding a second server at the same URL logs and leaves the first.
  RpcServer other("clarens://server-host:8080/clarens", &transport);
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  auto result = client.Call("math.add", {}, &cost);
  EXPECT_TRUE(result.ok());  // original server still serves
}

TEST_F(RpcFixture, LargerPayloadCostsMore) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  ASSERT_TRUE(client.Connect(nullptr).ok());
  net::Cost small, large;
  XmlRpcArray one;
  one.emplace_back(int64_t{1});
  ASSERT_TRUE(client.Call("math.add", std::move(one), &small).ok());
  XmlRpcArray many;
  for (int i = 0; i < 500; ++i) many.emplace_back(int64_t{i});
  ASSERT_TRUE(client.Call("math.add", std::move(many), &large).ok());
  EXPECT_GT(large.total_ms(), small.total_ms());
}

}  // namespace
}  // namespace griddb::rpc
