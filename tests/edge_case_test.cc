// Edge cases across modules that the per-module suites don't reach:
// empty inputs, boundary limits, defaulting behaviour, view-on-view
// stacking, RPC URL normalization, stats round-trips, tracker bookkeeping.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "bench/xmlrpc_tree_oracle.h"
#include "griddb/core/jclarens_server.h"
#include "griddb/core/schema_tracker.h"
#include "griddb/warehouse/etl.h"

namespace griddb {
namespace {

using storage::DataType;
using storage::Value;

// ---------- engine edges ----------

TEST(EngineEdgeTest, ViewsStackOnViews) {
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO t (a, b) VALUES (1, 10), (2, 20), (3, 30)")
          .ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW v1 AS SELECT a, b FROM t WHERE a > 1")
                  .ok());
  ASSERT_TRUE(
      db.Execute("CREATE VIEW v2 AS SELECT b FROM v1 WHERE b < 30").ok());
  auto rs = db.Execute("SELECT * FROM v2");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt64Strict(), 20);
}

TEST(EngineEdgeTest, DropViewThenRecreate) {
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW v AS SELECT a FROM t").ok());
  ASSERT_TRUE(db.Execute("DROP VIEW v").ok());
  EXPECT_FALSE(db.HasView("v"));
  ASSERT_TRUE(db.Execute("CREATE VIEW v AS SELECT a + 1 FROM t").ok());
}

TEST(EngineEdgeTest, InsertPartialColumnsDefaultsToNull) {
  engine::Database db("d", sql::Vendor::kMySql);
  ASSERT_TRUE(
      db.Execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(8), c DOUBLE)")
          .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t (a) VALUES (1)").ok());
  auto rs = db.Execute("SELECT a, b, c FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows[0][1].is_null());
  EXPECT_TRUE(rs->rows[0][2].is_null());
}

TEST(EngineEdgeTest, InsertCoercesIntLiteralIntoDoubleColumn) {
  engine::Database db("d", sql::Vendor::kMySql);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x DOUBLE)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t (x) VALUES (7)").ok());
  auto rs = db.Execute("SELECT x FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].type(), DataType::kDouble);
}

TEST(EngineEdgeTest, LimitZeroAndOffsetPastEnd) {
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t (a) VALUES (1), (2)").ok());
  EXPECT_EQ(db.Execute("SELECT a FROM t LIMIT 0")->num_rows(), 0u);
  EXPECT_EQ(db.Execute("SELECT a FROM t LIMIT 5 OFFSET 10")->num_rows(), 0u);
}

TEST(EngineEdgeTest, HavingWithoutGroupOrAggregateRejected) {
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_EQ(db.Execute("SELECT a FROM t HAVING a > 1").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineEdgeTest, GroupByExpressionKeys) {
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO t (a) VALUES (1), (2), (3), (4), (5)").ok());
  auto rs = db.Execute(
      "SELECT a % 2 AS parity, COUNT(*) FROM t GROUP BY a % 2 "
      "ORDER BY parity");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->rows[0][1].AsInt64Strict(), 2);  // evens: 2, 4
  EXPECT_EQ(rs->rows[1][1].AsInt64Strict(), 3);  // odds: 1, 3, 5
}

TEST(EngineEdgeTest, NullsGroupTogether) {
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a VARCHAR(4))").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO t (a) VALUES (NULL), (NULL), ('x')").ok());
  auto rs = db.Execute("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_TRUE(rs->rows[0][0].is_null());  // NULL sorts first
  EXPECT_EQ(rs->rows[0][1].AsInt64Strict(), 2);
}

TEST(EngineEdgeTest, EmptyTableAggregatesAndJoins) {
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE empty1 (a INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE empty2 (a INT)").ok());
  auto agg = db.Execute("SELECT COUNT(*), MAX(a) FROM empty1");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->rows[0][0].AsInt64Strict(), 0);
  EXPECT_TRUE(agg->rows[0][1].is_null());
  auto join = db.Execute(
      "SELECT e1.a FROM empty1 e1 JOIN empty2 e2 ON e1.a = e2.a");
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->num_rows(), 0u);
}

TEST(EngineEdgeTest, ViewsAreReadOnly) {
  // Paper 4.2: views exist "to provide read-only access for scientific
  // analysis"; every DML form against a view is rejected explicitly.
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t (a) VALUES (1)").ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW v AS SELECT a FROM t").ok());
  for (const char* dml :
       {"INSERT INTO v (a) VALUES (2)", "UPDATE v SET a = 3",
        "DELETE FROM v"}) {
    auto result = db.Execute(dml);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << dml;
    EXPECT_NE(result.status().message().find("read-only view"),
              std::string::npos)
        << dml;
  }
  EXPECT_EQ(db.RowCount("t"), 1u);
}

TEST(EngineEdgeTest, ExtendedScalarFunctions) {
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (s VARCHAR(32), x DOUBLE)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO t (s, x) VALUES ('  padded  ', -4.0)").ok());
  auto rs = db.Execute(
      "SELECT TRIM(s), LTRIM(s), RTRIM(s), REPLACE(s, 'pad', 'POD'), "
      "INSTR(s, 'pad'), SIGN(x), EXP(0), LN(1), NULLIF(1, 1), "
      "IFNULL(NULL, 42) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  const auto& row = rs->rows[0];
  EXPECT_EQ(row[0].AsStringStrict(), "padded");
  EXPECT_EQ(row[1].AsStringStrict(), "padded  ");
  EXPECT_EQ(row[2].AsStringStrict(), "  padded");
  EXPECT_EQ(row[3].AsStringStrict(), "  PODded  ");
  EXPECT_EQ(row[4].AsInt64Strict(), 3);
  EXPECT_EQ(row[5].AsInt64Strict(), -1);
  EXPECT_DOUBLE_EQ(row[6].AsDoubleStrict(), 1.0);
  EXPECT_DOUBLE_EQ(row[7].AsDoubleStrict(), 0.0);
  EXPECT_TRUE(row[8].is_null());
  EXPECT_EQ(row[9].AsInt64Strict(), 42);
}

TEST(EngineEdgeTest, LogOfNonPositiveIsNull) {
  engine::Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x DOUBLE)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t (x) VALUES (0.0)").ok());
  auto rs = db.Execute("SELECT LN(x), LOG(-1.0) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows[0][0].is_null());
  EXPECT_TRUE(rs->rows[0][1].is_null());
}

// ---------- rpc edges ----------

TEST(RpcEdgeTest, UrlNormalizationMatchesVariants) {
  net::Network network;
  network.AddHost("h");
  rpc::Transport transport(&network, net::ServiceCosts::Default());
  rpc::RpcServer server("clarens://h:8080/clarens", &transport);
  (void)server.RegisterMethod(
      "ping", [](const rpc::XmlRpcArray&, rpc::CallContext&)
                  -> Result<rpc::XmlRpcValue> { return rpc::XmlRpcValue(1); });
  // Trailing slash and explicit default port resolve to the same endpoint.
  for (const char* variant :
       {"clarens://h:8080/clarens/", "clarens://h:8080/clarens"}) {
    rpc::RpcClient client(&transport, "h", variant);
    EXPECT_TRUE(client.Call("ping", {}, nullptr).ok()) << variant;
  }
}

TEST(RpcEdgeTest, EmptyValueAndEmptyContainers) {
  namespace tree = bench::xmlrpc_tree;
  rpc::XmlRpcValue nil;
  auto round = tree::FromXml(tree::ToXml(nil));
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->is_empty());
  round = rpc::DecodeResponse(rpc::EncodeResponse(nil));
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->is_empty());

  rpc::XmlRpcValue empty_array((rpc::XmlRpcArray()));
  round = tree::FromXml(tree::ToXml(empty_array));
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->is_array());
  EXPECT_TRUE(round->AsArray().value()->empty());
  round = rpc::DecodeResponse(rpc::EncodeResponse(empty_array));
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->is_array());
  EXPECT_TRUE(round->AsArray().value()->empty());

  rpc::XmlRpcValue empty_struct((rpc::XmlRpcStruct()));
  round = tree::FromXml(tree::ToXml(empty_struct));
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->is_struct());
  round = rpc::DecodeResponse(rpc::EncodeResponse(empty_struct));
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->is_struct());
  EXPECT_TRUE(round->AsStruct().value()->empty());
}

TEST(RpcEdgeTest, EmptyResultSetRoundTrips) {
  storage::ResultSet rs;
  rs.columns = {"only_header"};
  auto round = rpc::RpcToResultSet(rpc::ResultSetToRpc(rs));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->columns, rs.columns);
  EXPECT_TRUE(round->rows.empty());
}

TEST(RpcEdgeTest, StatsRoundTripThroughRpcStruct) {
  core::QueryStats stats;
  stats.simulated_ms = 123.5;
  stats.distributed = true;
  stats.used_rls = true;
  stats.servers_contacted = 2;
  stats.databases = 3;
  stats.tables = 4;
  stats.rows = 99;
  stats.pool_ral_subqueries = 2;
  stats.jdbc_subqueries = 1;
  core::QueryStats round = core::StatsFromRpc(core::StatsToRpc(stats));
  EXPECT_DOUBLE_EQ(round.simulated_ms, 123.5);
  EXPECT_TRUE(round.distributed);
  EXPECT_TRUE(round.used_rls);
  EXPECT_EQ(round.servers_contacted, 2u);
  EXPECT_EQ(round.databases, 3u);
  EXPECT_EQ(round.tables, 4u);
  EXPECT_EQ(round.rows, 99u);
  EXPECT_EQ(round.pool_ral_subqueries, 2u);
  EXPECT_EQ(round.jdbc_subqueries, 1u);
}

// ---------- net edges ----------

TEST(NetEdgeTest, ParallelOverEmptyBranchListIsFree) {
  net::Cost cost;
  cost.AddMs(5);
  cost.AddParallel({});
  EXPECT_DOUBLE_EQ(cost.total_ms(), 5.0);
}

// ---------- storage edges ----------

TEST(StorageEdgeTest, ResultSetToTextTruncates) {
  storage::ResultSet rs;
  rs.columns = {"x"};
  for (int i = 0; i < 30; ++i) rs.rows.push_back({Value(int64_t{i})});
  std::string text = rs.ToText(10);
  EXPECT_NE(text.find("(20 more rows)"), std::string::npos);
}

TEST(StorageEdgeTest, StageFileWithZeroRows) {
  storage::TableSchema schema("t", {{"a", DataType::kInt64, false, false}});
  auto decoded = storage::DecodeStage(storage::EncodeStage(schema, {}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->rows.empty());
  EXPECT_EQ(decoded->schema.name(), "t");
}

// ---------- core / XSpec repository edges ----------

TEST(XSpecRepositoryTest, FileUrlReadsFilesystem) {
  core::XSpecRepository repo;
  std::string path =
      (std::filesystem::temp_directory_path() / "griddb_repo_test.xspec")
          .string();
  {
    std::ofstream out(path);
    out << "<xspec database='d' vendor='mysql'/>";
  }
  auto content = repo.Fetch("file://" + path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  EXPECT_NE(content->find("xspec"), std::string::npos);
  EXPECT_FALSE(repo.Fetch("file:///nonexistent/nope.xspec").ok());
  std::filesystem::remove(path);
}

TEST(XSpecRepositoryTest, HttpUrlsServeRegisteredDocuments) {
  core::XSpecRepository repo;
  EXPECT_FALSE(repo.Has("http://x/y"));
  repo.Put("http://x/y", "payload");
  EXPECT_TRUE(repo.Has("http://x/y"));
  EXPECT_EQ(repo.Fetch("http://x/y").value(), "payload");
  // Overwrite.
  repo.Put("http://x/y", "updated");
  EXPECT_EQ(repo.Fetch("http://x/y").value(), "updated");
}

// ---------- schema tracker edges ----------

TEST(SchemaTrackerEdgeTest, CheckOnUnregisteredDatabaseFails) {
  net::Network network;
  network.AddHost("h");
  rpc::Transport transport(&network, net::ServiceCosts::Default());
  ral::DatabaseCatalog catalog;
  core::DataAccessConfig config;
  config.host = "h";
  config.server_url = "clarens://h:8080/c";
  core::JClarensServer server(config, &catalog, &transport);
  core::SchemaTracker tracker(&server.service());
  EXPECT_EQ(tracker.CheckOnce("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(tracker.RunOnceAll(), 0u);
  EXPECT_EQ(tracker.checks_run(), 1u);
}

TEST(SchemaTrackerEdgeTest, StartStopIdempotent) {
  net::Network network;
  network.AddHost("h");
  rpc::Transport transport(&network, net::ServiceCosts::Default());
  ral::DatabaseCatalog catalog;
  core::DataAccessConfig config;
  config.host = "h";
  config.server_url = "clarens://h:8081/c";
  core::JClarensServer server(config, &catalog, &transport);
  core::SchemaTracker tracker(&server.service());
  tracker.Start(std::chrono::milliseconds(50));
  tracker.Start(std::chrono::milliseconds(50));  // restart while running
  EXPECT_TRUE(tracker.running());
  tracker.Stop();
  tracker.Stop();  // double stop is harmless
  EXPECT_FALSE(tracker.running());
}

// ---------- ETL job validation ----------

TEST(EtlEdgeTest, MissingEndpointsRejected) {
  net::Network network;
  network.AddHost("h");
  warehouse::EtlPipeline pipeline(
      &network, net::ServiceCosts::Default(), warehouse::EtlCosts::Default(),
      "h", (std::filesystem::temp_directory_path() / "griddb_edge").string());
  warehouse::EtlPipeline::Job job;  // no source/target
  EXPECT_EQ(pipeline.Run(job).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace griddb
