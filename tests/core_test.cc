#include <gtest/gtest.h>

#include "griddb/core/jclarens_server.h"
#include "griddb/core/schema_tracker.h"
#include "griddb/ntuple/histogram.h"
#include "griddb/unity/xspec.h"

namespace griddb::core {
namespace {

using storage::Value;

/// The paper's testbed shape (§5.2): two JClarens servers on a 100 Mbps
/// LAN, a central RLS, databases split between MS-SQL and MySQL.
struct GridFixture : public ::testing::Test {
  GridFixture()
      : transport(&network, net::ServiceCosts::Default()),
        my1("my1", sql::Vendor::kMySql),
        my2("my2", sql::Vendor::kMySql),
        ms1("ms1", sql::Vendor::kMsSql),
        ms2("ms2", sql::Vendor::kMsSql) {
    for (const char* host : {"server-a", "server-b", "rls-host", "client"}) {
      network.AddHost(host);
    }
    rls = std::make_unique<rls::RlsServer>("rls://rls-host:39281/rls",
                                           &transport);

    // Server A hosts: my1 (events), ms1 (runs).
    Seed(&my1, "CREATE TABLE EVENTS (EVENT_ID INT PRIMARY KEY, RUN_ID INT, "
               "ENERGY DOUBLE, TAG VARCHAR(16))");
    Seed(&my1, "INSERT INTO EVENTS (EVENT_ID, RUN_ID, ENERGY, TAG) VALUES "
               "(10, 1, 45.5, 'muon'), (11, 1, 12.0, 'electron'), "
               "(12, 2, 99.25, 'muon'), (13, 2, 7.5, 'photon'), "
               "(14, 3, 60.0, 'muon')");
    Seed(&ms1, "CREATE TABLE RUNS (RUN_ID BIGINT, DETECTOR NVARCHAR(16))");
    Seed(&ms1, "INSERT INTO RUNS (RUN_ID, DETECTOR) VALUES (1, 'ECAL'), "
               "(2, 'HCAL'), (3, 'TRACKER')");

    // Server B hosts: my2 (calibration), ms2 (conditions).
    Seed(&my2, "CREATE TABLE CALIB (SENSOR_ID INT PRIMARY KEY, RUN_ID INT, "
               "GAIN DOUBLE)");
    Seed(&my2, "INSERT INTO CALIB (SENSOR_ID, RUN_ID, GAIN) VALUES "
               "(100, 1, 1.02), (101, 2, 0.98), (102, 3, 1.10)");
    Seed(&ms2, "CREATE TABLE CONDITIONS (COND_ID BIGINT, RUN_ID BIGINT, "
               "TEMPERATURE FLOAT)");
    Seed(&ms2, "INSERT INTO CONDITIONS (COND_ID, RUN_ID, TEMPERATURE) VALUES "
               "(1, 1, 21.5), (2, 2, 22.0), (3, 3, 19.5)");

    EXPECT_TRUE(catalog.Add({"mysql://server-a/my1", &my1, "server-a", "", ""})
                    .ok());
    EXPECT_TRUE(catalog.Add({"mssql://server-a/ms1", &ms1, "server-a", "", ""})
                    .ok());
    EXPECT_TRUE(catalog.Add({"mysql://server-b/my2", &my2, "server-b", "", ""})
                    .ok());
    EXPECT_TRUE(catalog.Add({"mssql://server-b/ms2", &ms2, "server-b", "", ""})
                    .ok());

    DataAccessConfig config_a;
    config_a.server_name = "jclarens-a";
    config_a.host = "server-a";
    config_a.server_url = "clarens://server-a:8080/clarens";
    config_a.rls_url = "rls://rls-host:39281/rls";
    server_a = std::make_unique<JClarensServer>(config_a, &catalog, &transport,
                                                &xspec_repo);

    DataAccessConfig config_b = config_a;
    config_b.server_name = "jclarens-b";
    config_b.host = "server-b";
    config_b.server_url = "clarens://server-b:8080/clarens";
    server_b = std::make_unique<JClarensServer>(config_b, &catalog, &transport,
                                                &xspec_repo);

    EXPECT_TRUE(
        server_a->service().RegisterLiveDatabase("mysql://server-a/my1", "")
            .ok());
    EXPECT_TRUE(
        server_a->service().RegisterLiveDatabase("mssql://server-a/ms1", "")
            .ok());
    EXPECT_TRUE(
        server_b->service().RegisterLiveDatabase("mysql://server-b/my2", "")
            .ok());
    EXPECT_TRUE(
        server_b->service().RegisterLiveDatabase("mssql://server-b/ms2", "")
            .ok());
  }

  static void Seed(engine::Database* db, const std::string& sql) {
    auto result = db->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }

  net::Network network;
  rpc::Transport transport;
  engine::Database my1, my2, ms1, ms2;
  ral::DatabaseCatalog catalog;
  XSpecRepository xspec_repo;
  std::unique_ptr<rls::RlsServer> rls;
  std::unique_ptr<JClarensServer> server_a;
  std::unique_ptr<JClarensServer> server_b;
};

// ---------- local queries ----------

TEST_F(GridFixture, LocalSingleTableQuery) {
  QueryStats stats;
  auto rs = server_a->service().Query(
      "SELECT event_id, energy FROM events WHERE energy > 40", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 3u);
  EXPECT_FALSE(stats.distributed);
  EXPECT_FALSE(stats.used_rls);
  EXPECT_EQ(stats.servers_contacted, 1u);
  EXPECT_EQ(stats.databases, 1u);
  EXPECT_EQ(stats.tables, 1u);
  EXPECT_GT(stats.simulated_ms, 0.0);
  // MySQL is POOL-supported and the query fits the RAL form.
  EXPECT_EQ(stats.pool_ral_subqueries, 1u);
  EXPECT_EQ(stats.jdbc_subqueries, 0u);
}

TEST_F(GridFixture, ComplexLocalQueryFallsBackToJdbc) {
  QueryStats stats;
  auto rs = server_a->service().Query(
      "SELECT tag, COUNT(*) AS n FROM events GROUP BY tag ORDER BY n DESC",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(stats.jdbc_subqueries, 1u);
  EXPECT_EQ(stats.pool_ral_subqueries, 0u);
}

TEST_F(GridFixture, LocalCrossDatabaseJoinRoutesBothPaths) {
  QueryStats stats;
  auto rs = server_a->service().Query(
      "SELECT e.event_id, r.detector FROM events e JOIN runs r "
      "ON e.run_id = r.run_id ORDER BY e.event_id",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 5u);
  EXPECT_TRUE(stats.distributed);
  EXPECT_EQ(stats.databases, 2u);
  EXPECT_EQ(stats.servers_contacted, 1u);
  // events -> MySQL (POOL path), runs -> MS-SQL (JDBC path).
  EXPECT_EQ(stats.pool_ral_subqueries, 1u);
  EXPECT_EQ(stats.jdbc_subqueries, 1u);
}

TEST_F(GridFixture, DistributedQueryCostsAnOrderOfMagnitudeMore) {
  QueryStats local, distributed;
  ASSERT_TRUE(server_a->service()
                  .Query("SELECT event_id FROM events WHERE event_id = 10",
                         &local)
                  .ok());
  ASSERT_TRUE(server_a->service()
                  .Query("SELECT e.event_id, r.detector FROM events e "
                         "JOIN runs r ON e.run_id = r.run_id",
                         &distributed)
                  .ok());
  // Table 1: 38 ms vs 487.5 ms — the distributed query is ~10x slower
  // because of connect/auth and integration.
  EXPECT_GT(distributed.simulated_ms, 5 * local.simulated_ms);
}

// ---------- RLS-mediated remote queries ----------

TEST_F(GridFixture, RemoteTableViaRlsForwardsWholeQuery) {
  QueryStats stats;
  // calib lives only on server B; server A must discover it via RLS.
  auto rs = server_a->service().Query(
      "SELECT sensor_id, gain FROM calib WHERE gain > 1.0", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 2u);
  EXPECT_TRUE(stats.used_rls);
  EXPECT_EQ(stats.servers_contacted, 2u);
  EXPECT_GE(stats.simulated_ms, transport.costs().rls_lookup_ms);
}

TEST_F(GridFixture, MixedLocalRemoteJoin) {
  QueryStats stats;
  // events on A, conditions on B: join spans servers.
  auto rs = server_a->service().Query(
      "SELECT e.event_id, c.temperature FROM events e JOIN conditions c "
      "ON e.run_id = c.run_id WHERE e.energy > 40 ORDER BY e.event_id",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_DOUBLE_EQ(rs->rows[0][1].AsDoubleStrict(), 21.5);
  EXPECT_TRUE(stats.used_rls);
  EXPECT_TRUE(stats.distributed);
  EXPECT_EQ(stats.servers_contacted, 2u);
  // Every mart touched counts, local and remote, and so does every
  // sub-query: events is a local MySQL table, so it goes through POOL-RAL;
  // conditions is fetched from server B's MS-SQL mart over JDBC.
  EXPECT_EQ(stats.databases, 2u);
  EXPECT_EQ(stats.pool_ral_subqueries, 1u);
  EXPECT_EQ(stats.jdbc_subqueries, 1u);
}

TEST_F(GridFixture, FourTablesAcrossTwoServers) {
  QueryStats stats;
  auto rs = server_a->service().Query(
      "SELECT e.event_id, r.detector, c.temperature, k.gain "
      "FROM events e JOIN runs r ON e.run_id = r.run_id "
      "JOIN conditions c ON e.run_id = c.run_id "
      "JOIN calib k ON e.run_id = k.run_id "
      "ORDER BY e.event_id",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 5u);
  EXPECT_EQ(stats.tables, 4u);
  EXPECT_EQ(stats.servers_contacted, 2u);
  EXPECT_TRUE(stats.distributed);
  // Four marts, four sub-queries: the MySQL tables (events here, calib on
  // B) through POOL-RAL, the MS-SQL ones (runs here, conditions on B)
  // over JDBC.
  EXPECT_EQ(stats.databases, 4u);
  EXPECT_EQ(stats.pool_ral_subqueries, 2u);
  EXPECT_EQ(stats.jdbc_subqueries, 2u);
}

TEST_F(GridFixture, MixedPlanIsEpochCheckedAndReplanned) {
  const char* query =
      "SELECT e.event_id, r.detector, c.temperature FROM events e "
      "JOIN runs r ON e.run_id = r.run_id "
      "JOIN conditions c ON e.run_id = c.run_id ORDER BY e.event_id";
  // The single-server answer: one service holding all three marts.
  DataAccessConfig single_config;
  single_config.host = "client";
  DataAccessService single(single_config, &catalog, &transport);
  for (const char* url : {"mysql://server-a/my1", "mssql://server-a/ms1",
                          "mssql://server-b/ms2"}) {
    ASSERT_TRUE(single.RegisterLiveDatabase(url, "").ok());
  }
  auto expected = single.Query(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // A schema reload of a local mart lands between planning and execution
  // of the mixed plan: the plan is stale and must be rebuilt.
  int reloads = 0;
  server_a->service().set_post_plan_hook([&] {
    if (reloads++ == 0) {
      EXPECT_TRUE(
          server_a->service().RefreshRegisteredDatabase("my1").ok());
    }
  });
  QueryStats stats;
  auto rs = server_a->service().Query(query, &stats);
  server_a->service().set_post_plan_hook(nullptr);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(reloads, 2);
  EXPECT_EQ(stats.replans, 1u);
  EXPECT_TRUE(stats.used_rls);
  ASSERT_EQ(rs->columns, expected->columns);
  ASSERT_EQ(rs->num_rows(), expected->num_rows());
  for (size_t r = 0; r < rs->num_rows(); ++r) {
    for (size_t c = 0; c < rs->num_columns(); ++c) {
      EXPECT_EQ(rs->rows[r][c].Compare(expected->rows[r][c]), 0)
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(GridFixture, UnknownTableEverywhereFails) {
  QueryStats stats;
  auto rs = server_a->service().Query("SELECT x FROM ghost_table", &stats);
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(stats.used_rls);
}

// ---------- the web-service interface ----------

TEST_F(GridFixture, QueryThroughWebServiceInterface) {
  rpc::RpcClient client(&transport, "client",
                        "clarens://server-a:8080/clarens");
  rpc::XmlRpcArray params;
  params.emplace_back("SELECT event_id, tag FROM events ORDER BY event_id");
  net::Cost cost;
  auto response = client.Call("dataaccess.query", std::move(params), &cost);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto rs = rpc::RpcToResultSet(**response->Member("result"));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 5u);
  QueryStats stats = StatsFromRpc(**response->Member("stats"));
  EXPECT_EQ(stats.rows, 5u);
  // Client-side cost covers connect + transfer + the service's work.
  EXPECT_GT(cost.total_ms(), stats.simulated_ms);
}

TEST_F(GridFixture, ListAndDescribeTablesOverRpc) {
  rpc::RpcClient client(&transport, "client",
                        "clarens://server-a:8080/clarens");
  auto tables = client.Call("dataaccess.listTables", {}, nullptr);
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->AsArray().value()->size(), 2u);  // events, runs

  rpc::XmlRpcArray params;
  params.emplace_back("events");
  auto description = client.Call("dataaccess.describeTable",
                                 std::move(params), nullptr);
  ASSERT_TRUE(description.ok()) << description.status().ToString();
  auto columns = description->Member("columns");
  ASSERT_TRUE(columns.ok());
  EXPECT_EQ((*columns)->AsArray().value()->size(), 4u);
}

TEST_F(GridFixture, ExplainOverRpc) {
  rpc::RpcClient client(&transport, "client",
                        "clarens://server-a:8080/clarens");
  rpc::XmlRpcArray params;
  params.emplace_back("SELECT e.event_id, r.detector FROM events e "
                      "JOIN runs r ON e.run_id = r.run_id");
  auto plan = client.Call("dataaccess.explain", std::move(params), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = plan->AsString().value();
  EXPECT_NE(text.find("federated plan"), std::string::npos);

  rpc::XmlRpcArray remote_params;
  remote_params.emplace_back("SELECT gain FROM calib");
  auto remote_plan = client.Call("dataaccess.explain",
                                 std::move(remote_params), nullptr);
  ASSERT_TRUE(remote_plan.ok());
  EXPECT_NE(remote_plan->AsString().value().find("RLS"), std::string::npos);
}

TEST_F(GridFixture, JasStyleHistogramFromQuery) {
  // What the paper's Java Analysis Studio plug-in does: query, then
  // histogram a returned column.
  auto rs = server_a->service().Query("SELECT energy FROM events", nullptr);
  ASSERT_TRUE(rs.ok());
  ntuple::Histogram1D hist("energy", 10, 0.0, 100.0);
  ASSERT_TRUE(ntuple::FillFromResultSet(hist, *rs, "energy").ok());
  EXPECT_DOUBLE_EQ(hist.entries(), 5.0);
}

// ---------- plug-in databases (§4.10) ----------

TEST_F(GridFixture, PluginDatabaseAtRuntime) {
  // A brand-new SQLite mart appears at runtime.
  engine::Database lite("lite1", sql::Vendor::kSqlite);
  ASSERT_TRUE(
      lite.Execute("CREATE TABLE LUMI (BLOCK_ID INTEGER PRIMARY KEY, "
                   "LUMINOSITY REAL)")
          .ok());
  ASSERT_TRUE(lite.Execute("INSERT INTO LUMI (BLOCK_ID, LUMINOSITY) VALUES "
                           "(1, 0.5), (2, 0.8)")
                  .ok());
  ASSERT_TRUE(
      catalog.Add({"sqlite://server-a/lite1", &lite, "server-a", "", ""}).ok());

  // Its XSpec is published at a URL; the server downloads and registers it.
  xspec_repo.Put("http://tools.cern.ch/xspec/lite1.xspec",
                 unity::GenerateXSpec(lite).ToXml());
  rpc::RpcClient client(&transport, "client",
                        "clarens://server-a:8080/clarens");
  rpc::XmlRpcArray params;
  params.emplace_back("http://tools.cern.ch/xspec/lite1.xspec");
  params.emplace_back("sqlite-jdbc");
  params.emplace_back("sqlite://server-a/lite1");
  auto response = client.Call("dataaccess.pluginDatabase", std::move(params),
                              nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  // The new table is immediately queryable, locally and from server B.
  auto local = server_a->service().Query("SELECT COUNT(*) FROM lumi", nullptr);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(local->rows[0][0].AsInt64Strict(), 2);

  QueryStats stats;
  auto remote = server_b->service().Query(
      "SELECT block_id FROM lumi WHERE luminosity > 0.6", &stats);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->num_rows(), 1u);
  EXPECT_TRUE(stats.used_rls);
}

// ---------- schema tracking (§4.9) ----------

TEST_F(GridFixture, SchemaTrackerDetectsChangesBySizeAndMd5) {
  SchemaTracker tracker(&server_a->service());
  // First pass establishes baselines; nothing "changes".
  EXPECT_EQ(tracker.RunOnceAll(), 0u);

  // No change -> no reload.
  auto unchanged = tracker.CheckOnce("my1");
  ASSERT_TRUE(unchanged.ok()) << unchanged.status().ToString();
  EXPECT_FALSE(*unchanged);

  // Schema evolves behind the middleware's back.
  ASSERT_TRUE(my1.Execute("CREATE TABLE NEWTAB (X INT)").ok());
  auto changed = tracker.CheckOnce("my1");
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(*changed);
  EXPECT_EQ(tracker.changes_applied(), 1u);

  // The new table is queryable without restarting anything.
  auto rs = server_a->service().Query("SELECT COUNT(*) FROM newtab", nullptr);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();

  // And server B can reach it via RLS (republication happened).
  auto remote = server_b->service().Query("SELECT COUNT(*) FROM newtab",
                                          nullptr);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
}

TEST_F(GridFixture, SchemaTrackerEqualSizeDifferentContent) {
  SchemaTracker tracker(&server_a->service());
  EXPECT_EQ(tracker.RunOnceAll(), 0u);
  // Rename a column to a same-length name: XSpec size stays identical, so
  // only the md5 comparison can catch it.
  ASSERT_TRUE(my1.Execute("CREATE TABLE AB (X1 INT)").ok());
  ASSERT_TRUE(tracker.CheckOnce("my1").value());
  ASSERT_TRUE(my1.Execute("DROP TABLE AB").ok());
  ASSERT_TRUE(my1.Execute("CREATE TABLE AB (X2 INT)").ok());
  auto changed = tracker.CheckOnce("my1");
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(*changed);
}

TEST_F(GridFixture, SchemaTrackerBackgroundThread) {
  SchemaTracker tracker(&server_a->service());
  EXPECT_EQ(tracker.RunOnceAll(), 0u);
  tracker.Start(std::chrono::milliseconds(5));
  EXPECT_TRUE(tracker.running());
  ASSERT_TRUE(my1.Execute("CREATE TABLE BGTAB (X INT)").ok());
  // Wait (bounded) for the background thread to pick the change up.
  for (int i = 0; i < 200 && tracker.changes_applied() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  tracker.Stop();
  EXPECT_FALSE(tracker.running());
  EXPECT_GE(tracker.changes_applied(), 1u);
}

// ---------- registration management ----------

TEST_F(GridFixture, UnregisterRemovesRlsPublication) {
  ASSERT_TRUE(server_b->service().UnregisterDatabase("my2").ok());
  QueryStats stats;
  auto rs = server_a->service().Query("SELECT sensor_id FROM calib", &stats);
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(GridFixture, RegisteredDatabaseBookkeeping) {
  auto dbs = server_a->service().RegisteredDatabases();
  EXPECT_EQ(dbs.size(), 2u);
  auto upper = server_a->service().UpperEntryFor("my1");
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(upper->url, "mysql://server-a/my1");
  EXPECT_FALSE(server_a->service().UpperEntryFor("ghost").ok());
  auto tables = server_a->service().LocalTables();
  EXPECT_EQ(tables, (std::vector<std::string>{"events", "runs"}));
}

}  // namespace
}  // namespace griddb::core
