// Multi-tenant isolation: RBAC grants enforced at plan time (an
// unauthorized query fails fast with a permanent kPermissionDenied
// before any RPC fans out, and cache hits re-check the requesting
// tenant's grants), tenant identity rides the wire hop by hop in the
// sparse <tenant> header, and the admission controller's per-tenant
// lanes drain under a deficit-round-robin scheduler that keeps one
// tenant's storm from starving the others.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "griddb/core/jclarens_server.h"
#include "griddb/core/rbac.h"
#include "griddb/engine/select_executor.h"
#include "griddb/obs/metrics.h"
#include "griddb/sql/parser.h"

namespace griddb::core {
namespace {

constexpr char kRlsUrl[] = "rls://rls-host:39281/rls";
constexpr char kServerAUrl[] = "clarens://server-a:8080/clarens";

uint64_t CounterValue(const char* name) {
  const auto snapshot = obs::MetricsRegistry::Default().Snapshot();
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

std::vector<std::string> NoMarts(const std::string&) { return {}; }

// ---------- RbacCatalog unit behaviour ----------

TEST(RbacCatalogTest, UnknownTenantIsDeniedOutright) {
  RbacCatalog rbac;
  Status denied = rbac.CheckSelect("alice", {"events_a"}, NoMarts);
  EXPECT_EQ(denied.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(denied.message().find("not a known user"), std::string::npos);
  // The empty tenant maps to the anonymous user, which must be created
  // (and granted) explicitly before anonymous traffic passes.
  Status anon = rbac.CheckSelect("", {"events_a"}, NoMarts);
  EXPECT_EQ(anon.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(anon.message().find(RbacCatalog::kAnonymousTenant),
            std::string::npos);
  ASSERT_TRUE(rbac.CreateUser(RbacCatalog::kAnonymousTenant).ok());
  ASSERT_TRUE(rbac.GrantTable(RbacCatalog::kAnonymousTenant,
                              RbacCatalog::kAllTables)
                  .ok());
  EXPECT_TRUE(rbac.CheckSelect("", {"events_a"}, NoMarts).ok());
}

TEST(RbacCatalogTest, TableGrantsAreCaseInsensitiveAndRevocable) {
  RbacCatalog rbac;
  ASSERT_TRUE(rbac.CreateUser("alice").ok());
  ASSERT_TRUE(rbac.GrantTable("alice", "EVENTS_A").ok());  // stored lower-case
  EXPECT_TRUE(rbac.CheckSelect("alice", {"events_a"}, NoMarts).ok());

  Status denied = rbac.CheckSelect("alice", {"events_a", "events_b"}, NoMarts);
  EXPECT_EQ(denied.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(denied.message().find("events_b"), std::string::npos);

  ASSERT_TRUE(rbac.RevokeTable("alice", "events_a").ok());
  EXPECT_EQ(rbac.CheckSelect("alice", {"events_a"}, NoMarts).code(),
            StatusCode::kPermissionDenied);

  // The wildcard covers everything, including tables that do not exist.
  ASSERT_TRUE(rbac.GrantTable("alice", RbacCatalog::kAllTables).ok());
  EXPECT_TRUE(
      rbac.CheckSelect("alice", {"events_a", "no_such_table"}, NoMarts).ok());
}

TEST(RbacCatalogTest, RoleInheritanceIsTransitive) {
  RbacCatalog rbac;
  ASSERT_TRUE(rbac.CreateRole("public").ok());
  ASSERT_TRUE(rbac.CreateRole("cms").ok());
  ASSERT_TRUE(rbac.CreateUser("bob").ok());
  ASSERT_TRUE(rbac.GrantTable("public", "events_a").ok());
  ASSERT_TRUE(rbac.AssignRole("cms", "public").ok());
  ASSERT_TRUE(rbac.AssignRole("bob", "cms").ok());
  // bob -> cms -> public -> events_a
  EXPECT_TRUE(rbac.CheckSelect("bob", {"events_a"}, NoMarts).ok());

  ASSERT_TRUE(rbac.RevokeRole("cms", "public").ok());
  EXPECT_EQ(rbac.CheckSelect("bob", {"events_a"}, NoMarts).code(),
            StatusCode::kPermissionDenied);
}

TEST(RbacCatalogTest, MartGrantCoversHostedTables) {
  RbacCatalog rbac;
  ASSERT_TRUE(rbac.CreateUser("carol").ok());
  ASSERT_TRUE(rbac.GrantMart("carol", "db_a").ok());
  auto marts_of = [](const std::string& table) -> std::vector<std::string> {
    if (table == "events_a") return {"db_a"};
    return {};
  };
  EXPECT_TRUE(rbac.CheckSelect("carol", {"events_a"}, marts_of).ok());
  EXPECT_EQ(rbac.CheckSelect("carol", {"events_b"}, marts_of).code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(rbac.RevokeMart("carol", "db_a").ok());
  EXPECT_EQ(rbac.CheckSelect("carol", {"events_a"}, marts_of).code(),
            StatusCode::kPermissionDenied);
}

TEST(RbacCatalogTest, MembershipCyclesAreRejected) {
  RbacCatalog rbac;
  ASSERT_TRUE(rbac.CreateRole("r1").ok());
  ASSERT_TRUE(rbac.CreateRole("r2").ok());
  ASSERT_TRUE(rbac.AssignRole("r1", "r2").ok());
  Status cycle = rbac.AssignRole("r2", "r1");
  EXPECT_EQ(cycle.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cycle.message().find("cycle"), std::string::npos);
  // Self-membership is the degenerate cycle.
  EXPECT_EQ(rbac.AssignRole("r1", "r1").code(), StatusCode::kInvalidArgument);
}

TEST(RbacCatalogTest, DdlValidatesGrantees) {
  RbacCatalog rbac;
  ASSERT_TRUE(rbac.CreateUser("dave").ok());
  EXPECT_EQ(rbac.CreateUser("dave").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rbac.CreateRole("dave").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rbac.GrantTable("ghost", "events_a").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(rbac.RevokeTable("dave", "events_a").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(rbac.AssignRole("dave", "no_role").code(), StatusCode::kNotFound);

  const uint64_t before = rbac.generation();
  ASSERT_TRUE(rbac.GrantTable("dave", "events_a").ok());
  EXPECT_GT(rbac.generation(), before);  // every DDL republishes a snapshot

  ASSERT_TRUE(rbac.DropUser("dave").ok());
  EXPECT_EQ(rbac.CheckSelect("dave", {"events_a"}, NoMarts).code(),
            StatusCode::kPermissionDenied);
}

// Concurrent grant DDL against a hot check path: the copy-on-write
// snapshot swap means readers never block on (or observe half of) a
// mutation. Run under TSan, this is the data-race probe for the
// two-level locking scheme.
TEST(RbacCatalogTest, ConcurrentDdlNeverBlocksOrTearsChecks) {
  RbacCatalog rbac;
  ASSERT_TRUE(rbac.CreateUser("alice").ok());
  ASSERT_TRUE(rbac.CreateRole("analyst").ok());
  ASSERT_TRUE(rbac.AssignRole("alice", "analyst").ok());
  ASSERT_TRUE(rbac.GrantTable("alice", "stable_table").ok());

  std::atomic<bool> stop{false};
  std::thread ddl([&] {
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(rbac.GrantTable("analyst", "flapping_table").ok());
      EXPECT_TRUE(rbac.RevokeTable("analyst", "flapping_table").ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        // The stable grant must hold through every republish; the
        // flapping one may be either way but must never tear.
        EXPECT_TRUE(rbac.CheckSelect("alice", {"stable_table"}, NoMarts).ok());
        Status flapping =
            rbac.CheckSelect("alice", {"flapping_table"}, NoMarts);
        EXPECT_TRUE(flapping.ok() ||
                    flapping.code() == StatusCode::kPermissionDenied);
      }
    });
  }
  ddl.join();
  for (auto& reader : readers) reader.join();
}

// ---------- tenant identity on the wire ----------

TEST(TenantWireTest, TenantRidesSparselyOnTheWire) {
  rpc::RpcRequest request;
  request.method = "dataaccess.query";
  request.params.emplace_back(std::string("SELECT 1"));

  std::string bare = rpc::EncodeRequest(request);
  EXPECT_EQ(bare.find("<tenant>"), std::string::npos);

  request.tenant = "atlas";
  std::string with_tenant = rpc::EncodeRequest(request);
  EXPECT_NE(with_tenant.find("<tenant>atlas</tenant>"), std::string::npos);

  auto decoded = rpc::DecodeRequest(with_tenant);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->tenant, "atlas");
  auto decoded_bare = rpc::DecodeRequest(bare);
  ASSERT_TRUE(decoded_bare.ok());
  EXPECT_EQ(decoded_bare->tenant, "");
}

TEST(TenantWireTest, PermissionDeniedIsPermanent) {
  EXPECT_FALSE(rpc::IsRetryable(StatusCode::kPermissionDenied));
}

// On an authenticated server the tenant identity is bound to the session
// user: the <tenant> wire header cannot impersonate another community.
TEST(TenantWireTest, SessionBindsTenantAgainstImpersonation) {
  net::Network network;
  network.AddHost("auth-host");
  network.AddHost("client");
  rpc::Transport transport(&network, net::ServiceCosts::Default());
  const char* url = "clarens://auth-host:8080/clarens";
  rpc::RpcServer server(url, &transport);
  server.AddUser("alice", "pw", "atlas");  // alice acts for tenant atlas
  server.AddUser("bob", "pw");             // no binding: tenant = user name
  ASSERT_TRUE(server
                  .RegisterMethod("echoTenant",
                                  [](const rpc::XmlRpcArray&,
                                     rpc::CallContext& ctx)
                                      -> Result<rpc::XmlRpcValue> {
                                    return rpc::XmlRpcValue(ctx.tenant);
                                  })
                  .ok());

  rpc::RpcClient alice(&transport, "client", url, "alice", "pw");
  net::Cost cost;
  // No header: the session's bound tenant is adopted.
  auto adopted = alice.Call("echoTenant", {}, &cost);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ(adopted->AsString().value(), "atlas");
  // A header agreeing with the binding is fine.
  auto agreeing =
      alice.Call("echoTenant", {}, &cost, 0, "", nullptr, "atlas");
  ASSERT_TRUE(agreeing.ok()) << agreeing.status().ToString();
  EXPECT_EQ(agreeing->AsString().value(), "atlas");
  // Impersonating another tenant is rejected before dispatch.
  auto spoofed =
      alice.Call("echoTenant", {}, &cost, 0, "", nullptr, "cms");
  ASSERT_FALSE(spoofed.ok());
  EXPECT_EQ(spoofed.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(spoofed.status().message().find("cms"), std::string::npos);
  EXPECT_NE(spoofed.status().message().find("alice"), std::string::npos);
  // A server-to-server forward (forward_depth > 0, set in-process by the
  // forwarding server) relays the original requester's tenant verbatim:
  // the edge server already enforced the binding.
  auto forwarded =
      alice.Call("echoTenant", {}, &cost, 1, "", nullptr, "cms");
  ASSERT_TRUE(forwarded.ok()) << forwarded.status().ToString();
  EXPECT_EQ(forwarded->AsString().value(), "cms");

  // Without an explicit binding the user name doubles as the tenant.
  rpc::RpcClient bob(&transport, "client", url, "bob", "pw");
  auto bob_tenant = bob.Call("echoTenant", {}, &cost);
  ASSERT_TRUE(bob_tenant.ok()) << bob_tenant.status().ToString();
  EXPECT_EQ(bob_tenant->AsString().value(), "bob");
}

// ---------- full-stack fixture ----------

// server-a hosts EVENTS_A (db_a); server-b hosts EVENTS_B. Both servers
// share one federation-wide RBAC catalog: anonymous may read everything
// (so untenanted traffic keeps working), "atlas" holds table grants,
// "cms" exists but holds nothing.
struct TenantIsolationFixture : public ::testing::Test {
  TenantIsolationFixture()
      : transport(&network, net::ServiceCosts::Default()),
        db_a("db_a", sql::Vendor::kMySql),
        db_b("db_b", sql::Vendor::kMySql),
        rbac(std::make_shared<RbacCatalog>()) {
    for (const char* h : {"server-a", "server-b", "rls-host", "client"}) {
      network.AddHost(h);
    }
    rls = std::make_unique<rls::RlsServer>(kRlsUrl, &transport);

    EXPECT_TRUE(db_a.Execute("CREATE TABLE EVENTS_A (ID INT PRIMARY KEY, "
                             "V DOUBLE)")
                    .ok());
    for (const char* row : {"(1, 1.5)", "(2, 2.5)", "(3, 3.5)"}) {
      EXPECT_TRUE(db_a.Execute(std::string("INSERT INTO EVENTS_A (ID, V) "
                                           "VALUES ") +
                               row)
                      .ok());
    }
    EXPECT_TRUE(db_b.Execute("CREATE TABLE EVENTS_B (ID INT PRIMARY KEY, "
                             "V DOUBLE)")
                    .ok());
    for (const char* row : {"(1, 10.5)", "(2, 20.5)"}) {
      EXPECT_TRUE(db_b.Execute(std::string("INSERT INTO EVENTS_B (ID, V) "
                                           "VALUES ") +
                               row)
                      .ok());
    }

    EXPECT_TRUE(
        catalog.Add({"mysql://server-a/db_a", &db_a, "server-a", "", ""}).ok());
    EXPECT_TRUE(
        catalog.Add({"mysql://server-b/db_b", &db_b, "server-b", "", ""}).ok());

    EXPECT_TRUE(rbac->CreateUser(RbacCatalog::kAnonymousTenant).ok());
    EXPECT_TRUE(
        rbac->GrantTable(RbacCatalog::kAnonymousTenant, RbacCatalog::kAllTables)
            .ok());
    EXPECT_TRUE(rbac->CreateUser("atlas").ok());
    EXPECT_TRUE(rbac->GrantTable("atlas", "events_a").ok());
    EXPECT_TRUE(rbac->GrantTable("atlas", "events_b").ok());
    EXPECT_TRUE(rbac->CreateUser("cms").ok());

    DataAccessConfig config_a;
    config_a.server_name = "jclarens-a";
    config_a.host = "server-a";
    config_a.server_url = kServerAUrl;
    config_a.rls_url = kRlsUrl;
    config_a.rbac = rbac;
    server_a = std::make_unique<JClarensServer>(config_a, &catalog, &transport);
    EXPECT_TRUE(
        server_a->service().RegisterLiveDatabase("mysql://server-a/db_a", "")
            .ok());

    DataAccessConfig config_b;
    config_b.server_name = "jclarens-b";
    config_b.host = "server-b";
    config_b.server_url = "clarens://server-b:8080/clarens";
    config_b.rls_url = kRlsUrl;
    config_b.rbac = rbac;
    server_b = std::make_unique<JClarensServer>(config_b, &catalog, &transport);
    EXPECT_TRUE(
        server_b->service().RegisterLiveDatabase("mysql://server-b/db_b", "")
            .ok());
  }

  /// A query-only coordinator on `client` that owns no databases.
  DataAccessConfig CoordinatorConfig() const {
    DataAccessConfig config;
    config.server_name = "coordinator";
    config.host = "client";
    config.rls_url = kRlsUrl;
    return config;
  }

  net::Network network;
  rpc::Transport transport;
  engine::Database db_a;
  engine::Database db_b;
  ral::DatabaseCatalog catalog;
  std::shared_ptr<RbacCatalog> rbac;
  std::unique_ptr<rls::RlsServer> rls;
  std::unique_ptr<JClarensServer> server_a;
  std::unique_ptr<JClarensServer> server_b;
};

TEST_F(TenantIsolationFixture, UnauthorizedQueryFailsFastWithoutRpcFanout) {
  DataAccessConfig config = CoordinatorConfig();
  config.rbac = rbac;
  DataAccessService coordinator(config, &catalog, &transport);

  const uint64_t calls_before = CounterValue("griddb.rpc.client.calls");
  const uint64_t forwards_before = CounterValue("griddb.core.forwards");

  QueryContext ctx;
  ctx.tenant = "cms";
  QueryStats stats;
  auto rs = coordinator.Query("SELECT id FROM events_a", &stats, 0, "",
                              std::move(ctx));
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(rs.status().message().find("cms"), std::string::npos);
  EXPECT_NE(rs.status().message().find("events_a"), std::string::npos);
  // Fail-fast means fail-cheap: the denial happened at plan time, before
  // the RLS lookup and before any sub-query RPC left this host.
  EXPECT_EQ(CounterValue("griddb.rpc.client.calls"), calls_before);
  EXPECT_EQ(CounterValue("griddb.core.forwards"), forwards_before);

  // The same query under a granted tenant flows all the way through.
  QueryContext granted;
  granted.tenant = "atlas";
  auto ok = coordinator.Query("SELECT id FROM events_a", &stats, 0, "",
                              std::move(granted));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_rows(), 3u);
  EXPECT_GT(CounterValue("griddb.rpc.client.calls"), calls_before);
}

TEST_F(TenantIsolationFixture, TenantPropagatesHopByHopToRemoteEnforcement) {
  // The coordinator itself carries no RBAC catalog: the only enforcement
  // point is server-b, so a denial proves the tenant identity crossed
  // the wire with the forwarded sub-query.
  DataAccessService coordinator(CoordinatorConfig(), &catalog, &transport);

  QueryContext cms;
  cms.tenant = "cms";
  auto denied =
      coordinator.Query("SELECT id FROM events_b", nullptr, 0, "",
                        std::move(cms));
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(denied.status().message().find("cms"), std::string::npos);

  QueryContext atlas;
  atlas.tenant = "atlas";
  auto ok = coordinator.Query("SELECT id FROM events_b", nullptr, 0, "",
                              std::move(atlas));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_rows(), 2u);
}

TEST_F(TenantIsolationFixture, RpcHandlerAdoptsWireTenant) {
  rpc::RpcClient client(&transport, "client", kServerAUrl);
  rpc::XmlRpcArray params;
  params.emplace_back(std::string("SELECT id FROM events_a"));

  client.set_tenant("cms");
  net::Cost cost;
  auto denied = client.Call("dataaccess.query", params, &cost);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(denied.status().message().find("cms"), std::string::npos);

  // A per-call tenant overrides the client-wide default (one cached
  // client per server is shared by every tenant's fan-out).
  auto ok =
      client.Call("dataaccess.query", params, &cost, 0, "", nullptr, "atlas");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();

  // No tenant at all = the anonymous user, granted everything here.
  client.set_tenant("");
  auto anon = client.Call("dataaccess.query", params, &cost);
  EXPECT_TRUE(anon.ok()) << anon.status().ToString();
}

TEST_F(TenantIsolationFixture, PermissionDeniedIsNotRetried) {
  rpc::RpcClient client(&transport, "client", kServerAUrl);
  client.set_retry_policy(rpc::RetryPolicy::Default());
  client.set_tenant("cms");
  rpc::XmlRpcArray params;
  params.emplace_back(std::string("SELECT id FROM events_a"));

  net::Cost cost;
  rpc::CallStats stats;
  auto denied = client.Call("dataaccess.query", params, &cost, 0, "", &stats);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  // Permanent: exactly one attempt, no backoff burned, and the stats
  // record that the retry loop stopped on a non-retryable status.
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_TRUE(stats.non_retryable);
}

TEST_F(TenantIsolationFixture, CacheHitRechecksGrantsAndRevocationSticks) {
  DataAccessConfig config;
  config.server_name = "local";
  config.host = "server-a";
  config.rls_url = kRlsUrl;
  config.query_cache = true;
  config.rbac = rbac;
  DataAccessService service(config, &catalog, &transport);
  ASSERT_TRUE(service.RegisterLiveDatabase("mysql://server-a/db_a", "").ok());

  ASSERT_TRUE(rbac->CreateUser("alice").ok());
  ASSERT_TRUE(rbac->GrantTable("alice", "events_a").ok());
  ASSERT_TRUE(rbac->CreateUser("bob").ok());

  const char* query = "SELECT id, v FROM events_a";

  // alice executes and seeds the result cache.
  QueryContext alice;
  alice.tenant = "alice";
  QueryStats warm_stats;
  auto warm = service.Query(query, &warm_stats, 0, "", std::move(alice));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(service.query_cache().result_entries(), 1u);

  // bob lacks the grant: the byte-identical repeat query must NOT be
  // served from alice's cached result.
  QueryContext bob;
  bob.tenant = "bob";
  auto denied = service.Query(query, nullptr, 0, "", std::move(bob));
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);

  // Granting bob makes the very next request eligible — and it IS the
  // cached result (no restart, no cache flush).
  ASSERT_TRUE(rbac->GrantTable("bob", "events_a").ok());
  QueryContext bob_granted;
  bob_granted.tenant = "bob";
  QueryStats hit_stats;
  auto served = service.Query(query, &hit_stats, 0, "",
                              std::move(bob_granted));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(hit_stats.result_cache_hits, 1u);
  EXPECT_EQ(served->num_rows(), warm->num_rows());

  // Revocation takes effect on the next request, cached result or not.
  ASSERT_TRUE(rbac->RevokeTable("bob", "events_a").ok());
  QueryContext bob_revoked;
  bob_revoked.tenant = "bob";
  auto revoked = service.Query(query, nullptr, 0, "", std::move(bob_revoked));
  ASSERT_FALSE(revoked.ok());
  EXPECT_EQ(revoked.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(TenantIsolationFixture, RbacGatesLaneCreationForUnknownTenants) {
  DataAccessConfig config;
  config.server_name = "gated";
  config.host = "server-a";
  config.rls_url = kRlsUrl;
  config.rbac = rbac;
  config.admission.max_concurrent = 4;
  config.admission.tenant_isolation = true;
  DataAccessService service(config, &catalog, &transport);
  ASSERT_TRUE(service.RegisterLiveDatabase("mysql://server-a/db_a", "").ok());

  // A flood of distinct made-up tenant names: every query is denied at
  // plan time, and none of the names earns a permanent admission lane.
  for (int i = 0; i < 8; ++i) {
    QueryContext ctx;
    ctx.tenant = "intruder-" + std::to_string(i);
    auto denied = service.Query("SELECT id FROM events_a", nullptr, 0, "",
                                std::move(ctx));
    ASSERT_FALSE(denied.ok());
    EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  }
  // Only the shared default lane materialized for the unknown names.
  for (const auto& lane : service.admission().lane_stats()) {
    EXPECT_TRUE(lane.tenant.empty()) << lane.tenant;
  }
  EXPECT_LE(service.admission().lane_stats().size(), 1u);

  // A catalog-known tenant still gets its own lane.
  QueryContext atlas;
  atlas.tenant = "atlas";
  auto ok = service.Query("SELECT id FROM events_a", nullptr, 0, "",
                          std::move(atlas));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  bool atlas_lane = false;
  for (const auto& lane : service.admission().lane_stats()) {
    if (lane.tenant == "atlas") atlas_lane = true;
  }
  EXPECT_TRUE(atlas_lane);
}

TEST_F(TenantIsolationFixture, TenantStatsRpcExposesLanes) {
  DataAccessConfig config;
  config.server_name = "jclarens-t";
  config.host = "server-a";
  config.server_url = "clarens://server-a:8083/clarens";
  config.rls_url = kRlsUrl;
  config.admission.max_concurrent = 4;
  config.admission.tenant_isolation = true;
  TenantQuota quota;
  quota.tenant = "atlas";
  quota.weight = 2.0;
  quota.min_reserved = 1;
  config.admission.tenant_quotas.push_back(quota);
  JClarensServer server(config, &catalog, &transport);

  rpc::RpcClient client(&transport, "client", config.server_url);
  net::Cost cost;
  auto reply = client.Call("dataaccess.tenantStats", {}, &cost);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto lanes = reply->AsArray();
  ASSERT_TRUE(lanes.ok());
  bool found = false;
  for (const rpc::XmlRpcValue& lane : **lanes) {
    auto fields = lane.AsStruct();
    ASSERT_TRUE(fields.ok());
    auto tenant = (*fields)->at("tenant").AsString();
    ASSERT_TRUE(tenant.ok());
    if (*tenant != "atlas") continue;
    found = true;
    auto weight = (*fields)->at("weight").AsDouble();
    ASSERT_TRUE(weight.ok());
    EXPECT_DOUBLE_EQ(*weight, 2.0);
    auto reserved = (*fields)->at("min_reserved").AsInt();
    ASSERT_TRUE(reserved.ok());
    EXPECT_EQ(*reserved, 1);
  }
  EXPECT_TRUE(found);
}

// ---------- per-tenant admission lanes ----------

TEST(TenantAdmissionTest, LaneQueueOverflowShedsOnlyThatTenant) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queued = 1;
  config.tenant_isolation = true;
  TenantQuota cms;
  cms.tenant = "cms";
  cms.retry_after_ms = 42.0;
  config.tenant_quotas.push_back(cms);
  AdmissionController controller(config);

  auto held = controller.Admit(QueryPriority::kInteractive, nullptr, "cms");
  ASSERT_TRUE(held.ok());
  std::thread cms_waiter([&] {
    auto ticket = controller.Admit(QueryPriority::kInteractive, nullptr,
                                   "cms");
    EXPECT_TRUE(ticket.ok());
  });
  while (controller.queued() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // cms's own lane queue is full: the next cms arrival is shed, with the
  // tenant named and its private retry-after hint attached.
  auto shed = controller.Admit(QueryPriority::kInteractive, nullptr, "cms");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("tenant 'cms'"), std::string::npos);
  EXPECT_DOUBLE_EQ(rpc::RetryAfterHintMs(shed.status().message()), 42.0);

  // atlas still has its own (empty) queue: it waits instead of shedding.
  std::thread atlas_waiter([&] {
    auto ticket = controller.Admit(QueryPriority::kInteractive, nullptr,
                                   "atlas");
    EXPECT_TRUE(ticket.ok());
  });
  while (controller.queued() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  held->Release();
  cms_waiter.join();
  atlas_waiter.join();
  EXPECT_EQ(controller.queued(), 0u);
  EXPECT_EQ(controller.in_flight(), 0u);
}

TEST(TenantAdmissionTest, MinReservedIsNextSlotPriorityNotIdleSlots) {
  AdmissionConfig config;
  config.max_concurrent = 2;
  config.max_queued = 4;
  config.tenant_isolation = true;
  TenantQuota atlas;
  atlas.tenant = "atlas";
  atlas.min_reserved = 1;
  config.tenant_quotas.push_back(atlas);
  AdmissionController controller(config);

  // Work conservation: with atlas idle, cms may fill every slot — the
  // reservation never holds a slot empty.
  auto cms_one = controller.Admit(QueryPriority::kInteractive, nullptr, "cms");
  auto cms_two = controller.Admit(QueryPriority::kInteractive, nullptr, "cms");
  ASSERT_TRUE(cms_one.ok());
  ASSERT_TRUE(cms_two.ok());

  std::atomic<bool> atlas_got{false};
  std::atomic<bool> cms_got{false};
  std::atomic<bool> release_atlas{false};
  std::thread atlas_waiter([&] {
    auto ticket = controller.Admit(QueryPriority::kInteractive, nullptr,
                                   "atlas");
    EXPECT_TRUE(ticket.ok());
    atlas_got.store(true);
    while (!release_atlas.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread cms_waiter([&] {
    auto ticket = controller.Admit(QueryPriority::kInteractive, nullptr,
                                   "cms");
    EXPECT_TRUE(ticket.ok());
    cms_got.store(true);
  });
  while (controller.queued() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The first freed slot must go to atlas (queued demand below its
  // reservation), even though cms queued first.
  cms_one->Release();
  while (!atlas_got.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(cms_got.load());

  // With atlas's reservation met, the next freed slot goes to cms.
  cms_two->Release();
  cms_waiter.join();
  EXPECT_TRUE(cms_got.load());
  release_atlas.store(true);
  atlas_waiter.join();
  EXPECT_EQ(controller.in_flight(), 0u);
}

// Property test for the deficit-round-robin scheduler: randomized
// arrival order, a weight-2 and a weight-1 lane, and a batch of
// cancelled waiters in a third lane. Invariants: every live waiter is
// eventually granted (no starvation), a single circulating slot drains
// the whole backlog (work conservation), cancellations leave the queues
// clean, and while both lanes are backlogged the grant shares track the
// 2:1 weights. Runs under TSan in scripts/check.sh.
TEST(TenantAdmissionTest, DrrDrainsWeightProportionallyWithoutStarvation) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queued = 64;
  config.tenant_isolation = true;
  TenantQuota atlas;
  atlas.tenant = "atlas";
  atlas.weight = 2.0;
  TenantQuota cms;
  cms.tenant = "cms";
  cms.weight = 1.0;
  config.tenant_quotas = {atlas, cms};
  AdmissionController controller(config);

  // Hold the only slot so every arrival queues behind it.
  auto seed = controller.Admit(QueryPriority::kInteractive, nullptr, "seed");
  ASSERT_TRUE(seed.ok());

  std::vector<std::string> arrivals;
  for (int i = 0; i < 20; ++i) arrivals.push_back("atlas");
  for (int i = 0; i < 20; ++i) arrivals.push_back("cms");
  std::mt19937 rng(20260808);
  std::shuffle(arrivals.begin(), arrivals.end(), rng);

  // With max_concurrent = 1, a granted thread records its tenant before
  // its ticket releases the slot, so `order` is the exact grant order.
  std::mutex order_mu;
  std::vector<std::string> order;
  std::vector<std::thread> threads;
  for (const std::string& tenant : arrivals) {
    threads.emplace_back([&controller, &order_mu, &order, tenant] {
      auto ticket =
          controller.Admit(QueryPriority::kInteractive, nullptr, tenant);
      EXPECT_TRUE(ticket.ok());
      if (ticket.ok()) {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(tenant);
      }
    });
  }
  // A third lane whose waiters are all cancelled while queued: they must
  // leave their lane cleanly and never consume a grant.
  CancelToken babar_cancel = CancelToken::Cancellable();
  std::vector<std::thread> cancelled;
  for (int i = 0; i < 6; ++i) {
    cancelled.emplace_back([&controller, &babar_cancel] {
      auto ticket = controller.Admit(QueryPriority::kInteractive,
                                     &babar_cancel, "babar");
      EXPECT_FALSE(ticket.ok());
    });
  }
  while (controller.queued() < 46) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  babar_cancel.Cancel();
  for (auto& thread : cancelled) thread.join();
  EXPECT_EQ(controller.queued(), 40u);

  seed->Release();
  for (auto& thread : threads) thread.join();

  // No starvation + work conservation: one slot drained all 40.
  ASSERT_EQ(order.size(), 40u);
  EXPECT_EQ(controller.queued(), 0u);
  EXPECT_EQ(controller.in_flight(), 0u);

  // While both lanes were backlogged (guaranteed for the first 18 grants
  // given 20 waiters each), atlas's share must track its weight: the
  // ideal DRR schedule gives exactly 12 of 18.
  size_t atlas_grants = 0;
  for (size_t i = 0; i < 18; ++i) {
    if (order[i] == "atlas") ++atlas_grants;
  }
  EXPECT_GE(atlas_grants, 10u);
  EXPECT_LE(atlas_grants, 14u);

  // Lane accounting survived the churn: every live waiter admitted
  // exactly once, babar admitted none.
  for (const auto& lane : controller.lane_stats()) {
    if (lane.tenant == "atlas" || lane.tenant == "cms") {
      EXPECT_EQ(lane.admitted, 20u) << lane.tenant;
      EXPECT_EQ(lane.queued, 0u) << lane.tenant;
    }
    if (lane.tenant == "babar") {
      EXPECT_EQ(lane.admitted, 0u);
      EXPECT_EQ(lane.queued, 0u);
    }
  }
}

// With a known_tenant gate, attacker-minted tenant strings share the
// default lane instead of each growing permanent scheduler state.
TEST(TenantAdmissionTest, UnknownTenantsShareTheDefaultLane) {
  AdmissionConfig config;
  config.max_concurrent = 4;
  config.max_queued = 4;
  config.tenant_isolation = true;
  TenantQuota atlas;
  atlas.tenant = "atlas";
  config.tenant_quotas.push_back(atlas);
  config.known_tenant = [](const std::string& tenant) {
    return tenant == "atlas" || tenant == "cms";
  };
  AdmissionController controller(config);

  std::vector<AdmissionController::Ticket> held;
  for (int i = 0; i < 3; ++i) {
    auto ticket = controller.Admit(QueryPriority::kInteractive, nullptr,
                                   "rando-" + std::to_string(i));
    ASSERT_TRUE(ticket.ok());
    held.push_back(std::move(*ticket));
  }
  // Three unknown tenants produced one shared default lane, not three.
  auto stats = controller.lane_stats();
  ASSERT_EQ(stats.size(), 2u);  // "" (default) + "atlas" (configured)
  for (const auto& lane : stats) {
    if (lane.tenant.empty()) {
      EXPECT_EQ(lane.in_flight, 3u);
      EXPECT_EQ(lane.admitted, 3u);
    } else {
      EXPECT_EQ(lane.tenant, "atlas");
    }
  }
  // The ticket releases balance the lane actually charged (the default
  // lane), not the unknown name it was requested under.
  held.clear();
  for (const auto& lane : controller.lane_stats()) {
    EXPECT_EQ(lane.in_flight, 0u) << lane.tenant;
  }
  EXPECT_EQ(controller.in_flight(), 0u);

  // A tenant the gate recognizes still earns its own lane on demand.
  auto cms = controller.Admit(QueryPriority::kInteractive, nullptr, "cms");
  ASSERT_TRUE(cms.ok());
  EXPECT_EQ(controller.lane_stats().size(), 3u);

  // The per-tenant merge budget path resolves through the same gate.
  auto lease = controller.ReserveMergeMemory(100, "rando-99");
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(controller.lane_stats().size(), 3u);
}

// A lane whose weight is below one slot per rotation must still drain
// while a slot sits free: the dispatch pass recharges credit-starved
// backlogged lanes instead of waiting for unrelated traffic to trigger
// the next dispatch.
TEST(TenantAdmissionTest, FractionalWeightLaneDrainsBesideFreeSlot) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queued = 4;
  config.tenant_isolation = true;
  TenantQuota slow;
  slow.tenant = "slow";
  slow.weight = 0.02;  // clamps to kMinWeight = 1/64 of a slot per visit
  config.tenant_quotas.push_back(slow);
  AdmissionController controller(config);

  auto held = controller.Admit(QueryPriority::kInteractive, nullptr, "atlas");
  ASSERT_TRUE(held.ok());

  std::atomic<bool> granted{false};
  // The waiter carries a cancel token only so a regression cannot hang
  // the suite; it is never cancelled unless the deadline below trips.
  CancelToken guard = CancelToken::Cancellable();
  std::thread waiter([&] {
    auto ticket = controller.Admit(QueryPriority::kInteractive, &guard,
                                   "slow");
    if (ticket.ok()) granted.store(true);
  });
  while (controller.queued() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Releasing the only slot is the LAST admission event: the freed slot
  // must reach the fractional-weight waiter within this one dispatch.
  held->Release();
  for (int i = 0; i < 2000 && !granted.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  guard.Cancel();
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(controller.queued(), 0u);
  EXPECT_EQ(controller.in_flight(), 0u);
}

// The background batch lane: admitted strictly from idle capacity (never
// queued), capped below the non-reserved slots, shed the moment any
// foreground demand is waiting, and handing capacity back per release.
TEST(TenantAdmissionTest, BatchLaneUsesIdleCapacityAndYieldsUnderLoad) {
  AdmissionConfig config;
  config.max_concurrent = 4;
  config.max_queued = 4;
  config.interactive_reserve = 2;
  config.batch_slots = 0;  // derive: half of the 2 non-reserved slots = 1
  AdmissionController controller(config);

  // Idle server: one batch slot available, the second is over the cap.
  auto batch1 = controller.Admit(QueryPriority::kBatch, nullptr, "night");
  ASSERT_TRUE(batch1.ok());
  EXPECT_EQ(controller.batch_in_flight(), 1u);
  auto batch2 = controller.Admit(QueryPriority::kBatch, nullptr, "night");
  ASSERT_FALSE(batch2.ok());
  EXPECT_EQ(batch2.status().code(), StatusCode::kResourceExhausted);
  // Sheds are hints, not errors: the message carries a retry-after.
  EXPECT_GT(rpc::RetryAfterHintMs(batch2.status().message()), 0.0);

  // Releasing hands the capacity back immediately.
  batch1->Release();
  EXPECT_EQ(controller.batch_in_flight(), 0u);
  auto batch3 = controller.Admit(QueryPriority::kBatch, nullptr, "night");
  ASSERT_TRUE(batch3.ok());

  // The interactive reserve is untouchable even while batch runs.
  std::vector<AdmissionController::Ticket> interactive;
  for (int i = 0; i < 3; ++i) {
    auto ticket =
        controller.Admit(QueryPriority::kInteractive, nullptr, "atlas");
    ASSERT_TRUE(ticket.ok()) << i;
    interactive.push_back(std::move(*ticket));
  }
  // 3 interactive + 1 batch = max_concurrent; a queued interactive waiter
  // must make the NEXT batch request shed even after batch capacity
  // frees, because foreground demand outranks background fill.
  CancelToken guard = CancelToken::Cancellable();
  std::thread waiter([&] {
    auto ticket =
        controller.Admit(QueryPriority::kInteractive, &guard, "atlas");
    (void)ticket;
  });
  while (controller.queued() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  batch3->Release();
  auto shed_for_foreground =
      controller.Admit(QueryPriority::kBatch, nullptr, "night");
  EXPECT_FALSE(shed_for_foreground.ok());
  guard.Cancel();
  waiter.join();
  for (auto& t : interactive) t.Release();
  EXPECT_EQ(controller.in_flight(), 0u);
  EXPECT_EQ(controller.batch_in_flight(), 0u);
}

// Regression: a cancelled waiter must return any DRR deficit credit its
// grant charged to the lane IMMEDIATELY (before the redispatch it
// triggers), not on a later dispatch pass — under backlog a taxed lane
// would otherwise hand its next slot to the competing lane and drift off
// its weight. The storm below drives both cancellation exits (cancelled
// while queued, and the grant/cancel race) while two uncancelled lanes
// keep the slot contended; afterwards the drain must be complete, the
// accounting exact, and the uncancelled lanes' shares on weight.
TEST(TenantAdmissionTest, CancelUnderBacklogKeepsLaneCreditAndFairness) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queued = 64;
  config.tenant_isolation = true;
  for (const char* tenant : {"atlas", "cms", "storm"}) {
    TenantQuota quota;
    quota.tenant = tenant;
    quota.weight = 1.0;
    config.tenant_quotas.push_back(quota);
  }
  AdmissionController controller(config);

  auto seed = controller.Admit(QueryPriority::kInteractive, nullptr, "seed");
  ASSERT_TRUE(seed.ok());

  // Two steady lanes, 12 waiters each; one storm lane whose 8 waiters all
  // share a token that is cancelled while the backlog drains.
  std::mutex order_mu;
  std::vector<std::string> order;
  std::vector<std::thread> steady;
  for (int i = 0; i < 24; ++i) {
    const std::string tenant = (i % 2 == 0) ? "atlas" : "cms";
    steady.emplace_back([&controller, &order_mu, &order, tenant] {
      auto ticket =
          controller.Admit(QueryPriority::kInteractive, nullptr, tenant);
      EXPECT_TRUE(ticket.ok());
      if (ticket.ok()) {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(tenant);
      }
    });
  }
  CancelToken storm_cancel = CancelToken::Cancellable();
  std::atomic<int> storm_granted{0};
  std::vector<std::thread> storm;
  for (int i = 0; i < 8; ++i) {
    storm.emplace_back([&controller, &storm_cancel, &storm_granted] {
      auto ticket = controller.Admit(QueryPriority::kInteractive,
                                     &storm_cancel, "storm");
      // A storm waiter either loses the race (cancelled) or wins a grant
      // before the cancel lands; both are legal, leaks are not.
      if (ticket.ok()) storm_granted.fetch_add(1);
    });
  }
  while (controller.queued() < 32) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Start the drain, then cancel the storm mid-drain so cancellations
  // interleave with grants instead of all resolving while queued.
  seed->Release();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  storm_cancel.Cancel();
  for (auto& t : storm) t.join();
  for (auto& t : steady) t.join();

  // Complete drain, exact accounting: nothing queued, nothing in flight,
  // every steady waiter admitted exactly once.
  ASSERT_EQ(order.size(), 24u);
  EXPECT_EQ(controller.queued(), 0u);
  EXPECT_EQ(controller.in_flight(), 0u);
  for (const auto& lane : controller.lane_stats()) {
    if (lane.tenant == "atlas" || lane.tenant == "cms") {
      EXPECT_EQ(lane.admitted, 12u) << lane.tenant;
      EXPECT_EQ(lane.queued, 0u) << lane.tenant;
    }
    if (lane.tenant == "storm") {
      EXPECT_EQ(lane.admitted, static_cast<size_t>(storm_granted.load()));
      EXPECT_EQ(lane.queued, 0u);
    }
  }
  // Equal weights: while both steady lanes were backlogged (the first 20
  // grants, with 12 waiters each), neither lane's share may collapse. A
  // leaked credit per storm cancellation would tax whichever lane the
  // grant had charged and skew this window.
  size_t atlas_early = 0;
  const size_t window = std::min<size_t>(order.size(), 20);
  for (size_t i = 0; i < window; ++i) {
    if (order[i] == "atlas") ++atlas_early;
  }
  EXPECT_GE(atlas_early, window / 2 - 4);
  EXPECT_LE(atlas_early, window / 2 + 4);
}

TEST(TenantAdmissionTest, PerTenantMergeMemoryBudget) {
  AdmissionConfig config;
  config.max_concurrent = 4;
  config.tenant_isolation = true;
  TenantQuota cms;
  cms.tenant = "cms";
  cms.merge_memory_budget_bytes = 1000;
  config.tenant_quotas.push_back(cms);
  AdmissionController controller(config);

  auto first = controller.ReserveMergeMemory(600, "cms");
  ASSERT_TRUE(first.ok());
  auto second = controller.ReserveMergeMemory(600, "cms");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("tenant 'cms'"),
            std::string::npos);

  // Another tenant's merges are untouched by cms's budget (no global
  // budget is configured here).
  auto other = controller.ReserveMergeMemory(600, "atlas");
  EXPECT_TRUE(other.ok());

  // The lone-oversized exemption applies per lane too.
  first->Release();
  auto oversized = controller.ReserveMergeMemory(5000, "cms");
  EXPECT_TRUE(oversized.ok());
  auto crowded = controller.ReserveMergeMemory(10, "cms");
  EXPECT_EQ(crowded.status().code(), StatusCode::kResourceExhausted);
}

TEST(TenantAdmissionTest, LegacySingleLaneIgnoresTenants) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  AdmissionController controller(config);  // tenant_isolation off

  auto held = controller.Admit(QueryPriority::kInteractive, nullptr, "atlas");
  ASSERT_TRUE(held.ok());
  auto shed = controller.Admit(QueryPriority::kInteractive, nullptr, "cms");
  ASSERT_FALSE(shed.ok());  // one shared lane: tenants contend together
  EXPECT_EQ(shed.status().message().find("tenant"), std::string::npos);
  EXPECT_TRUE(controller.lane_stats().empty());
}

}  // namespace
}  // namespace griddb::core
