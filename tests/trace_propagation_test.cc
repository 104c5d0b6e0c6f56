// Distributed-trace propagation through the XML-RPC wire: a federated
// query forwarded via the RLS to a remote JClarens server must continue
// the caller's trace (remote child spans ship back and stitch into one
// connected tree), injected faults must not corrupt or duplicate spans,
// and untraced traffic must stay byte-identical on the wire. Spans read
// the query's cost ledger, so on the Table 1 testbed every span tree adds
// up to the query's simulated time.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/testbed.h"
#include "griddb/core/jclarens_server.h"
#include "griddb/net/fault.h"
#include "griddb/obs/metrics.h"

namespace griddb::core {
namespace {

constexpr char kRlsUrl[] = "rls://rls-host:39281/rls";
constexpr char kServerAUrl[] = "clarens://server-a:8080/clarens";
constexpr char kServerBUrl[] = "clarens://server-b:8080/clarens";

// Two JClarens servers (each owning one database plus one replica of a
// shared table) behind a central RLS, and a query-only coordinator on
// the client host — the fault_tolerance_test topology with tracing on.
struct TracePropagationFixture : public ::testing::Test {
  TracePropagationFixture()
      : transport(&network, net::ServiceCosts::Default()),
        db_a("db_a", sql::Vendor::kMySql),
        db_b("db_b", sql::Vendor::kMySql),
        db_ra("db_ra", sql::Vendor::kMySql),
        db_rb("db_rb", sql::Vendor::kMySql) {
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
    for (engine::Database* db : {&db_ra, &db_rb}) {
      EXPECT_TRUE(db->Execute("CREATE TABLE SHARED_EVENTS (ID INT PRIMARY "
                              "KEY, V DOUBLE)")
                      .ok());
      for (const char* row : {"(1, 0.5)", "(2, 1.5)", "(3, 2.5)"}) {
        EXPECT_TRUE(db->Execute(std::string("INSERT INTO SHARED_EVENTS (ID, "
                                            "V) VALUES ") +
                                row)
                        .ok());
      }
    }

    EXPECT_TRUE(
        catalog.Add({"mysql://server-a/db_a", &db_a, "server-a", "", ""}).ok());
    EXPECT_TRUE(
        catalog.Add({"mysql://server-b/db_b", &db_b, "server-b", "", ""}).ok());
    EXPECT_TRUE(
        catalog.Add({"mysql://server-a/db_ra", &db_ra, "server-a", "", ""})
            .ok());
    EXPECT_TRUE(
        catalog.Add({"mysql://server-b/db_rb", &db_rb, "server-b", "", ""})
            .ok());

    DataAccessConfig config_a;
    config_a.server_name = "jclarens-a";
    config_a.host = "server-a";
    config_a.server_url = kServerAUrl;
    config_a.rls_url = kRlsUrl;
    config_a.tracing = true;
    server_a = std::make_unique<JClarensServer>(config_a, &catalog, &transport);
    EXPECT_TRUE(
        server_a->service().RegisterLiveDatabase("mysql://server-a/db_a", "")
            .ok());
    EXPECT_TRUE(
        server_a->service().RegisterLiveDatabase("mysql://server-a/db_ra", "")
            .ok());

    DataAccessConfig config_b;
    config_b.server_name = "jclarens-b";
    config_b.host = "server-b";
    config_b.server_url = kServerBUrl;
    config_b.rls_url = kRlsUrl;
    config_b.tracing = true;
    server_b = std::make_unique<JClarensServer>(config_b, &catalog, &transport);
    EXPECT_TRUE(
        server_b->service().RegisterLiveDatabase("mysql://server-b/db_b", "")
            .ok());
    EXPECT_TRUE(
        server_b->service().RegisterLiveDatabase("mysql://server-b/db_rb", "")
            .ok());
  }

  /// Query-only traced coordinator on the client host: every table
  /// resolves through the RLS and is fetched by forwarding.
  DataAccessConfig CoordinatorConfig() const {
    DataAccessConfig config;
    config.server_name = "coordinator";
    config.host = "client";
    config.rls_url = kRlsUrl;
    config.tracing = true;
    config.trace_seed = 0xC0FFEE;
    return config;
  }

  /// True when every span's parent is either 0 (a root) or another span
  /// in the same set — i.e. the trace forms connected trees.
  static void ExpectConnected(const std::vector<obs::SpanRecord>& spans) {
    std::set<uint64_t> ids;
    for (const obs::SpanRecord& span : spans) ids.insert(span.span_id);
    EXPECT_EQ(ids.size(), spans.size()) << "span ids must be unique";
    for (const obs::SpanRecord& span : spans) {
      if (span.parent_span_id == 0) continue;
      EXPECT_TRUE(ids.count(span.parent_span_id))
          << "dangling parent for span " << span.name;
    }
  }

  static const obs::SpanRecord* Find(const std::vector<obs::SpanRecord>& spans,
                                     const std::string& name) {
    for (const obs::SpanRecord& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  }

  static const obs::SpanRecord* FindById(
      const std::vector<obs::SpanRecord>& spans, uint64_t span_id) {
    for (const obs::SpanRecord& span : spans) {
      if (span.span_id == span_id) return &span;
    }
    return nullptr;
  }

  net::Network network;
  rpc::Transport transport;
  engine::Database db_a;
  engine::Database db_b;
  engine::Database db_ra;
  engine::Database db_rb;
  ral::DatabaseCatalog catalog;
  std::unique_ptr<rls::RlsServer> rls;
  std::unique_ptr<JClarensServer> server_a;
  std::unique_ptr<JClarensServer> server_b;
};

TEST_F(TracePropagationFixture, ForwardedQueryYieldsOneConnectedTrace) {
  // Drop the spans the servers recorded while publishing their tables to
  // the RLS during setup, so the post-query count isolates this query.
  server_a->service().tracer().Clear();
  server_b->service().tracer().Clear();

  DataAccessService coordinator(CoordinatorConfig(), &catalog, &transport);
  QueryStats stats;
  auto rs = coordinator.Query("SELECT id, v FROM events_a", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 3u);

  std::vector<obs::SpanRecord> spans = coordinator.tracer().Finished();
  ASSERT_FALSE(spans.empty());
  // One trace with one root — the coordinator's own query span (the
  // remote's "dataaccess.query" is imported too, but it has a parent).
  const obs::SpanRecord* root = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_span_id == 0) {
      EXPECT_EQ(root, nullptr) << "more than one root span";
      root = &span;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "dataaccess.query");
  for (const obs::SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, root->trace_id) << span.name;
  }
  ExpectConnected(spans);

  // The remote subtree came back over the wire: the handler span parents
  // under the forward's rpc.call and carries the producing host; the
  // remote service's own spans nest beneath it.
  const obs::SpanRecord* remote = Find(spans, "dataaccess.query.remote");
  ASSERT_NE(remote, nullptr) << coordinator.tracer().FormatTrace(
      root->trace_id);
  EXPECT_EQ(remote->host, "server-a");
  const obs::SpanRecord* call = FindById(spans, remote->parent_span_id);
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->name, "rpc.call");
  const obs::SpanRecord* forward = FindById(spans, call->parent_span_id);
  ASSERT_NE(forward, nullptr);
  EXPECT_EQ(forward->name, "dataaccess.forward");
  EXPECT_EQ(forward->parent_span_id, root->span_id);
  // The coordinator opens its own unity.plan (binding events_a as a
  // remote table) before consulting the RLS, so look specifically for the
  // remote server's planning span.
  const obs::SpanRecord* remote_plan = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "unity.plan" && span.host == "server-a") {
      remote_plan = &span;
    }
  }
  ASSERT_NE(remote_plan, nullptr);

  // The server shipped (not kept) the subtree — nothing remains there.
  EXPECT_EQ(server_a->service().tracer().finished_count(), 0u);

  // The rendered tree shows the cross-host nesting.
  std::string tree = coordinator.tracer().FormatTrace(root->trace_id);
  EXPECT_NE(tree.find("dataaccess.query.remote @server-a"),
            std::string::npos)
      << tree;
}

TEST_F(TracePropagationFixture, MixedQueryHasOneSpanShape) {
  // events_a and shared_events are local to server A; events_b lives on
  // server B. The mixed plan fans out like a local one: one
  // dataaccess.subquery per local sub-query and one per remote server
  // task, all under the query span, then one dataaccess.merge.
  DataAccessService& service = server_a->service();
  service.tracer().Clear();
  QueryStats stats;
  auto rs = service.Query(
      "SELECT a.id, b.v, s.v FROM events_a a JOIN events_b b ON a.id = b.id "
      "JOIN shared_events s ON a.id = s.id",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 2u);

  std::vector<obs::SpanRecord> spans = service.tracer().Finished();
  ExpectConnected(spans);
  const obs::SpanRecord* root = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_span_id == 0) root = &span;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "dataaccess.query");
  size_t subqueries = 0, merges = 0, remote_tasks = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_span_id != root->span_id) continue;
    if (span.name == "dataaccess.merge") ++merges;
    if (span.name != "dataaccess.subquery") continue;
    ++subqueries;
    // The remote server's task carries the forward of its fetch.
    for (const obs::SpanRecord& child : spans) {
      if (child.parent_span_id == span.span_id &&
          child.name == "dataaccess.forward") {
        ++remote_tasks;
      }
    }
  }
  EXPECT_EQ(subqueries, 3u) << service.tracer().FormatTrace(root->trace_id);
  EXPECT_EQ(remote_tasks, 1u);
  EXPECT_EQ(merges, 1u);
}

TEST_F(TracePropagationFixture, FaultyNetworkDoesNotCorruptOrLeakSpans) {
  // Drops and delays on every link; retries rescue the queries. Spans
  // must survive with unique ids and resolvable parents — a response
  // dropped after the server handled it must not produce duplicate or
  // stale remote spans on the next attempt.
  auto plan = std::make_shared<net::FaultPlan>(17);
  net::LinkFaultSpec faults;
  faults.drop_probability = 0.15;
  faults.delay_probability = 0.3;
  faults.delay_ms = 20.0;
  plan->SetDefaultLinkFaults(faults);
  network.InstallFaultPlan(plan);

  DataAccessConfig config = CoordinatorConfig();
  config.retry_policy = rpc::RetryPolicy::Default();
  DataAccessService coordinator(config, &catalog, &transport);

  size_t ok_queries = 0, retries = 0;
  for (int i = 0; i < 8; ++i) {
    QueryStats stats;
    auto rs = coordinator.Query("SELECT id, v FROM events_a", &stats);
    if (rs.ok()) {
      ++ok_queries;
      EXPECT_EQ(rs->num_rows(), 3u);
    }
    retries += stats.retries;
  }
  EXPECT_GT(ok_queries, 0u);

  std::vector<obs::SpanRecord> spans = coordinator.tracer().Finished();
  ASSERT_FALSE(spans.empty());
  ExpectConnected(spans);
  // Remote spans that made it back stay inside their own trace: group by
  // trace id and check each group has exactly one root.
  std::map<uint64_t, size_t> roots_per_trace;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_span_id == 0) ++roots_per_trace[span.trace_id];
  }
  for (const auto& [trace_id, roots] : roots_per_trace) {
    EXPECT_EQ(roots, 1u) << "trace " << trace_id;
  }
}

TEST_F(TracePropagationFixture, UntracedCoordinatorProducesNoSpans) {
  // Traced servers + untraced client: no trace context rides the request,
  // so the handler opens no remote span and the response carries no
  // "spans" member to import. The request wire bytes carry no
  // <traceContext> element (fault-free output stays byte-identical).
  DataAccessConfig config = CoordinatorConfig();
  config.tracing = false;
  DataAccessService coordinator(config, &catalog, &transport);
  QueryStats stats;
  auto rs = coordinator.Query("SELECT id, v FROM events_a", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(coordinator.tracer().finished_count(), 0u);
}

TEST_F(TracePropagationFixture, TraceContextEncodesSparsely) {
  rpc::RpcRequest request;
  request.method = "dataaccess.query";
  request.params.emplace_back(std::string("SELECT 1"));
  const std::string untraced = rpc::EncodeRequest(request);
  EXPECT_EQ(untraced.find("traceContext"), std::string::npos);

  request.trace_id = 0xabc;
  request.parent_span_id = 0xdef;
  const std::string traced = rpc::EncodeRequest(request);
  EXPECT_NE(traced.find("traceContext"), std::string::npos);
  auto decoded = rpc::DecodeRequest(traced);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace_id, 0xabcu);
  EXPECT_EQ(decoded->parent_span_id, 0xdefu);

  auto round = rpc::DecodeRequest(untraced);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->trace_id, 0u);
  EXPECT_EQ(round->parent_span_id, 0u);
}

TEST_F(TracePropagationFixture, SlowQueryThresholdCountsAndDumps) {
  obs::Counter* slow =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.slow_queries");
  ASSERT_NE(slow, nullptr);
  const uint64_t before = slow->value();

  DataAccessConfig config = CoordinatorConfig();
  config.slow_query_ms = 0.001;  // every remote query exceeds this
  DataAccessService coordinator(config, &catalog, &transport);
  QueryStats stats;
  auto rs = coordinator.Query("SELECT id, v FROM events_a", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_GT(slow->value(), before);
}

TEST_F(TracePropagationFixture, MetricsRpcServesSnapshot) {
  // Drive one traced query, then fetch the metrics endpoint like an
  // operator would and check the counters that must have moved.
  DataAccessService coordinator(CoordinatorConfig(), &catalog, &transport);
  QueryStats stats;
  ASSERT_TRUE(coordinator.Query("SELECT id, v FROM events_a", &stats).ok());

  rpc::RpcClient client(&transport, "client", kServerAUrl);
  net::Cost cost;
  auto response = client.Call("dataaccess.metrics", {}, &cost);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto counters = response->Member("counters");
  ASSERT_TRUE(counters.ok());
  auto queries = (*counters)->Member("griddb.core.queries");
  ASSERT_TRUE(queries.ok());
  auto value = (*queries)->AsInt();
  ASSERT_TRUE(value.ok());
  EXPECT_GT(*value, 0);
  auto histograms = response->Member("histograms");
  ASSERT_TRUE(histograms.ok());
  EXPECT_TRUE((*histograms)->Member("griddb.core.query_ms").ok());
}

// ---------- one query clock: span trees on the Table 1 testbed ----------

const char* const kTableOneQueries[] = {
    "SELECT id, value FROM chunk_my_a1_0",
    "SELECT a.id, a.value, b.value FROM chunk_my_a1_0 a "
    "JOIN chunk_ms_a1_0 b ON a.id = b.id",
    "SELECT a.id, a.value, b.value, c.value, d.value "
    "FROM chunk_my_a1_0 a JOIN chunk_ms_a1_0 b ON a.id = b.id "
    "JOIN chunk_my_b1_0 c ON a.id = c.id "
    "JOIN chunk_ms_b1_0 d ON a.id = d.id",
};

double EndMs(const obs::SpanRecord& span) {
  return span.start_ms + span.duration_ms;
}

bool IsRemoteTask(const obs::SpanRecord& span) {
  for (const auto& [key, value] : span.attrs) {
    if (key == "server") return true;
  }
  return false;
}

// Parameter: parallel (true) or serial (false) sub-query fan-out.
class TableOneClockTest : public ::testing::TestWithParam<bool> {};

TEST_P(TableOneClockTest, SpanTreesAddUpToSimulatedMs) {
  constexpr double kTolMs = 1e-6;
  bench::TestbedOptions options;
  options.tracing = true;
  options.parallel_subqueries = GetParam();
  std::unique_ptr<bench::Testbed> bed = bench::Testbed::Build(options);
  DataAccessService& service = bed->server_a->service();
  for (const char* sql : kTableOneQueries) {
    SCOPED_TRACE(sql);
    service.tracer().Clear();
    QueryStats stats;
    auto rs = service.Query(sql, &stats);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();

    const std::vector<obs::SpanRecord> spans = service.tracer().Finished();
    const obs::SpanRecord* root = nullptr;
    for (const obs::SpanRecord& span : spans) {
      if (span.parent_span_id == 0) root = &span;
    }
    ASSERT_NE(root, nullptr);
    ASSERT_EQ(root->name, "dataaccess.query");
    const std::string tree = service.tracer().FormatTrace(root->trace_id);

    // The root span is the query's ledger, end to end.
    EXPECT_NEAR(root->duration_ms, stats.simulated_ms, 0.1) << tree;
    // Every span lies inside its parent, imported remote spans included.
    for (const obs::SpanRecord& span : spans) {
      if (span.parent_span_id == 0) continue;
      const obs::SpanRecord* parent =
          TracePropagationFixture::FindById(spans, span.parent_span_id);
      ASSERT_NE(parent, nullptr) << span.name << "\n" << tree;
      EXPECT_GE(span.start_ms, parent->start_ms - kTolMs)
          << span.name << " starts before " << parent->name << "\n" << tree;
      EXPECT_LE(EndMs(span), EndMs(*parent) + kTolMs)
          << span.name << " ends after " << parent->name << "\n" << tree;
    }

    // The fan-out: every task starts at the fan-out instant (serial mode
    // runs the local ones back to back from it), and the merge starts
    // when the last of them ends.
    std::vector<const obs::SpanRecord*> local, remote;
    const obs::SpanRecord* merge = nullptr;
    for (const obs::SpanRecord& span : spans) {
      if (span.parent_span_id != root->span_id) continue;
      if (span.name == "dataaccess.merge") merge = &span;
      if (span.name != "dataaccess.subquery") continue;
      (IsRemoteTask(span) ? remote : local).push_back(&span);
    }
    if (local.empty() && remote.empty()) continue;  // one database: direct
    ASSERT_NE(merge, nullptr) << tree;
    ASSERT_FALSE(local.empty()) << tree;
    std::sort(local.begin(), local.end(),
              [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
                return a->start_ms < b->start_ms;
              });
    const double fanout_ms = local.front()->start_ms;
    double last_end = 0;
    for (size_t k = 0; k < local.size(); ++k) {
      const double expected_start =
          GetParam() || k == 0 ? fanout_ms : EndMs(*local[k - 1]);
      EXPECT_NEAR(local[k]->start_ms, expected_start, kTolMs) << tree;
      last_end = std::max(last_end, EndMs(*local[k]));
    }
    for (const obs::SpanRecord* task : remote) {
      EXPECT_NEAR(task->start_ms, fanout_ms, kTolMs) << tree;
      last_end = std::max(last_end, EndMs(*task));
    }
    EXPECT_NEAR(merge->start_ms, last_end, kTolMs) << tree;
  }
}

INSTANTIATE_TEST_SUITE_P(FanOut, TableOneClockTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Parallel" : "Serial";
                         });

}  // namespace
}  // namespace griddb::core
