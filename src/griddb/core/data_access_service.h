// The data access layer (paper §4.5) — the system's core contribution.
//
// One instance runs inside each JClarens server. It:
//  - registers databases (XSpec pairs) into the Unity data dictionary;
//  - answers SQL queries over the *logical* schema along one execution
//    path: the Unity planner binds every table to a location (a local
//    mart, or the remote JClarens servers the Replica Location Service
//    names for a table not registered here); the statement then runs
//    whole at one location, or as per-location sub-queries — local ones
//    routed to the POOL-RAL wrapper (POOL-supported vendors) or the
//    JDBC/Unity path (everything else), remote ones forwarded — executed
//    in parallel and merged (cross-database joins included) into a
//    single 2-D result.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "griddb/cache/query_cache.h"
#include "griddb/core/admission.h"
#include "griddb/core/rbac.h"
#include "griddb/obs/trace.h"
#include "griddb/ral/catalog.h"
#include "griddb/ral/pool_ral.h"
#include "griddb/rls/rls.h"
#include "griddb/rpc/server.h"
#include "griddb/storage/digest.h"
#include "griddb/unity/driver.h"
#include "griddb/util/thread_pool.h"

namespace griddb::core {

struct DataAccessConfig {
  std::string server_name = "jclarens";
  std::string host = "localhost";
  std::string server_url;  ///< This service's public URL.
  std::string rls_url;     ///< Empty = no RLS (lookups fail as NotFound).

  // Driver behaviour (the paper's enhancements; switch off for baselines).
  bool enhanced_driver = true;
  bool parallel_subqueries = true;
  bool projection_pushdown = true;
  bool predicate_pushdown = true;

  std::string db_user;  ///< Credentials presented to backend databases.
  std::string db_password;

  // Fault tolerance. The defaults preserve the seed's fail-fast behaviour
  // (and the paper-calibrated measurements): no retries, no RLS caching,
  // whole-query failure on any sub-query error.
  /// Retry/deadline behaviour of every outbound RPC (remote JClarens
  /// peers and the RLS).
  rpc::RetryPolicy retry_policy = rpc::RetryPolicy::None();
  /// Cache RLS lookups locally; entries are invalidated when the server
  /// they name fails, forcing a fresh catalog consultation.
  bool rls_cache = false;
  /// Return rows from healthy marts plus a per-sub-query error report
  /// (QueryStats::subquery_errors) instead of failing the whole query.
  bool partial_results = false;
  /// Circuit breaker: skip a peer after this many consecutive failures...
  int breaker_failure_threshold = 3;
  /// ...until this much virtual time has passed (half-open afterwards).
  double breaker_cooldown_ms = 5000.0;

  // Query caching (cache/). Off by default: cache-cold behaviour, the
  // wire bytes of every response and the paper-calibrated measurements
  // are all unchanged until an operator opts in.
  /// Enable the plan + result cache on this server's read path.
  bool query_cache = false;
  /// Plan-cache capacity (entries, LRU).
  size_t plan_cache_entries = 128;
  /// Result-cache byte budget (ResultSet wire size, LRU).
  size_t result_cache_bytes = 8u << 20;
  /// Stale-while-revalidate: when execution fails with a transient error
  /// (replicas down, breaker open), serve the last-known-good cached
  /// result of the same query and schema epoch, tagged stale=true in
  /// QueryStats. Requires query_cache; off by default like
  /// partial_results.
  bool serve_stale_results = false;

  // Observability (obs/). Off by default: an untraced request and its
  // response are byte-identical to the pre-tracing wire format, which
  // keeps the Table 1 / Fig 4-6 measurements unchanged.
  /// Emit hierarchical spans for query processing; forwarded queries
  /// continue the caller's trace and ship their spans back.
  bool tracing = false;
  /// Span/trace-id seed. 0 derives a per-server seed from server_url so
  /// two servers never mint colliding span ids.
  uint64_t trace_seed = 0;
  /// Queries whose simulated response time reaches this many ms get their
  /// span tree dumped to the log (requires tracing). <= 0 disables.
  double slow_query_ms = 0;

  // Overload protection (core/admission, util/cancellation). All defaults
  // off: no deadline, no admission control, unbounded worker queue —
  // byte-identical seed behaviour until an operator opts in.
  /// Per-query budget (virtual ms) applied at this server's entry point.
  /// Combined with any budget the caller sent on the wire by taking the
  /// minimum; the remaining budget is forwarded on every outbound hop
  /// (sparse <deadlineMs> request member). <= 0 disables.
  double default_deadline_ms = 0;
  /// When a deadline expires (or the client aborts) mid-fan-out, return
  /// the rows already fetched plus per-sub-query error lines instead of
  /// kDeadlineExceeded. Reuses the partial_results plumbing; truncated
  /// responses are never cached. Off = whole-query kDeadlineExceeded.
  bool partial_on_deadline = false;
  /// Concurrency / queueing / priority-shedding / merge-memory bounds.
  AdmissionConfig admission;
  /// Bounds the fan-out worker pool's task queue; overflow tasks are
  /// rejected and the sub-query fails with retryable kResourceExhausted.
  /// 0 = unbounded (seed behaviour).
  size_t worker_queue_limit = 0;

  // Binary wire protocol (rpc/wire, DESIGN.md §16).
  /// Codec outbound sub-query/forward RPCs ask for: "" (default) follows
  /// the GRIDDB_WIRE environment toggle, "binary" requests the full
  /// binary/lz4/stream capability set, "xmlrpc" pins the text codec. The
  /// connect-time handshake still falls back to XML-RPC when the peer
  /// does not agree, so this is a preference, not a requirement.
  std::string wire_protocol;
  /// Flow-control window for streamed responses: chunk frames in flight
  /// before the next transfer waits for merge credit. Also sizes the
  /// per-window merge-memory lease taken while a stream is in progress.
  size_t stream_window = 4;

  // Multi-tenant isolation (core/rbac). Null = no RBAC: every tenant may
  // read every table, the seed behaviour.
  /// Grant catalog consulted at planning time: every referenced logical
  /// table must be covered by the requesting tenant's grants BEFORE any
  /// plan executes or any sub-query RPC fans out; a denied table fails
  /// fast with non-retryable kPermissionDenied. Shared so one catalog can
  /// serve several servers (one federation-wide grant set).
  std::shared_ptr<RbacCatalog> rbac;
};

/// Per-query measurements surfaced to clients and benches.
struct QueryStats {
  double simulated_ms = 0;   ///< Milliseconds charged to the query's ledger.
  bool distributed = false;  ///< Data fetched from more than one database.
  bool used_rls = false;     ///< RLS lookup was needed.
  size_t servers_contacted = 1;  ///< JClarens servers involved (incl. this).
  size_t databases = 0;
  size_t tables = 0;
  size_t rows = 0;
  size_t pool_ral_subqueries = 0;
  size_t jdbc_subqueries = 0;

  // Fault-recovery counters (aggregated across forwarding hops).
  size_t retries = 0;            ///< RPC attempts beyond each first try.
  size_t failovers = 0;          ///< Replica switches after a peer failed.
  size_t subqueries_failed = 0;  ///< Sub-queries dropped (partial mode).
  size_t breaker_skips = 0;      ///< Peers skipped by an open breaker.
  size_t replans = 0;            ///< Plans rebuilt after a schema-epoch
                                 ///< change landed mid-query.
  /// Partial-results error report: one "<subquery>: <status>" line per
  /// failed sub-query.
  std::vector<std::string> subquery_errors;

  // Cache counters (sparse on the wire, like the recovery counters: a
  // cache-cold or cache-off response serializes exactly as before).
  size_t plan_cache_hits = 0;    ///< Plans reused (parse/plan/render skipped).
  size_t result_cache_hits = 0;  ///< Whole-query results served from cache.
  size_t subquery_cache_hits = 0;  ///< Per-sub-query partials reused.
  /// Result served from the cache past a failure (stale-while-revalidate).
  bool stale = false;

  // Overload counters (sparse on the wire, same rule as above).
  size_t cancelled_subqueries = 0;  ///< Branches stopped by the cancel token.
};

class DataAccessService {
 public:
  DataAccessService(DataAccessConfig config, ral::DatabaseCatalog* catalog,
                    rpc::Transport* transport);

  const DataAccessConfig& config() const { return config_; }

  // ---- database registration ----

  /// Registers a database from an XSpec pair; publishes its logical
  /// tables to the RLS when one is configured.
  Status RegisterDatabase(const unity::UpperXSpecEntry& upper,
                          const unity::LowerXSpec& lower);
  /// Generates the lower XSpec from the live database behind
  /// `connection_string` and registers it (plug-in path, §4.10).
  Status RegisterLiveDatabase(const std::string& connection_string,
                              const std::string& driver_name);
  Status UnregisterDatabase(const std::string& database_name);

  /// Swaps a database's schema after a change (schema tracker, §4.9):
  /// dictionary entries are replaced and RLS publications reconciled.
  Status ReloadDatabase(const unity::UpperXSpecEntry& upper,
                        const unity::LowerXSpec& lower);

  /// Regenerates the lower XSpec for a registered database from the live
  /// engine (what the tracker thread runs periodically).
  Result<unity::LowerXSpec> GenerateXSpecFor(const std::string& database_name);
  /// Re-derives a registered database's XSpec from its live engine and
  /// reloads it, publishing tables created since registration. The batch
  /// service calls this when a finished job's result table lands in a
  /// tenant scratch mart, making it visible to follow-up queries.
  Status RefreshRegisteredDatabase(const std::string& database_name);
  Result<unity::UpperXSpecEntry> UpperEntryFor(
      const std::string& database_name);
  std::vector<std::string> RegisteredDatabases() const;

  /// Sorted logical tables registered locally.
  std::vector<std::string> LocalTables() const;
  /// Schema (logical names) of a locally registered table.
  Result<unity::TableBinding> DescribeTable(const std::string& logical) const;

  // ---- anti-entropy integrity (core/integrity_monitor) ----

  /// Order-insensitive content digest of a locally registered replica of
  /// `logical_table`. With an empty `database_name` the first replica
  /// wins; otherwise only that database's replica is digested. Exposed
  /// over RPC as dataaccess.tableDigest.
  Result<storage::TableDigest> TableDigest(const std::string& logical_table,
                                           const std::string& database_name);

  /// Takes a registered database out of query routing: the planner's
  /// replica filter hides its bindings, so queries fail over to healthy
  /// replicas (or fail with "no usable replica" when none remain).
  Status QuarantineDatabase(const std::string& database_name,
                            const std::string& reason);
  /// Puts a repaired database back into routing.
  Status ReinstateDatabase(const std::string& database_name);
  bool IsQuarantined(const std::string& database_name) const;
  std::vector<std::string> QuarantinedDatabases() const;

  // ---- query cache (cache/query_cache) ----

  cache::QueryCache& query_cache() { return cache_; }

  /// Feeds an observed content digest of a logical table into the cache's
  /// invalidation machinery (IntegrityMonitor calls this on every sweep;
  /// a digest change marks dependent cached results stale).
  void ObserveTableDigest(const std::string& logical_table,
                          const std::string& md5);

  /// Admin invalidation (dataaccess.cacheInvalidate): drops cached
  /// results for one logical table, or everything (plans included) when
  /// `logical_table` is empty. Returns the number of entries touched.
  size_t CacheInvalidate(const std::string& logical_table);

  // ---- query processing ----

  /// `forward_depth` counts how many times this query has already been
  /// forwarded between JClarens servers (loop guard); `forward_path`
  /// carries the visited server URLs for loop diagnostics. `ctx` carries
  /// the caller's cancel token, the start and deadline instants of the
  /// query's ledger, and the scheduling priority; the default (inert
  /// token, no deadline, interactive) preserves seed behaviour.
  Result<storage::ResultSet> Query(const std::string& sql_text,
                                   QueryStats* stats = nullptr,
                                   int forward_depth = 0,
                                   const std::string& forward_path = "",
                                   QueryContext ctx = {});

  /// Admission controller (introspection for tests and benches).
  AdmissionController& admission() { return admission_; }

  unity::UnityDriver& driver() { return driver_; }
  ral::PoolRal& pool_ral() { return pool_; }

  /// This service's tracer (enabled iff config.tracing). The RPC handler
  /// opens its server-side span here so Query's spans nest under it.
  obs::Tracer& tracer() { return tracer_; }

  /// Test seam: runs after a plan is built and before it executes,
  /// the window a concurrent schema change races into.
  void set_post_plan_hook(std::function<void()> hook) {
    post_plan_hook_ = std::move(hook);
  }

 private:
  /// kFailedPrecondition when the dictionary moved past `plan`'s epoch.
  Status CheckPlanEpoch(const unity::QueryPlan& plan) const;
  /// Builds the caching artefact for a fresh plan: takes ownership of the
  /// plan and pre-renders every per-dialect SQL string execution needs.
  std::shared_ptr<const cache::CachedPlan> PrerenderPlan(
      unity::QueryPlan plan) const;
  /// The one federated execution path (paper §4.5): plan (or reuse the
  /// cached plan), check its epoch, then run the whole statement at one
  /// location, or every sub-query at its location in one fan-out on
  /// `workers_` followed by one merge. `fingerprint` is empty when the
  /// query cache is off for this query. `stats` must be non-null.
  /// `cost` is the query's ledger; its token is checked before every
  /// sub-query and at row-batch granularity in the merge.
  Result<storage::ResultSet> Execute(const sql::SelectStmt& stmt,
                                     const std::string& fingerprint,
                                     net::Cost* cost, QueryStats* stats,
                                     int forward_depth,
                                     const std::string& forward_path,
                                     const std::string& tenant);

  /// Plan-time grant check: Ok when no RBAC catalog is configured,
  /// otherwise CheckSelect against `tenant` with mart resolution through
  /// the Unity dictionary. Runs before cache serves and before any plan
  /// or RPC fan-out, so a revoked grant takes effect on the next request
  /// and an unauthorized query costs no sub-query work.
  Status CheckTenantGrants(const std::string& tenant,
                           const std::vector<std::string>& tables) const;

  /// Routes one planned sub-query: POOL-RAL for supported vendors, JDBC
  /// otherwise (paper §4.6/§4.7). `render` carries the pre-rendered
  /// dialect strings from the (possibly cached) plan.
  Result<storage::ResultSet> ExecuteSubQueryRouted(
      const unity::SubQuery& sub, const cache::RenderedSubQuery& render,
      net::Cost* cost, QueryStats* stats);

  /// Runs a query on a remote JClarens server over RPC. The remaining
  /// deadline budget (if the ledger `cost` carries one) rides the request
  /// as the sparse <deadlineMs> member, so the remote side inherits a
  /// budget already shrunk by this hop's work.
  Result<storage::ResultSet> RemoteQuery(const std::string& server_url,
                                         const std::string& sql_text,
                                         net::Cost* cost, QueryStats* stats,
                                         int forward_depth,
                                         const std::string& forward_path,
                                         const std::string& tenant);

  /// Runs `sql_text` against the first candidate the circuit breaker
  /// allows; on a transient failure (kUnavailable/kTimeout, or kNotFound
  /// from a stale mapping) moves on to the next replica, re-consulting
  /// the RLS cache-invalidation machinery so later queries see fresh
  /// mappings. Counts breaker skips and failover switches into `stats`.
  Result<storage::ResultSet> RemoteQueryFailover(
      const std::vector<std::string>& candidates, const std::string& table,
      const std::string& sql_text, net::Cost* cost, QueryStats* stats,
      int forward_depth, const std::string& forward_path,
      const std::string& tenant);

  /// Circuit breaker bookkeeping (per server URL, virtual-clock cooldown).
  bool BreakerAllows(const std::string& server_url);
  void RecordPeerOutcome(const std::string& server_url, bool success);

  rpc::RpcClient* ClientFor(const std::string& server_url);

  DataAccessConfig config_;
  ral::DatabaseCatalog* catalog_;
  rpc::Transport* transport_;
  unity::UnityDriver driver_;
  ral::PoolRal pool_;
  obs::Tracer tracer_;
  std::unique_ptr<rls::RlsClient> rls_;
  ThreadPool workers_;
  cache::QueryCache cache_;
  AdmissionController admission_;
  /// Bumped whenever replica routing eligibility changes (quarantine /
  /// reinstate); part of the plan-cache validity token, since cached
  /// plans bake in a replica choice the epoch alone does not cover.
  std::atomic<uint64_t> routing_gen_{1};

  struct BreakerState {
    int consecutive_failures = 0;
    double open_until_ms = -1;  ///< Virtual-clock instant; <0 = closed.
  };

  mutable std::mutex mu_;
  std::map<std::string, unity::UpperXSpecEntry> registered_;  // by db name
  std::map<std::string, std::vector<std::string>> published_;  // db -> tables
  std::map<std::string, std::unique_ptr<rpc::RpcClient>> remote_clients_;
  std::map<std::string, BreakerState> breakers_;  // by server URL

  // Quarantine set under its own lock: the planner's replica filter reads
  // it on every plan, and must never contend with mu_ (held across RPC).
  mutable std::mutex quarantine_mu_;
  std::map<std::string, std::string> quarantined_;  // db name -> reason

  std::function<void()> post_plan_hook_;
};

/// True when `status` is the stale-schema-epoch failure raised between
/// planning and execution; callers replan (bounded) instead of failing.
bool IsEpochStale(const Status& status);

/// Converts a service QueryStats to/from the RPC struct form.
rpc::XmlRpcValue StatsToRpc(const QueryStats& stats);
QueryStats StatsFromRpc(const rpc::XmlRpcValue& value);

/// Span records cross the wire as an array of structs (ids as hex
/// strings; the error field is encoded sparsely). Shipped only for
/// requests that carried trace context, so untraced responses keep the
/// pre-tracing wire bytes.
rpc::XmlRpcValue SpansToRpc(const std::vector<obs::SpanRecord>& spans);
std::vector<obs::SpanRecord> SpansFromRpc(const rpc::XmlRpcValue& value);

}  // namespace griddb::core
