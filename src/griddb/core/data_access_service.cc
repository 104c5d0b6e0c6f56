#include "griddb/core/data_access_service.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <iterator>
#include <optional>
#include <set>

#include "griddb/obs/metrics.h"
#include "griddb/sql/fingerprint.h"
#include "griddb/sql/parser.h"
#include "griddb/sql/render.h"
#include "griddb/unity/planner.h"
#include "griddb/util/logging.h"
#include "griddb/util/md5.h"
#include "griddb/util/strings.h"

namespace griddb::core {

using storage::ResultSet;
using unity::LowerXSpec;
using unity::SubQuery;
using unity::UpperXSpecEntry;

namespace {

/// Worker threads of each service's fan-out pool; tasks beyond them queue.
constexpr size_t kFanoutThreads = 8;

const sql::Dialect& ClientDialect() {
  return sql::Dialect::For(sql::Vendor::kSqlite);
}

/// True when a single-database statement fits the POOL-RAL wrapper form:
/// plain column select items over FROM tables with an optional WHERE.
bool ExpressibleInRal(const sql::SelectStmt& stmt) {
  if (stmt.distinct || !stmt.group_by.empty() || stmt.having ||
      !stmt.order_by.empty() || stmt.limit || stmt.offset ||
      !stmt.joins.empty()) {
    return false;
  }
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr->kind != sql::Expr::Kind::kColumn) return false;
  }
  return true;
}

/// Columns of `effective` the statement references (qualified refs only) —
/// the schema an empty substitute partial needs so the merge still binds.
std::vector<std::string> ReferencedColumns(const sql::SelectStmt& stmt,
                                           const std::string& effective) {
  std::vector<const sql::ColumnRef*> refs;
  for (const sql::SelectItem& item : stmt.items) {
    sql::CollectColumnRefs(*item.expr, refs);
  }
  if (stmt.where) sql::CollectColumnRefs(*stmt.where, refs);
  for (const sql::Join& join : stmt.joins) {
    if (join.on) sql::CollectColumnRefs(*join.on, refs);
  }
  for (const sql::ExprPtr& e : stmt.group_by) sql::CollectColumnRefs(*e, refs);
  if (stmt.having) sql::CollectColumnRefs(*stmt.having, refs);
  for (const sql::OrderItem& item : stmt.order_by) {
    sql::CollectColumnRefs(*item.expr, refs);
  }
  std::vector<std::string> columns;
  for (const sql::ColumnRef* ref : refs) {
    if (!EqualsIgnoreCase(ref->table, effective)) continue;
    std::string lower = ToLower(ref->column);
    if (std::find(columns.begin(), columns.end(), lower) == columns.end()) {
      columns.push_back(std::move(lower));
    }
  }
  return columns;
}

/// A zero-row ResultSet with the given schema (partial-results substitute
/// for a failed sub-query; inner joins against it yield no rows, LEFT
/// JOINs NULL-pad).
ResultSet EmptyPartial(std::vector<std::string> columns) {
  ResultSet rs;
  rs.columns = std::move(columns);
  return rs;
}

/// Folds the counters of a fan-out branch, or of a remote server's
/// response, into the query's stats.
void AddStats(QueryStats* into, const QueryStats& from) {
  into->pool_ral_subqueries += from.pool_ral_subqueries;
  into->jdbc_subqueries += from.jdbc_subqueries;
  into->databases += from.databases;
  into->retries += from.retries;
  into->failovers += from.failovers;
  into->subqueries_failed += from.subqueries_failed;
  into->breaker_skips += from.breaker_skips;
  into->replans += from.replans;
  into->plan_cache_hits += from.plan_cache_hits;
  into->result_cache_hits += from.result_cache_hits;
  into->subquery_cache_hits += from.subquery_cache_hits;
  into->cancelled_subqueries += from.cancelled_subqueries;
  into->stale = into->stale || from.stale;
  into->subquery_errors.insert(into->subquery_errors.end(),
                               from.subquery_errors.begin(),
                               from.subquery_errors.end());
}

// Per-call-site instrument handles (see rpc/server.cc for the pattern).
obs::Counter& QueriesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.queries");
  return *c;
}
obs::Counter& QueryErrorsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.query_errors");
  return *c;
}
obs::Counter& SlowQueriesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.slow_queries");
  return *c;
}
obs::Counter& ReplansCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.replans");
  return *c;
}
obs::Counter& FailoversCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.failovers");
  return *c;
}
obs::Counter& BreakerSkipsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.breaker_skips");
  return *c;
}
obs::Counter& ForwardsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.forwards");
  return *c;
}
obs::Histogram& QueryMsHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Default().GetHistogram("griddb.core.query_ms");
  return *h;
}
obs::Histogram& SubqueryMsHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Default().GetHistogram("griddb.core.subquery_ms");
  return *h;
}
obs::Counter& PlanCacheHitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.cache.plan.hits");
  return *c;
}
obs::Counter& PlanCacheMissesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.cache.plan.misses");
  return *c;
}
obs::Counter& ResultCacheHitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.cache.result.hits");
  return *c;
}
obs::Counter& ResultCacheMissesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.cache.result.misses");
  return *c;
}
obs::Counter& SubqueryCacheHitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.cache.subquery.hits");
  return *c;
}
obs::Counter& SubqueryCacheMissesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.cache.subquery.misses");
  return *c;
}
obs::Counter& DeadlineExceededCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.admission.deadline_exceeded");
  return *c;
}
obs::Counter& CancelledSubqueriesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.admission.cancelled_subqueries");
  return *c;
}
obs::Histogram& StreamFirstChunkMs() {
  static obs::Histogram* h = obs::MetricsRegistry::Default().GetHistogram(
      "griddb.wire.stream_first_chunk_ms");
  return *h;
}

/// Consumes streamed sub-query chunks as they arrive (DESIGN.md §16):
/// the per-chunk credit returned to the client's flow-control window is
/// the simulated merge-integration time, so a slow merge stalls the
/// producer instead of buffering unboundedly. Memory accounting follows
/// the same window: while the stream is in flight the sink holds a
/// merge-memory lease sized to window x chunk bytes (not the whole
/// result), which is the point of streaming — the full-result 2x merge
/// lease is only taken later, once the rows exist anyway.
class WindowLeaseSink : public rpc::wire::StreamSink {
 public:
  WindowLeaseSink(AdmissionController* admission, std::string tenant,
                  size_t window, double integrate_per_row_ms)
      : admission_(admission),
        tenant_(std::move(tenant)),
        window_(window < 1 ? 1 : window),
        integrate_per_row_ms_(integrate_per_row_ms) {}

  void OnRestart() override {
    rows_.clear();
    lease_ = {};
  }

  Result<double> OnChunk(storage::ResultSet&& chunk, size_t seq) override {
    if (seq == 0) {
      size_t chunk_bytes = 0;
      for (const storage::Row& row : chunk.rows) {
        chunk_bytes += storage::RowWireSize(row);
      }
      // Shed (kResourceExhausted) aborts the attempt; the client's
      // RetryPolicy decides whether to come back.
      GRIDDB_ASSIGN_OR_RETURN(
          lease_, admission_->ReserveMergeMemory(window_ * chunk_bytes,
                                                 tenant_));
    }
    used_ = true;
    double credit_ms =
        integrate_per_row_ms_ * static_cast<double>(chunk.rows.size());
    rows_.insert(rows_.end(), std::make_move_iterator(chunk.rows.begin()),
                 std::make_move_iterator(chunk.rows.end()));
    return credit_ms;
  }

  bool used() const { return used_; }
  /// Hands the accumulated rows to the caller and drops the window lease.
  std::vector<storage::Row> TakeRows() {
    lease_ = {};
    return std::move(rows_);
  }

 private:
  AdmissionController* admission_;
  std::string tenant_;
  size_t window_;
  double integrate_per_row_ms_;
  bool used_ = false;
  std::vector<storage::Row> rows_;
  AdmissionController::MemoryLease lease_;
};

/// Status codes under which an opted-in client would rather see a stale
/// cached result than an error: the same transient set the replica
/// failover path treats as retry-worthy.
bool IsStaleServable(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kTimeout ||
         code == StatusCode::kNotFound || code == StatusCode::kCorruption ||
         code == StatusCode::kResourceExhausted;
}

/// FNV-1a over the server URL: a deterministic per-server tracer seed so
/// two servers in one process never mint colliding span ids.
uint64_t SeedFromUrl(const std::string& url) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : url) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash | 1;  // never 0 (0 would fall back to the tracer default)
}

std::string SpanHexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

uint64_t SpanParseHexU64(const std::string& text) {
  uint64_t v = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return 0;
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  return v;
}

}  // namespace

DataAccessService::DataAccessService(DataAccessConfig config,
                                     ral::DatabaseCatalog* catalog,
                                     rpc::Transport* transport)
    : config_(std::move(config)),
      catalog_(catalog),
      transport_(transport),
      driver_(catalog, transport->network(), transport->costs(),
              [&] {
                unity::UnityDriverOptions options;
                options.enhanced = config_.enhanced_driver;
                options.projection_pushdown = config_.projection_pushdown;
                options.predicate_pushdown = config_.predicate_pushdown;
                options.client_host = config_.host;
                options.user = config_.db_user;
                options.password = config_.db_password;
                return options;
              }()),
      pool_(catalog, transport->network(), transport->costs(), config_.host),
      workers_(kFanoutThreads,
               [&] {
                 // Overflowing fan-out tasks are rejected, not blocked: the
                 // submitting thread holds an admission slot, and blocking
                 // it on queue space would stall the very work that frees
                 // the queue. The branch surfaces kResourceExhausted.
                 ThreadPoolOptions options;
                 options.max_queue = config_.worker_queue_limit;
                 options.overflow = ThreadPoolOptions::Overflow::kReject;
                 return options;
               }()),
      cache_([&] {
        cache::QueryCacheConfig cc;
        cc.plan_capacity = config_.plan_cache_entries;
        cc.result_capacity_bytes = config_.result_cache_bytes;
        return cc;
      }()),
      admission_([&] {
        AdmissionConfig admission = config_.admission;
        // With both RBAC and tenant isolation on, only tenants known to
        // the grant catalog earn a dedicated lane; arbitrary tenant
        // strings (whose queries will be denied at plan time anyway)
        // share the default lane instead of growing permanent per-tenant
        // scheduler state. The shared_ptr capture keeps the catalog alive
        // for the controller's lifetime.
        if (admission.per_tenant() && config_.rbac && !admission.known_tenant) {
          std::shared_ptr<RbacCatalog> rbac = config_.rbac;
          admission.known_tenant = [rbac](const std::string& tenant) {
            return rbac->KnownTenant(tenant);
          };
        }
        return admission;
      }()) {
  // Quarantined databases are invisible to the planner; with every
  // replica of a table quarantined, planning fails with "no usable
  // replica" (kNotFound), which the failover path treats as transient.
  driver_.SetReplicaFilter([this](const unity::TableBinding& binding) {
    return !IsQuarantined(binding.database_name);
  });
  // Span ids are deterministic (seed + counter) and span timestamps come
  // off each query's cost ledger, so traces replay identically run to run.
  tracer_.Reseed(config_.trace_seed != 0
                     ? config_.trace_seed
                     : SeedFromUrl(config_.server_url.empty()
                                       ? config_.server_name + "@" + config_.host
                                       : config_.server_url));
  tracer_.set_enabled(config_.tracing);
  if (!config_.rls_url.empty()) {
    rls_ = std::make_unique<rls::RlsClient>(transport, config_.host,
                                            config_.rls_url);
    rls_->set_cache_enabled(config_.rls_cache);
    rls_->set_retry_policy(config_.retry_policy);
    rls_->set_tracer(&tracer_);
  }
}

// ---------- registration ----------

Status DataAccessService::RegisterDatabase(const UpperXSpecEntry& upper,
                                           const LowerXSpec& lower) {
  GRIDDB_RETURN_IF_ERROR(driver_.AddDatabase(upper, lower));
  std::vector<std::string> tables;
  for (const unity::XSpecTable& table : lower.tables) {
    tables.push_back(ToLower(table.logical_name));
  }
  if (rls_ && !config_.server_url.empty()) {
    Status published = rls_->PublishAll(tables, config_.server_url);
    if (!published.ok()) {
      GRIDDB_LOG(Warn) << "RLS publish failed for '" << upper.database_name
                       << "': " << published.ToString();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    registered_[upper.database_name] = upper;
    published_[upper.database_name] = std::move(tables);
  }
  // Connect to the database now (§4.10: "the server establishes a
  // connection with the database"). Registered databases are therefore
  // warm: a later non-distributed query pays no connect/auth. A failure
  // here (e.g. credentials) is deferred to query time.
  auto entry = catalog_->Find(upper.url);
  if (entry.ok()) {
    if (ral::IsPoolSupported(entry->database->vendor())) {
      Status warmed = pool_.InitHandle(upper.url, config_.db_user,
                                       config_.db_password, nullptr);
      if (!warmed.ok()) {
        GRIDDB_LOG(Warn) << "POOL handle init failed for '" << upper.url
                         << "': " << warmed.ToString();
      }
    }
    Status warmed = driver_.WarmConnection(upper.url);
    if (!warmed.ok()) {
      GRIDDB_LOG(Warn) << "JDBC warm-up failed for '" << upper.url
                       << "': " << warmed.ToString();
    }
  }
  return Status::Ok();
}

Status DataAccessService::RegisterLiveDatabase(
    const std::string& connection_string, const std::string& driver_name) {
  GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                          catalog_->Find(connection_string));
  LowerXSpec lower = unity::GenerateXSpec(*entry.database);
  UpperXSpecEntry upper;
  upper.database_name = entry.database->name();
  upper.url = connection_string;
  upper.driver = driver_name.empty()
                     ? std::string(sql::VendorName(entry.database->vendor()))
                     : driver_name;
  upper.lower_spec = upper.database_name + ".xspec";
  return RegisterDatabase(upper, lower);
}

Status DataAccessService::UnregisterDatabase(const std::string& database_name) {
  GRIDDB_RETURN_IF_ERROR(driver_.RemoveDatabase(database_name));
  std::lock_guard<std::mutex> lock(mu_);
  if (rls_ && !config_.server_url.empty()) {
    auto it = published_.find(database_name);
    if (it != published_.end()) {
      for (const std::string& table : it->second) {
        // Tables may still be published by another local database; only
        // unpublish when no other local database exports them.
        if (!driver_.dictionary().HasTable(table)) {
          (void)rls_->Unpublish(table, config_.server_url);
        }
      }
    }
  }
  registered_.erase(database_name);
  published_.erase(database_name);
  return Status::Ok();
}

Status DataAccessService::ReloadDatabase(const UpperXSpecEntry& upper,
                                         const LowerXSpec& lower) {
  GRIDDB_RETURN_IF_ERROR(driver_.ReplaceDatabase(upper, lower));
  std::vector<std::string> tables;
  for (const unity::XSpecTable& table : lower.tables) {
    tables.push_back(ToLower(table.logical_name));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (rls_ && !config_.server_url.empty()) {
    std::vector<std::string>& old_tables = published_[upper.database_name];
    for (const std::string& old_table : old_tables) {
      bool still_present =
          std::find(tables.begin(), tables.end(), old_table) != tables.end();
      if (!still_present && !driver_.dictionary().HasTable(old_table)) {
        (void)rls_->Unpublish(old_table, config_.server_url);
      }
    }
    (void)rls_->PublishAll(tables, config_.server_url);
  }
  registered_[upper.database_name] = upper;
  published_[upper.database_name] = std::move(tables);
  return Status::Ok();
}

Result<LowerXSpec> DataAccessService::GenerateXSpecFor(
    const std::string& database_name) {
  UpperXSpecEntry upper;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = registered_.find(database_name);
    if (it == registered_.end()) {
      return NotFound("database '" + database_name + "' is not registered");
    }
    upper = it->second;
  }
  GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                          catalog_->Find(upper.url));
  return unity::GenerateXSpec(*entry.database);
}

Status DataAccessService::RefreshRegisteredDatabase(
    const std::string& database_name) {
  GRIDDB_ASSIGN_OR_RETURN(UpperXSpecEntry upper, UpperEntryFor(database_name));
  GRIDDB_ASSIGN_OR_RETURN(LowerXSpec lower, GenerateXSpecFor(database_name));
  return ReloadDatabase(upper, lower);
}

Result<UpperXSpecEntry> DataAccessService::UpperEntryFor(
    const std::string& database_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = registered_.find(database_name);
  if (it == registered_.end()) {
    return NotFound("database '" + database_name + "' is not registered");
  }
  return it->second;
}

std::vector<std::string> DataAccessService::RegisteredDatabases() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(registered_.size());
  for (const auto& [name, upper] : registered_) {
    (void)upper;
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> DataAccessService::LocalTables() const {
  return driver_.dictionary().LogicalTables();
}

Result<unity::TableBinding> DataAccessService::DescribeTable(
    const std::string& logical) const {
  std::vector<unity::TableBinding> bindings =
      driver_.dictionary().Locate(logical);
  if (bindings.empty()) {
    return NotFound("table '" + logical + "' is not registered locally");
  }
  return bindings.front();
}

// ---------- anti-entropy integrity ----------

Result<storage::TableDigest> DataAccessService::TableDigest(
    const std::string& logical_table, const std::string& database_name) {
  std::vector<unity::TableBinding> replicas =
      driver_.dictionary().Locate(logical_table);
  if (replicas.empty()) {
    return NotFound("table '" + logical_table +
                    "' is not registered locally");
  }
  for (const unity::TableBinding& binding : replicas) {
    if (!database_name.empty() && binding.database_name != database_name) {
      continue;
    }
    GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                            catalog_->Find(binding.connection));
    return entry.database->ContentDigest(binding.physical);
  }
  return NotFound("table '" + logical_table + "' has no replica in '" +
                  database_name + "'");
}

Status DataAccessService::QuarantineDatabase(const std::string& database_name,
                                             const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!registered_.count(database_name)) {
      return NotFound("database '" + database_name + "' is not registered");
    }
  }
  GRIDDB_LOG(Warn) << "quarantining database '" << database_name
                   << "': " << reason;
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    quarantined_[database_name] = reason;
  }
  // Cached plans may have routed sub-queries to the now-suspect replica,
  // and cached results may hold rows fetched from it: bump the routing
  // generation (evicts plans lazily) and invalidate every cached result
  // over the quarantined database's tables.
  routing_gen_.fetch_add(1, std::memory_order_acq_rel);
  std::vector<std::string> tables;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = published_.find(database_name);
    if (it != published_.end()) tables = it->second;
  }
  for (const std::string& table : tables) cache_.InvalidateTable(table);
  return Status::Ok();
}

Status DataAccessService::ReinstateDatabase(const std::string& database_name) {
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    if (quarantined_.erase(database_name) == 0) {
      return NotFound("database '" + database_name + "' is not quarantined");
    }
  }
  // Replica eligibility changed again; cached plans must re-route.
  routing_gen_.fetch_add(1, std::memory_order_acq_rel);
  return Status::Ok();
}

bool DataAccessService::IsQuarantined(const std::string& database_name) const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_.count(database_name) != 0;
}

std::vector<std::string> DataAccessService::QuarantinedDatabases() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  std::vector<std::string> names;
  names.reserve(quarantined_.size());
  for (const auto& [name, reason] : quarantined_) {
    (void)reason;
    names.push_back(name);
  }
  return names;
}

// ---------- cache administration ----------

void DataAccessService::ObserveTableDigest(const std::string& logical_table,
                                           const std::string& md5) {
  cache_.ObserveDigest(ToLower(logical_table), md5);
}

size_t DataAccessService::CacheInvalidate(const std::string& logical_table) {
  if (logical_table.empty()) return cache_.Clear();
  return cache_.InvalidateTable(ToLower(logical_table));
}

// ---------- query processing ----------

std::shared_ptr<const cache::CachedPlan> DataAccessService::PrerenderPlan(
    unity::QueryPlan plan) const {
  auto cached = std::make_shared<cache::CachedPlan>();
  cached->plan = std::move(plan);
  const unity::QueryPlan& p = cached->plan;
  if (p.direct_stmt && !p.single_database) {
    // No local table: the text forwarded when one server holds them all.
    cached->direct_sql = sql::RenderSelect(*p.direct_stmt, ClientDialect());
  } else if (p.direct_stmt) {
    auto entry = catalog_->Find(p.connection);
    // A failed catalog lookup is left unrendered; execution re-runs the
    // same lookup and surfaces the identical error.
    if (entry.ok()) {
      const sql::Dialect& dialect = entry->database->dialect();
      if (ral::IsPoolSupported(entry->database->vendor()) &&
          ExpressibleInRal(*p.direct_stmt)) {
        cached->direct_pool_form = true;
        for (const sql::SelectItem& item : p.direct_stmt->items) {
          std::string field = sql::RenderExpr(*item.expr, dialect);
          if (!item.alias.empty()) {
            field += " AS " + dialect.QuoteIdentifier(item.alias);
          }
          cached->direct_fields.push_back(std::move(field));
        }
        for (const sql::TableRef& ref : p.direct_stmt->from) {
          std::string table = dialect.QuoteIdentifier(ref.table);
          if (!ref.alias.empty()) {
            table += " " + dialect.QuoteIdentifier(ref.alias);
          }
          cached->direct_tables.push_back(std::move(table));
        }
        if (p.direct_stmt->where) {
          cached->direct_where =
              sql::RenderExpr(*p.direct_stmt->where, dialect);
        }
      } else {
        cached->direct_sql = sql::RenderSelect(*p.direct_stmt, dialect);
      }
    }
  }
  cached->subquery_renders.resize(p.subqueries.size());
  for (size_t i = 0; i < p.subqueries.size(); ++i) {
    const SubQuery& sub = p.subqueries[i];
    cache::RenderedSubQuery& render = cached->subquery_renders[i];
    if (sub.location == unity::Location::kRemote) {
      // Forwarded in the client dialect; no cache_id (see Execute).
      render.full_sql = sub.RenderSql(ClientDialect());
      continue;
    }
    auto entry = catalog_->Find(sub.table.connection);
    if (!entry.ok()) continue;  // execution surfaces the same error
    const sql::Dialect& dialect = entry->database->dialect();
    render.pool_form = ral::IsPoolSupported(entry->database->vendor());
    std::string text;
    if (render.pool_form) {
      render.field_strings = sub.FieldStrings(dialect);
      render.quoted_table = dialect.QuoteIdentifier(sub.table.physical);
      render.where_string = sub.WhereString(dialect);
      text = render.quoted_table;
      for (const std::string& field : render.field_strings) {
        text += '\x1f';
        text += field;
      }
      text += '\x1f';
      text += render.where_string;
    } else {
      render.full_sql = sub.RenderSql(dialect);
      text = render.full_sql;
    }
    render.cache_id = Md5Hex(sub.table.connection + '\x1f' + text);
  }
  return cached;
}

Result<ResultSet> DataAccessService::ExecuteSubQueryRouted(
    const SubQuery& sub, const cache::RenderedSubQuery& render, net::Cost* cost,
    QueryStats* stats) {
  // The fetch itself is one simulated backend round trip; checking once
  // before it starts is the sub-query-granularity half of cancellation
  // (the merge join re-checks per row batch).
  GRIDDB_RETURN_IF_ERROR(cost->cancel().Check());
  GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                          catalog_->Find(sub.table.connection));
  if (ral::IsPoolSupported(entry.database->vendor())) {
    GRIDDB_RETURN_IF_ERROR(pool_.InitHandle(
        sub.table.connection, config_.db_user, config_.db_password, cost));
    if (render.pool_form) {
      GRIDDB_ASSIGN_OR_RETURN(
          ResultSet rs,
          pool_.Execute(sub.table.connection, render.field_strings,
                        {render.quoted_table}, render.where_string, cost));
      if (stats) ++stats->pool_ral_subqueries;
      return rs;
    }
    // Prerender had no catalog entry yet; render inline (cold path).
    const sql::Dialect& dialect = entry.database->dialect();
    GRIDDB_ASSIGN_OR_RETURN(
        ResultSet rs,
        pool_.Execute(sub.table.connection, sub.FieldStrings(dialect),
                      {dialect.QuoteIdentifier(sub.table.physical)},
                      sub.WhereString(dialect), cost));
    if (stats) ++stats->pool_ral_subqueries;
    return rs;
  }
  Result<ResultSet> rs =
      render.full_sql.empty()
          ? driver_.ExecuteSubQuery(sub, cost)
          : driver_.ExecuteSubQueryRendered(sub, render.full_sql, cost);
  GRIDDB_RETURN_IF_ERROR(rs.status());
  if (stats) ++stats->jdbc_subqueries;
  return std::move(*rs);
}

namespace {
constexpr const char* kStaleEpochPrefix = "stale schema epoch";
}  // namespace

bool IsEpochStale(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind(kStaleEpochPrefix, 0) == 0;
}

Status DataAccessService::CheckPlanEpoch(const unity::QueryPlan& plan) const {
  uint64_t now = driver_.dictionary().epoch();
  if (now == plan.epoch) return Status::Ok();
  return FailedPrecondition(std::string(kStaleEpochPrefix) +
                            ": planned at epoch " +
                            std::to_string(plan.epoch) +
                            ", dictionary now at " + std::to_string(now) +
                            "; replan required");
}

Result<ResultSet> DataAccessService::Execute(
    const sql::SelectStmt& stmt, const std::string& fingerprint,
    net::Cost* cost, QueryStats* stats, int forward_depth,
    const std::string& forward_path, const std::string& tenant) {
  const net::ServiceCosts& costs = transport_->costs();
  const CancelToken& cancel = cost->cancel();

  // ---- plan ----
  const bool use_cache = config_.query_cache && !fingerprint.empty();
  // Routing-generation snapshot BEFORE the plan lookup: if a quarantine
  // lands mid-plan, the entry inserted below is tagged with the older
  // generation and the next lookup evicts it — conservative, never stale.
  const uint64_t routing_gen = routing_gen_.load(std::memory_order_acquire);
  std::shared_ptr<const cache::CachedPlan> cached;
  if (use_cache) {
    cached = cache_.LookupPlan(fingerprint, driver_.dictionary().epoch(),
                               routing_gen);
    if (cached) {
      ++stats->plan_cache_hits;
      PlanCacheHitsCounter().Add(1);
    } else {
      PlanCacheMissesCounter().Add(1);
    }
  }
  if (!cached) {
    obs::Span plan_span = tracer_.StartSpan("unity.plan", cost);
    auto planned = driver_.Plan(stmt);
    if (!planned.ok()) {
      if (plan_span.active()) plan_span.SetError(planned.status().ToString());
      return planned.status();
    }
    if (plan_span.active()) {
      plan_span.AddAttr("tables",
                        std::to_string(planned->logical_tables.size()));
      plan_span.AddAttr("subqueries",
                        std::to_string(planned->subqueries.size()));
    }
    plan_span.End();
    cached = PrerenderPlan(std::move(*planned));
    if (use_cache) {
      cache_.InsertPlan(fingerprint, cached->plan.epoch, routing_gen, cached);
    }
  }
  const unity::QueryPlan& plan = cached->plan;
  stats->tables = plan.logical_tables.size();
  if (post_plan_hook_) post_plan_hook_();
  // A schema change between planning and execution invalidates the
  // physical names (and the local/remote split) the plan baked in; fail
  // cleanly so Query() replans against the fresh dictionary instead of
  // running a stale plan.
  GRIDDB_RETURN_IF_ERROR(CheckPlanEpoch(plan));
  // Last pre-execution cancellation point: from here on, work costs money.
  GRIDDB_RETURN_IF_ERROR(cancel.Check());

  // ---- the whole statement on one local database ----
  if (plan.single_database) {
    stats->databases = 1;
    GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                            catalog_->Find(plan.connection));
    (void)entry;
    if (cached->direct_pool_form) {
      GRIDDB_RETURN_IF_ERROR(pool_.InitHandle(
          plan.connection, config_.db_user, config_.db_password, cost));
      GRIDDB_ASSIGN_OR_RETURN(
          ResultSet rs,
          pool_.Execute(plan.connection, cached->direct_fields,
                        cached->direct_tables, cached->direct_where, cost));
      ++stats->pool_ral_subqueries;
      return rs;
    }
    // JDBC path for unsupported vendors or queries beyond the RAL form.
    net::Cost jdbc = cost->Fork();
    Result<ResultSet> rs =
        cached->direct_sql.empty()
            ? driver_.ExecuteDirect(plan, &jdbc)
            : driver_.ExecuteDirectRendered(plan, cached->direct_sql, &jdbc);
    GRIDDB_RETURN_IF_ERROR(rs.status());
    cost->AddSequential(jdbc);
    ++stats->jdbc_subqueries;
    return std::move(*rs);
  }

  // ---- locate: RLS candidates for every remote sub-query ----
  // Looked up on every execution (never cached in the plan). Each list
  // is an ordered failover list: servers reachable right now first (RLS
  // entries can be stale: a server may have died after publishing), the
  // stale ones last — a dead server may come back, and failing over to
  // it beats dropping it silently. Sub-queries are grouped by their
  // first choice. The lookups run here, one after another on `locate`;
  // the cost rule posts each at the head of the branch it resolves to.
  struct Task {
    std::vector<size_t> subs;  ///< Sub-query indexes, in plan order.
    std::string server;        ///< Empty for a local sub-query.
    double lookup_ms = 0;
  };
  const size_t n = plan.subqueries.size();
  std::vector<std::vector<std::string>> candidates(n);
  std::map<std::string, Task> remote_tasks;  // by first-choice server
  std::set<std::string> local_connections;
  std::vector<Task> tasks;
  net::Cost locate = cost->Fork();
  for (size_t i = 0; i < n; ++i) {
    const SubQuery& sub = plan.subqueries[i];
    if (sub.location == unity::Location::kLocal) {
      local_connections.insert(sub.table.connection);
      tasks.push_back({{i}, "", 0});
      continue;
    }
    if (!rls_) {
      return NotFound("table '" + sub.table.logical +
                      "' is not registered locally and no RLS is configured");
    }
    stats->used_rls = true;
    net::Cost lookup = locate.Fork();
    Result<std::vector<std::string>> urls =
        rls_->Lookup(sub.table.logical, &lookup);
    locate.AddSequential(lookup);
    if (!urls.ok()) {
      cost->AddSequential(locate);
      return urls.status();
    }
    // Never forward to ourselves (stale RLS entries).
    urls->erase(std::remove(urls->begin(), urls->end(), config_.server_url),
                urls->end());
    std::vector<std::string> stale;
    for (const std::string& url : *urls) {
      (transport_->Resolve(url).ok() ? candidates[i] : stale).push_back(url);
    }
    candidates[i].insert(candidates[i].end(), stale.begin(), stale.end());
    if (candidates[i].empty()) {
      cost->AddSequential(locate);
      return NotFound("table '" + sub.table.logical +
                      "' is not registered with any JClarens server");
    }
    Task& task = remote_tasks[candidates[i].front()];
    task.server = candidates[i].front();
    task.subs.push_back(i);
    task.lookup_ms += lookup.total_ms();
  }
  stats->servers_contacted = 1 + remote_tasks.size();
  stats->distributed = true;

  // ---- the whole statement on one remote server ----
  if (plan.direct_stmt && remote_tasks.size() == 1) {
    const Task& task = remote_tasks.begin()->second;
    cost->AddMs(task.lookup_ms);
    cost->AddMs(costs.connect_auth_ms);
    // A failover target must host every table: intersect the per-table
    // lists, keeping the first table's order (the preferred server is in
    // all of them by construction).
    std::vector<std::string> targets = candidates.front();
    for (const std::vector<std::string>& other : candidates) {
      targets.erase(std::remove_if(targets.begin(), targets.end(),
                                   [&](const std::string& url) {
                                     return std::find(other.begin(),
                                                      other.end(), url) ==
                                            other.end();
                                   }),
                    targets.end());
    }
    return RemoteQueryFailover(targets, plan.subqueries.front().table.logical,
                               cached->direct_sql, cost, stats, forward_depth,
                               forward_path, tenant);
  }
  if (!config_.enhanced_driver) {
    return Unsupported(
        "query spans more than one location; the baseline Unity driver "
        "does not merge across them");
  }

  // ---- fan-out: one task per local sub-query, one per remote server ----
  // The cost rule (DESIGN.md §5): decomposition overhead, then every task
  // on a ledger forked at the fan-out instant, joined by the slowest. A
  // remote server's task pays its RLS lookups and one connect/auth; a
  // local task pays a fresh connect/auth per planned database — the
  // decomposed path opens fresh connections each time, serialized by the
  // driver manager — ahead of its fetch. Serial mode runs the local
  // sub-queries back to back on one ledger (task 0's) that pays those
  // connects once.
  for (auto& [url, task] : remote_tasks) tasks.push_back(std::move(task));
  stats->databases = local_connections.size();
  std::vector<std::pair<std::string, ResultSet>> partials(n);
  std::vector<Status> status(n, Status::Ok());
  std::vector<QueryStats> task_stats(tasks.size());
  cost->AddMs(costs.distribution_overhead_ms);
  std::vector<net::Cost> ledgers(tasks.size(), cost->Fork());

  // A failed sub-query may be replaced by an empty partial when the
  // operator opted in: a cancelled one under partial_on_deadline, any
  // other under partial_results. A stale epoch never is — substituting
  // would return rows computed against two schema versions; it fails the
  // query so Query() replans.
  auto substitutable = [this](const Status& error) {
    if (IsEpochStale(error)) return false;
    return error.code() == StatusCode::kDeadlineExceeded
               ? config_.partial_on_deadline
               : config_.partial_results;
  };

  // A local sub-query is routed (POOL-RAL or JDBC) and probes the
  // per-sub-query result cache first, so the unchanged side of a
  // cross-database join is served from memory even when the other side
  // misses. Remote sub-queries never are: this server does not observe
  // the remote tables' content versions, so a cached remote partial could
  // never be invalidated.
  auto fetch_local = [&](const SubQuery& sub,
                         const cache::RenderedSubQuery& render,
                         net::Cost* branch,
                         QueryStats* branch_stats) -> Result<ResultSet> {
    std::string sub_key;
    if (use_cache && !render.cache_id.empty()) {
      sub_key = cache_.ResultKey(render.cache_id, plan.epoch,
                                 {ToLower(sub.table.logical)});
      if (cache::CachedResult hit = cache_.LookupResult(sub_key)) {
        ++branch_stats->subquery_cache_hits;
        SubqueryCacheHitsCounter().Add(1);
        // Cache entries are immutable shared rows; the partial gets a
        // copy because the merge mutates its input.
        return ResultSet(*hit.result);
      }
      SubqueryCacheMissesCounter().Add(1);
    }
    net::Cost fetch = branch->Fork();
    Result<ResultSet> rs =
        ExecuteSubQueryRouted(sub, render, &fetch, branch_stats);
    SubqueryMsHistogram().Observe(fetch.total_ms());
    branch->AddSequential(fetch);
    if (rs.ok() && !sub_key.empty()) {
      // A fetch that raced a cancellation may be incomplete upstream;
      // tag it so the cache refuses it (satellite of the same rule that
      // keeps truncated whole-query results out).
      cache::ResultMeta sub_meta;
      sub_meta.non_cacheable = cancel.cancelled();
      cache_.InsertResult(sub_key, render.cache_id, plan.epoch,
                          {ToLower(sub.table.logical)},
                          std::make_shared<ResultSet>(*rs), sub_meta);
    }
    return rs;
  };

  // One sub-query, wherever it runs.
  auto fetch = [&](size_t i, net::Cost* branch,
                   QueryStats* branch_stats) -> Status {
    const SubQuery& sub = plan.subqueries[i];
    const cache::RenderedSubQuery& render = cached->subquery_renders[i];
    // Every branch shares the query's token: the first sibling to reach
    // the deadline (or a client abort) latches it, and the rest fail
    // here before touching their backend.
    if (Status live = cancel.Check(); !live.ok()) {
      ++branch_stats->cancelled_subqueries;
      CancelledSubqueriesCounter().Add(1);
      return live;
    }
    Result<ResultSet> rs =
        sub.location == unity::Location::kRemote
            ? RemoteQueryFailover(candidates[i], sub.table.logical,
                                  render.full_sql, branch, branch_stats,
                                  forward_depth, forward_path, tenant)
            : fetch_local(sub, render, branch, branch_stats);
    if (!rs.ok()) {
      if (rs.status().code() == StatusCode::kDeadlineExceeded) {
        ++branch_stats->cancelled_subqueries;
        CancelledSubqueriesCounter().Add(1);
      }
      return rs.status();
    }
    partials[i] = {sub.effective_name, std::move(*rs)};
    return Status::Ok();
  };

  // One task: a local sub-query, or a remote server's fetches forwarded
  // in plan order over one connection. Returns false after a failure the
  // query cannot substitute, at which point the task stops. Pool workers
  // have no TLS span linkage to this thread, so the parent context is
  // captured here and each task opens its span under it explicitly — the
  // same mechanism a remote server uses, minus the wire.
  const obs::SpanContext fanout_parent = tracer_.CurrentContext();
  auto run_task = [&](size_t t) -> bool {
    const Task& task = tasks[t];
    const bool serial_local =
        task.server.empty() && !config_.parallel_subqueries;
    net::Cost& ledger = serial_local ? ledgers[0] : ledgers[t];
    obs::Span span = tracer_.StartSpanUnder("dataaccess.subquery",
                                            fanout_parent, &ledger);
    if (span.active()) {
      std::vector<std::string> names;
      for (size_t i : task.subs) {
        names.push_back(plan.subqueries[i].effective_name);
      }
      span.AddAttr("table", Join(names, ","));
      if (!task.server.empty()) span.AddAttr("server", task.server);
    }
    if (!task.server.empty()) {
      ledger.AddMs(task.lookup_ms);
      ledger.AddMs(costs.connect_auth_ms);
    } else if (!serial_local || t == 0) {
      ledger.AddMs(costs.connect_auth_ms *
                   static_cast<double>(local_connections.size()));
    }
    for (size_t i : task.subs) {
      status[i] = fetch(i, &ledger, &task_stats[t]);
      if (status[i].ok()) continue;
      if (span.active()) span.SetError(status[i].ToString());
      if (!substitutable(status[i])) return false;
    }
    return true;
  };

  if (config_.parallel_subqueries) {
    std::vector<std::future<bool>> futures;
    futures.reserve(tasks.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
      futures.push_back(
          workers_.Submit([&run_task, t] { return run_task(t); }));
    }
    for (size_t t = 0; t < futures.size(); ++t) {
      try {
        futures[t].get();
      } catch (const std::future_error&) {
        // Bounded worker queue rejected the task (broken promise): it
        // never ran. Shed it the same way admission sheds a whole query,
        // hint included, so RetryPolicy treats it as retryable.
        for (size_t i : tasks[t].subs) {
          status[i] = ResourceExhausted(
              "sub-query rejected: worker queue full; retry_after_ms=" +
              std::to_string(static_cast<long long>(
                  config_.admission.retry_after_ms)));
        }
      }
    }
  } else {
    // Serial mode fails fast: no task starts after one the query cannot
    // survive.
    for (size_t t = 0; t < tasks.size(); ++t) {
      if (!run_task(t)) break;
    }
  }
  cost->AddParallel(ledgers);
  for (const QueryStats& branch : task_stats) AddStats(stats, branch);

  // ---- resolve failed sub-queries, once ----
  // Whole-query failure by default, or an empty substitute partial plus
  // an error-report line. The substitute's schema is the planned fields
  // for a local table and the statement's references for a remote one
  // (its schema is unknown here), so the merge still binds: inner joins
  // against it yield no rows, LEFT JOINs NULL-pad.
  for (size_t i = 0; i < n; ++i) {
    if (status[i].ok()) continue;
    if (!substitutable(status[i])) return status[i];
    const SubQuery& sub = plan.subqueries[i];
    std::vector<std::string> columns;
    if (sub.location == unity::Location::kRemote) {
      columns = ReferencedColumns(stmt, sub.effective_name);
    } else {
      for (const auto& [physical, logical] : sub.fields) {
        (void)physical;
        columns.push_back(ToLower(logical));
      }
    }
    partials[i] = {sub.effective_name, EmptyPartial(std::move(columns))};
    ++stats->subqueries_failed;
    stats->subquery_errors.push_back(sub.effective_name + ": " +
                                     status[i].ToString());
  }

  // ---- merge ----
  // A budget that ran out while the branches ran fails the query here,
  // whichever branch noticed first; with partial_on_deadline the merge
  // instead finishes, unchecked, over the rows that were fetched.
  const CancelToken* merge_cancel = cancel.active() ? &cancel : nullptr;
  if (Status live = cancel.Check(); !live.ok()) {
    if (!config_.partial_on_deadline) return live;
    merge_cancel = nullptr;
  }
  // The merge materializes every partial in middleware memory; reserve
  // that footprint against the byte budget so concurrent cross-database
  // joins cannot grow the heap without bound. Shed (kResourceExhausted)
  // beats an OOM-killed server. The merge executor (DESIGN.md §15)
  // converts each partial into column chunks and boxes the merged result
  // back into rows, so the peak is ~2x the wire footprint.
  size_t merge_bytes = 0;
  for (const auto& partial : partials) merge_bytes += partial.second.WireSize();
  merge_bytes *= 2;
  GRIDDB_ASSIGN_OR_RETURN(AdmissionController::MemoryLease merge_lease,
                          admission_.ReserveMergeMemory(merge_bytes, tenant));

  obs::Span merge_span = tracer_.StartSpan("dataaccess.merge", cost);
  auto merged =
      unity::MergePartials(*plan.merge_stmt, std::move(partials),
                           merge_cancel);
  if (!merged.ok()) {
    if (merge_span.active()) merge_span.SetError(merged.status().ToString());
    return merged.status();
  }
  cost->AddMs(costs.integrate_per_row_ms *
              static_cast<double>(merged->num_rows()));
  if (merge_span.active()) {
    merge_span.AddAttr("rows", std::to_string(merged->num_rows()));
  }
  return std::move(*merged);
}

rpc::RpcClient* DataAccessService::ClientFor(const std::string& server_url) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = remote_clients_.find(server_url);
  if (it != remote_clients_.end()) return it->second.get();
  auto client = std::make_unique<rpc::RpcClient>(transport_, config_.host,
                                                 server_url);
  // Distributed queries charge the JClarens connect/auth explicitly per
  // query (fresh-connection semantics); suppress the client's one-time
  // charge so it is not double-counted.
  client->set_connect_cost_ms(0.0);
  client->set_retry_policy(config_.retry_policy);
  client->set_tracer(&tracer_);
  // Wire-codec preference: "" inherits the client's GRIDDB_WIRE default,
  // "binary" asks for the full capability set, "xmlrpc" pins text.
  if (config_.wire_protocol == "binary") {
    client->set_wire_preference(rpc::wire::kAllCaps);
  } else if (config_.wire_protocol == "xmlrpc") {
    client->set_wire_preference(0);
  }
  client->set_stream_window(config_.stream_window);
  auto [inserted, unused] =
      remote_clients_.emplace(server_url, std::move(client));
  (void)unused;
  return inserted->second.get();
}

Result<ResultSet> DataAccessService::RemoteQuery(
    const std::string& server_url, const std::string& sql_text,
    net::Cost* cost, QueryStats* stats, int forward_depth,
    const std::string& forward_path, const std::string& tenant) {
  ForwardsCounter().Add(1);
  obs::Span span = tracer_.StartSpan("dataaccess.forward", cost);
  span.AddAttr("url", server_url);
  rpc::RpcClient* client = ClientFor(server_url);
  rpc::XmlRpcArray params;
  params.emplace_back(sql_text);
  // Record ourselves on the forwarding path so a loop names every hop.
  const std::string path = forward_path.empty()
                               ? config_.server_url
                               : forward_path + " -> " + config_.server_url;
  rpc::CallStats call_stats;
  // When the connection negotiated streaming, hand the client a sink so
  // the merge-integration of each chunk overlaps the transfer of the
  // next (and memory is leased per flow-control window, not per result).
  WindowLeaseSink sink(&admission_, tenant, config_.stream_window,
                       transport_->costs().integrate_per_row_ms);
  rpc::wire::StreamSink* sink_ptr =
      (client->wire_preference() & rpc::wire::kCapStream) ? &sink : nullptr;
  // The client stamps the ledger's remaining budget onto the request
  // (sparse <deadlineMs>) at send time, so the remote server inherits a
  // budget already shrunk by every hop and retry before it.
  // The tenant rides per call (not via set_tenant) because ClientFor
  // shares one cached client per remote URL across all tenants.
  Result<rpc::XmlRpcValue> response =
      client->Call("dataaccess.query", std::move(params), cost,
                   forward_depth + 1, path, &call_stats, tenant, sink_ptr);
  if (stats) stats->retries += static_cast<size_t>(call_stats.retries);
  if (call_stats.first_chunk_ms >= 0) {
    StreamFirstChunkMs().Observe(call_stats.first_chunk_ms);
  }
  if (!response.ok() && span.active()) {
    span.SetError(response.status().ToString());
  }
  GRIDDB_RETURN_IF_ERROR(response.status());
  // Remote child spans ride back in the (sparse) "spans" member; they are
  // already parented under our wire context, so importing stitches them
  // into this trace. They are stamped on the remote server's ledger,
  // which started when our request reached it: shifting them to that
  // instant on ours nests them inside the rpc.call span.
  if (tracer_.enabled()) {
    auto remote_spans = response->Member("spans");
    if (remote_spans.ok()) {
      for (obs::SpanRecord& record : SpansFromRpc(**remote_spans)) {
        record.start_ms += call_stats.request_sent_ms;
        tracer_.Import(std::move(record));
      }
    }
  }
  GRIDDB_ASSIGN_OR_RETURN(const rpc::XmlRpcValue* result,
                          response->Member("result"));
  GRIDDB_ASSIGN_OR_RETURN(ResultSet rs, rpc::RpcToResultSet(*result));
  if (sink.used()) {
    // The streamed member of the envelope carries only the schema; the
    // rows were consumed chunk-by-chunk (integration already charged via
    // the window credit inside the response pipeline).
    rs.rows = sink.TakeRows();
  }
  if (stats) {
    auto remote_stats = response->Member("stats");
    if (remote_stats.ok()) AddStats(stats, StatsFromRpc(**remote_stats));
  }
  return rs;
}

bool DataAccessService::BreakerAllows(const std::string& server_url) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(server_url);
  if (it == breakers_.end()) return true;
  const BreakerState& state = it->second;
  if (state.consecutive_failures < config_.breaker_failure_threshold) {
    return true;
  }
  // Open breaker. Once the virtual-clock cooldown has elapsed, go
  // half-open: let one probe through; RecordPeerOutcome re-opens it (with
  // a fresh cooldown) if the probe fails.
  return transport_->network()->NowMs() >= state.open_until_ms;
}

void DataAccessService::RecordPeerOutcome(const std::string& server_url,
                                          bool success) {
  std::lock_guard<std::mutex> lock(mu_);
  BreakerState& state = breakers_[server_url];
  if (success) {
    state.consecutive_failures = 0;
    state.open_until_ms = -1;
    return;
  }
  ++state.consecutive_failures;
  if (state.consecutive_failures >= config_.breaker_failure_threshold) {
    state.open_until_ms =
        transport_->network()->NowMs() + config_.breaker_cooldown_ms;
  }
}

Result<ResultSet> DataAccessService::RemoteQueryFailover(
    const std::vector<std::string>& candidates, const std::string& table,
    const std::string& sql_text, net::Cost* cost, QueryStats* stats,
    int forward_depth, const std::string& forward_path,
    const std::string& tenant) {
  // kNotFound is failover-worthy: it usually means a stale RLS row (the
  // replica dropped the table, or never had it) and another replica may
  // still answer. kCorruption likewise — a replica serving corrupt data
  // (or a corrupted reply) should not sink the query while healthy
  // replicas remain. kResourceExhausted too: a shed by one overloaded
  // replica says nothing about its siblings. kDeadlineExceeded is NOT —
  // the budget is shared, so another replica cannot do better with less
  // time. Everything else non-transient is permanent.
  auto failover_worthy = [](StatusCode code) {
    return code == StatusCode::kUnavailable || code == StatusCode::kTimeout ||
           code == StatusCode::kNotFound || code == StatusCode::kCorruption ||
           code == StatusCode::kResourceExhausted;
  };
  Status last_error = Unavailable("no reachable JClarens replica for table '" +
                                  table + "'");
  bool previous_failed = false;
  for (const std::string& url : candidates) {
    // A cancelled query stops walking the replica list: every further
    // attempt would spend wall time the caller already gave up on.
    GRIDDB_RETURN_IF_ERROR(cost->cancel().Check());
    if (!BreakerAllows(url)) {
      if (stats) ++stats->breaker_skips;
      BreakerSkipsCounter().Add(1);
      continue;
    }
    if (previous_failed) {
      if (stats) ++stats->failovers;
      FailoversCounter().Add(1);
    }
    Result<ResultSet> rs = RemoteQuery(url, sql_text, cost, stats,
                                       forward_depth, forward_path, tenant);
    if (rs.ok()) {
      RecordPeerOutcome(url, true);
      return rs;
    }
    last_error = rs.status();
    RecordPeerOutcome(url, false);
    // The mapping that sent us here is suspect; make the next query
    // re-consult the live RLS catalog instead of the cache.
    if (rls_) rls_->InvalidateCache(ToLower(table));
    if (!failover_worthy(last_error.code())) return last_error;
    previous_failed = true;
  }
  return last_error;
}

Status DataAccessService::CheckTenantGrants(
    const std::string& tenant, const std::vector<std::string>& tables) const {
  if (!config_.rbac) return Status::Ok();
  // Mart grants resolve through the dictionary: a grant on mart M covers
  // every logical table M hosts locally. Tables not registered here (RLS
  // fallback) resolve to no marts and need a table or wildcard grant.
  return config_.rbac->CheckSelect(
      tenant, tables, [this](const std::string& table) {
        std::vector<std::string> marts;
        for (const unity::TableBinding& binding :
             driver_.dictionary().Locate(table)) {
          marts.push_back(binding.database_name);
        }
        return marts;
      });
}

Result<ResultSet> DataAccessService::Query(const std::string& sql_text,
                                           QueryStats* stats,
                                           int forward_depth,
                                           const std::string& forward_path,
                                           QueryContext ctx) {
  QueriesCounter().Add(1);
  // The query's ledger: the one clock its simulated_ms, its spans and its
  // deadline read. The deadline is the tighter of the caller's (a
  // forwarded budget) and this server's own per-query cap.
  net::Cost cost(ctx.start_ms, std::move(ctx.cancel));
  cost.SetDeadline(ctx.deadline_ms);
  if (config_.default_deadline_ms > 0) {
    cost.SetDeadline(ctx.start_ms + config_.default_deadline_ms);
  }
  const CancelToken& cancel = cost.cancel();
  // Admission before any parse or planning work: a shed query costs O(1)
  // and carries a retry_after_ms hint, which is what keeps rejects orders
  // of magnitude cheaper than served queries under overload.
  Result<AdmissionController::Ticket> ticket = admission_.Admit(
      ctx.priority, cancel.active() ? &cancel : nullptr, ctx.tenant);
  if (!ticket.ok()) {
    QueryErrorsCounter().Add(1);
    return ticket.status();
  }
  // Stats are always collected when the cache is on (the result tier
  // needs response-shape metadata to replay on a hit).
  QueryStats local_stats;
  QueryStats* st = stats ? stats : &local_stats;
  obs::Span span = tracer_.StartSpan("dataaccess.query", &cost);
  span.AddAttr("sql", sql_text);
  cost.AddMs(transport_->costs().query_parse_ms);
  auto finish = [&](Result<ResultSet> result) -> Result<ResultSet> {
    st->simulated_ms = cost.total_ms();
    QueryMsHistogram().Observe(cost.total_ms());
    if (!result.ok()) {
      QueryErrorsCounter().Add(1);
      if (result.status().code() == StatusCode::kDeadlineExceeded) {
        DeadlineExceededCounter().Add(1);
      }
      if (span.active()) span.SetError(result.status().ToString());
    } else if (span.active()) {
      span.AddAttr("rows", std::to_string(result->num_rows()));
      span.AddAttr("cost_ms", std::to_string(cost.total_ms()));
    }
    const uint64_t trace_id = span.context().trace_id;
    span.End();
    // Slow-query log: once the root span has ended the whole tree is in
    // the finished buffer, so the dump shows every stage of this query.
    if (config_.slow_query_ms > 0 &&
        cost.total_ms() >= config_.slow_query_ms) {
      SlowQueriesCounter().Add(1);
      GRIDDB_LOG(Warn) << "slow query (" << cost.total_ms() << " ms >= "
                       << config_.slow_query_ms << " ms) on '"
                       << config_.server_name << "': " << sql_text
                       << (tracer_.enabled()
                               ? "\n" + tracer_.FormatTrace(trace_id)
                               : std::string());
    }
    return result;
  };

  const bool use_cache = config_.query_cache;
  std::string fingerprint;
  std::vector<std::string> ref_tables;
  std::string result_key;
  uint64_t key_epoch = 0;

  // Whole-query result-cache probe: key = fingerprint + schema epoch +
  // the current content version of every referenced table. A hit replays
  // the recorded response shape and skips planning and execution
  // entirely; a miss leaves `result_key` set for the post-execution
  // insert.
  auto try_result_cache = [&]() -> std::optional<Result<ResultSet>> {
    key_epoch = driver_.dictionary().epoch();
    result_key = cache_.ResultKey(fingerprint, key_epoch, ref_tables);
    obs::Span cache_span = tracer_.StartSpan("cache.result.lookup", &cost);
    cache::CachedResult hit = cache_.LookupResult(result_key);
    if (cache_span.active()) {
      cache_span.AddAttr("outcome", hit ? "hit" : "miss");
    }
    cache_span.End();
    if (!hit) {
      ResultCacheMissesCounter().Add(1);
      return std::nullopt;
    }
    ResultCacheHitsCounter().Add(1);
    ++st->result_cache_hits;
    st->distributed = hit.meta.distributed;
    st->databases = hit.meta.databases;
    st->tables = hit.meta.tables;
    st->rows = hit.result->num_rows();
    return Result<ResultSet>(ResultSet(*hit.result));
  };

  if (use_cache) {
    // Text memo: a byte-identical repeat query resolves its fingerprint
    // without touching the lexer or parser.
    if (auto memo = cache_.LookupText(sql_text)) {
      fingerprint = std::move(memo->fingerprint);
      ref_tables = std::move(memo->tables);
      // Grants gate every cache serve: a result cached under tenant A's
      // request is never replayed to a tenant whose CURRENT grants do not
      // cover the referenced tables, and a revocation takes effect on the
      // next request because the check reads the live snapshot.
      if (Status grants = CheckTenantGrants(ctx.tenant, ref_tables);
          !grants.ok()) {
        return finish(grants);
      }
      if (auto hit = try_result_cache()) return finish(std::move(*hit));
    }
  }

  auto parsed = sql::ParseSelect(sql_text, ClientDialect());
  if (!parsed.ok()) return finish(parsed.status());
  std::unique_ptr<sql::SelectStmt> stmt = std::move(*parsed);
  if (Status live = cancel.Check(); !live.ok()) return finish(live);

  // Plan-time grant enforcement: every referenced table must be covered
  // by the requesting tenant's grants before any result-cache serve, any
  // plan is built, or any sub-query RPC fans out. A denial is permanent
  // (kPermissionDenied, never retried) and costs no execution work.
  if (config_.rbac) {
    std::vector<std::string> grant_tables;
    for (const sql::TableRef* ref : stmt->AllTables()) {
      grant_tables.push_back(ToLower(ref->table));
    }
    if (Status grants = CheckTenantGrants(ctx.tenant, grant_tables);
        !grants.ok()) {
      return finish(grants);
    }
  }

  if (use_cache && fingerprint.empty()) {
    fingerprint = sql::FingerprintSelect(*stmt);
    for (const sql::TableRef* ref : stmt->AllTables()) {
      ref_tables.push_back(ToLower(ref->table));
    }
    std::sort(ref_tables.begin(), ref_tables.end());
    ref_tables.erase(std::unique(ref_tables.begin(), ref_tables.end()),
                     ref_tables.end());
    cache_.InsertText(sql_text, {fingerprint, ref_tables});
    if (auto hit = try_result_cache()) return finish(std::move(*hit));
  }

  // A plan invalidated by a concurrent schema change is rebuilt against
  // the fresh dictionary, a bounded number of times (a schema churning
  // faster than we can plan is a real failure, not a retry candidate).
  auto execute = [&] {
    return Execute(*stmt, fingerprint, &cost, st, forward_depth,
                   forward_path, ctx.tenant);
  };
  Result<ResultSet> result = execute();
  for (int replan = 0;
       replan < 2 && !result.ok() && IsEpochStale(result.status());
       ++replan) {
    ++st->replans;
    ReplansCounter().Add(1);
    result = execute();
  }
  // A charge that reached the deadline latched the token wherever it
  // landed, the last merge charge included: the query fails unless the
  // operator opted in to deadline-truncated answers.
  if (result.ok() && !config_.partial_on_deadline) {
    if (Status live = cancel.Check(); !live.ok()) result = live;
  }
  if (!result.ok()) {
    // Stale-while-revalidate: with every replica down (or quarantined, or
    // behind an open breaker) an opted-in deployment serves the last
    // known good result of this fingerprint — tagged stale=true so the
    // client can tell — instead of an error. Never spans a schema change.
    if (use_cache && config_.serve_stale_results &&
        IsStaleServable(result.status().code())) {
      if (cache::CachedResult stale =
              cache_.LastKnownGood(fingerprint, key_epoch)) {
        GRIDDB_LOG(Warn) << "serving stale cached result for query on '"
                         << config_.server_name
                         << "' after: " << result.status().ToString();
        st->stale = true;
        st->distributed = stale.meta.distributed;
        st->databases = stale.meta.databases;
        st->tables = stale.meta.tables;
        st->rows = stale.result->num_rows();
        return finish(Result<ResultSet>(ResultSet(*stale.result)));
      }
    }
    return finish(result.status());
  }
  // Insert under the pre-execution key: if an epoch bump or digest change
  // landed mid-flight the entry is simply never hit again. Responses
  // assembled from failed branches (partial results) or truncated by a
  // cancellation / deadline expiry are not cacheable — replaying them
  // would turn a one-off degradation into a sticky wrong answer.
  const bool clean_execution = st->subqueries_failed == 0 &&
                               st->cancelled_subqueries == 0 &&
                               !cancel.cancelled();
  if (use_cache && !result_key.empty()) {
    cache::ResultMeta meta;
    meta.distributed = st->distributed;
    meta.databases = st->databases;
    meta.tables = st->tables;
    // InsertResult refuses tagged entries, so an unclean execution never
    // reaches the LRU — not even as a last-known-good candidate.
    meta.non_cacheable = !clean_execution;
    cache_.InsertResult(result_key, fingerprint, key_epoch, ref_tables,
                        std::make_shared<ResultSet>(*result), meta);
  }
  st->rows = result->num_rows();
  return finish(std::move(result));
}

// ---------- stats <-> RPC ----------

rpc::XmlRpcValue StatsToRpc(const QueryStats& stats) {
  rpc::XmlRpcStruct out;
  out["simulated_ms"] = stats.simulated_ms;
  out["distributed"] = stats.distributed;
  out["used_rls"] = stats.used_rls;
  out["servers_contacted"] = static_cast<int64_t>(stats.servers_contacted);
  out["databases"] = static_cast<int64_t>(stats.databases);
  out["tables"] = static_cast<int64_t>(stats.tables);
  out["rows"] = static_cast<int64_t>(stats.rows);
  out["pool_ral_subqueries"] = static_cast<int64_t>(stats.pool_ral_subqueries);
  out["jdbc_subqueries"] = static_cast<int64_t>(stats.jdbc_subqueries);
  // Recovery counters are encoded sparsely: a healthy query serializes
  // exactly as it did before fault tolerance existed, so the simulated
  // transfer cost of a fault-free response is unchanged (StatsFromRpc
  // treats missing members as zero).
  if (stats.retries) out["retries"] = static_cast<int64_t>(stats.retries);
  if (stats.failovers) {
    out["failovers"] = static_cast<int64_t>(stats.failovers);
  }
  if (stats.subqueries_failed) {
    out["subqueries_failed"] = static_cast<int64_t>(stats.subqueries_failed);
  }
  if (stats.breaker_skips) {
    out["breaker_skips"] = static_cast<int64_t>(stats.breaker_skips);
  }
  if (stats.replans) out["replans"] = static_cast<int64_t>(stats.replans);
  if (stats.cancelled_subqueries) {
    out["cancelled_subqueries"] =
        static_cast<int64_t>(stats.cancelled_subqueries);
  }
  // Cache counters follow the same sparse rule: a cache-cold (or
  // cache-disabled) response serializes byte-identically to the seed.
  if (stats.plan_cache_hits) {
    out["plan_cache_hits"] = static_cast<int64_t>(stats.plan_cache_hits);
  }
  if (stats.result_cache_hits) {
    out["result_cache_hits"] = static_cast<int64_t>(stats.result_cache_hits);
  }
  if (stats.subquery_cache_hits) {
    out["subquery_cache_hits"] =
        static_cast<int64_t>(stats.subquery_cache_hits);
  }
  if (stats.stale) out["stale"] = true;
  if (!stats.subquery_errors.empty()) {
    rpc::XmlRpcArray errors;
    for (const std::string& line : stats.subquery_errors) {
      errors.emplace_back(line);
    }
    out["subquery_errors"] = std::move(errors);
  }
  return out;
}

QueryStats StatsFromRpc(const rpc::XmlRpcValue& value) {
  QueryStats stats;
  auto get_int = [&](const char* key, size_t* out) {
    auto member = value.Member(key);
    if (member.ok()) {
      auto v = (*member)->AsInt();
      if (v.ok()) *out = static_cast<size_t>(*v);
    }
  };
  auto member = value.Member("simulated_ms");
  if (member.ok()) {
    auto v = (*member)->AsDouble();
    if (v.ok()) stats.simulated_ms = *v;
  }
  auto distributed = value.Member("distributed");
  if (distributed.ok()) {
    auto v = (*distributed)->AsBool();
    if (v.ok()) stats.distributed = *v;
  }
  auto used_rls = value.Member("used_rls");
  if (used_rls.ok()) {
    auto v = (*used_rls)->AsBool();
    if (v.ok()) stats.used_rls = *v;
  }
  get_int("servers_contacted", &stats.servers_contacted);
  get_int("databases", &stats.databases);
  get_int("tables", &stats.tables);
  get_int("rows", &stats.rows);
  get_int("pool_ral_subqueries", &stats.pool_ral_subqueries);
  get_int("jdbc_subqueries", &stats.jdbc_subqueries);
  get_int("retries", &stats.retries);
  get_int("failovers", &stats.failovers);
  get_int("subqueries_failed", &stats.subqueries_failed);
  get_int("breaker_skips", &stats.breaker_skips);
  get_int("replans", &stats.replans);
  get_int("cancelled_subqueries", &stats.cancelled_subqueries);
  get_int("plan_cache_hits", &stats.plan_cache_hits);
  get_int("result_cache_hits", &stats.result_cache_hits);
  get_int("subquery_cache_hits", &stats.subquery_cache_hits);
  auto stale = value.Member("stale");
  if (stale.ok()) {
    auto v = (*stale)->AsBool();
    if (v.ok()) stats.stale = *v;
  }
  auto errors = value.Member("subquery_errors");
  if (errors.ok()) {
    auto list = (*errors)->AsArray();
    if (list.ok()) {
      for (const rpc::XmlRpcValue& line : **list) {
        auto s = line.AsString();
        if (s.ok()) stats.subquery_errors.push_back(*s);
      }
    }
  }
  return stats;
}

// ---------- spans <-> RPC ----------

rpc::XmlRpcValue SpansToRpc(const std::vector<obs::SpanRecord>& spans) {
  rpc::XmlRpcArray out;
  out.reserve(spans.size());
  for (const obs::SpanRecord& span : spans) {
    rpc::XmlRpcStruct record;
    record["trace"] = SpanHexU64(span.trace_id);
    record["span"] = SpanHexU64(span.span_id);
    record["parent"] = SpanHexU64(span.parent_span_id);
    record["name"] = span.name;
    record["host"] = span.host;
    record["start_ms"] = span.start_ms;
    record["dur_ms"] = span.duration_ms;
    if (span.error) record["error"] = span.note;
    out.emplace_back(std::move(record));
  }
  return out;
}

std::vector<obs::SpanRecord> SpansFromRpc(const rpc::XmlRpcValue& value) {
  std::vector<obs::SpanRecord> spans;
  auto list = value.AsArray();
  if (!list.ok()) return spans;
  auto get_string = [](const rpc::XmlRpcValue& v, const char* key) {
    auto member = v.Member(key);
    if (!member.ok()) return std::string();
    auto s = (*member)->AsString();
    return s.ok() ? *s : std::string();
  };
  auto get_double = [](const rpc::XmlRpcValue& v, const char* key) {
    auto member = v.Member(key);
    if (!member.ok()) return 0.0;
    auto d = (*member)->AsDouble();
    return d.ok() ? *d : 0.0;
  };
  for (const rpc::XmlRpcValue& entry : **list) {
    obs::SpanRecord span;
    span.trace_id = SpanParseHexU64(get_string(entry, "trace"));
    span.span_id = SpanParseHexU64(get_string(entry, "span"));
    span.parent_span_id = SpanParseHexU64(get_string(entry, "parent"));
    span.name = get_string(entry, "name");
    span.host = get_string(entry, "host");
    span.start_ms = get_double(entry, "start_ms");
    span.duration_ms = get_double(entry, "dur_ms");
    auto error = entry.Member("error");
    if (error.ok()) {
      span.error = true;
      auto note = (*error)->AsString();
      if (note.ok()) span.note = *note;
    }
    if (span.trace_id == 0 || span.span_id == 0) continue;  // malformed
    spans.push_back(std::move(span));
  }
  return spans;
}

}  // namespace griddb::core
