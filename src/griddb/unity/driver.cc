#include "griddb/unity/driver.h"

#include "griddb/obs/metrics.h"
#include "griddb/sql/parser.h"
#include "griddb/sql/render.h"

namespace griddb::unity {

using storage::ResultSet;

namespace {
/// Client queries are written against the virtual (logical) schema; the
/// permissive SQLite dialect accepts every quoting style plus LIMIT.
const sql::Dialect& ClientDialect() {
  return sql::Dialect::For(sql::Vendor::kSqlite);
}

obs::Counter& PlansCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.unity.plans");
  return *c;
}
obs::Counter& SubqueriesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.unity.subqueries");
  return *c;
}
}  // namespace

UnityDriver::UnityDriver(const ral::DatabaseCatalog* catalog,
                         const net::Network* network, net::ServiceCosts costs,
                         UnityDriverOptions options)
    : catalog_(catalog),
      network_(network),
      costs_(costs),
      options_(std::move(options)) {}

Status UnityDriver::AddDatabase(const UpperXSpecEntry& upper,
                                const LowerXSpec& lower) {
  return dictionary_.AddDatabase(upper, lower);
}

Status UnityDriver::ReplaceDatabase(const UpperXSpecEntry& upper,
                                    const LowerXSpec& lower) {
  return dictionary_.ReplaceDatabase(upper, lower);
}

Status UnityDriver::RemoveDatabase(const std::string& database_name) {
  return dictionary_.RemoveDatabase(database_name);
}

Result<QueryPlan> UnityDriver::Plan(const std::string& sql_text) const {
  GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                          sql::ParseSelect(sql_text, ClientDialect()));
  return Plan(*stmt);
}

Result<QueryPlan> UnityDriver::Plan(const sql::SelectStmt& stmt) const {
  PlansCounter().Add(1);
  PlannerOptions planner_options;
  planner_options.allow_cross_database_joins = options_.enhanced;
  planner_options.projection_pushdown =
      options_.enhanced && options_.projection_pushdown;
  planner_options.predicate_pushdown =
      options_.enhanced && options_.predicate_pushdown;
  planner_options.prefer_host = options_.client_host;
  planner_options.replica_filter = replica_filter_;
  return PlanSelect(stmt, dictionary_, planner_options);
}

Result<ral::JdbcConnection*> UnityDriver::ConnectionFor(
    const std::string& connection, net::Cost* cost) {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    auto it = connections_.find(connection);
    if (it != connections_.end()) return it->second.get();
  }
  GRIDDB_ASSIGN_OR_RETURN(
      std::unique_ptr<ral::JdbcConnection> conn,
      ral::JdbcConnection::Open(catalog_, network_, costs_, connection,
                                options_.user, options_.password,
                                options_.client_host, cost));
  std::lock_guard<std::mutex> lock(conn_mu_);
  auto [it, inserted] = connections_.emplace(connection, std::move(conn));
  (void)inserted;  // a racing open wins; both connections are equivalent
  return it->second.get();
}

Status UnityDriver::WarmConnection(const std::string& connection) {
  GRIDDB_ASSIGN_OR_RETURN(ral::JdbcConnection * conn,
                          ConnectionFor(connection, nullptr));
  (void)conn;
  return Status::Ok();
}

Result<ResultSet> UnityDriver::ExecuteSubQuery(const SubQuery& sub,
                                               net::Cost* cost) {
  SubqueriesCounter().Add(1);
  GRIDDB_ASSIGN_OR_RETURN(ral::JdbcConnection * conn,
                          ConnectionFor(sub.table.connection, cost));
  const sql::Dialect& dialect = conn->database()->dialect();
  return conn->ExecuteQuery(sub.RenderSql(dialect), cost);
}

Result<ResultSet> UnityDriver::ExecuteSubQueryRendered(
    const SubQuery& sub, const std::string& rendered_sql, net::Cost* cost) {
  SubqueriesCounter().Add(1);
  GRIDDB_ASSIGN_OR_RETURN(ral::JdbcConnection * conn,
                          ConnectionFor(sub.table.connection, cost));
  return conn->ExecuteQuery(rendered_sql, cost);
}

Result<ResultSet> UnityDriver::ExecuteDirect(const QueryPlan& plan,
                                             net::Cost* cost) {
  if (!plan.single_database || !plan.direct_stmt) {
    return Internal("ExecuteDirect requires a single-database plan");
  }
  GRIDDB_ASSIGN_OR_RETURN(ral::JdbcConnection * conn,
                          ConnectionFor(plan.connection, cost));
  const sql::Dialect& dialect = conn->database()->dialect();
  return conn->ExecuteQuery(sql::RenderSelect(*plan.direct_stmt, dialect),
                            cost);
}

Result<ResultSet> UnityDriver::ExecuteDirectRendered(
    const QueryPlan& plan, const std::string& rendered_sql, net::Cost* cost) {
  if (!plan.single_database || !plan.direct_stmt) {
    return Internal("ExecuteDirect requires a single-database plan");
  }
  GRIDDB_ASSIGN_OR_RETURN(ral::JdbcConnection * conn,
                          ConnectionFor(plan.connection, cost));
  return conn->ExecuteQuery(rendered_sql, cost);
}

}  // namespace griddb::unity
