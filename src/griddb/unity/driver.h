// The Unity federated driver (paper §3, §4.6).
//
// Baseline behaviour (the Unity JDBC driver the paper builds on): resolve
// logical names through XSpec metadata and ship a whole query to the
// single database that holds its tables. No cross-database joins.
//
// Enhanced behaviour (the paper's contribution at the driver level):
// cross-database plans — per-database sub-queries with projection and
// predicate pushdown plus a middleware merge statement.
//
// The driver plans and executes single statements over JDBC; it does not
// fan out. The data access service (core/data_access_service) owns the
// one federated execution path: it routes each planned sub-query to
// POOL-RAL or this driver, forwards remote ones through the RLS, runs
// them on its worker pool and merges the partials.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "griddb/net/network.h"
#include "griddb/ral/catalog.h"
#include "griddb/ral/jdbc.h"
#include "griddb/unity/planner.h"
#include "griddb/unity/xspec.h"

namespace griddb::unity {

struct UnityDriverOptions {
  bool enhanced = true;  ///< Master switch for the paper's driver
                         ///< enhancements (cross-database plans).
  bool projection_pushdown = true;
  bool predicate_pushdown = true;
  std::string client_host = "localhost";  ///< Host the driver runs on.
  std::string user;                       ///< Credentials presented to DBs.
  std::string password;
};

class UnityDriver {
 public:
  UnityDriver(const ral::DatabaseCatalog* catalog, const net::Network* network,
              net::ServiceCosts costs, UnityDriverOptions options);

  /// Registers a database from its XSpec pair.
  Status AddDatabase(const UpperXSpecEntry& upper, const LowerXSpec& lower);
  /// Re-registers after a schema change (swaps the dictionary entries).
  Status ReplaceDatabase(const UpperXSpecEntry& upper, const LowerXSpec& lower);
  Status RemoveDatabase(const std::string& database_name);

  const DataDictionary& dictionary() const { return dictionary_; }
  const UnityDriverOptions& options() const { return options_; }

  /// Parses (permissive dialect) and plans a query without executing it.
  Result<QueryPlan> Plan(const std::string& sql_text) const;
  Result<QueryPlan> Plan(const sql::SelectStmt& stmt) const;

  /// Installs a routing eligibility predicate copied into every plan's
  /// PlannerOptions (see PlannerOptions::replica_filter). Install once at
  /// startup; the predicate itself may consult mutable state (e.g. the
  /// quarantine set) under its own lock.
  void SetReplicaFilter(std::function<bool(const TableBinding&)> filter) {
    replica_filter_ = std::move(filter);
  }

  /// Executes one planned sub-query over JDBC. Public so the data access
  /// layer can route sub-queries itself (POOL-RAL vs JDBC).
  Result<storage::ResultSet> ExecuteSubQuery(const SubQuery& sub,
                                             net::Cost* cost);
  /// Same, with the dialect rendering already done (plan-cache path: the
  /// statement text is memoized per plan, so repeat executions and
  /// failover re-attempts skip rendering).
  Result<storage::ResultSet> ExecuteSubQueryRendered(
      const SubQuery& sub, const std::string& rendered_sql, net::Cost* cost);

  /// Executes a single-database plan directly.
  Result<storage::ResultSet> ExecuteDirect(const QueryPlan& plan,
                                           net::Cost* cost);
  /// Same, with the statement text pre-rendered.
  Result<storage::ResultSet> ExecuteDirectRendered(
      const QueryPlan& plan, const std::string& rendered_sql, net::Cost* cost);

  /// Opens and caches the JDBC connection without charging simulated cost
  /// (registration-time connect: the server connects to a database once
  /// when it is registered/plugged in, paper §4.10).
  Status WarmConnection(const std::string& connection);

 private:
  Result<ral::JdbcConnection*> ConnectionFor(const std::string& connection,
                                             net::Cost* cost);

  const ral::DatabaseCatalog* catalog_;
  const net::Network* network_;
  net::ServiceCosts costs_;
  UnityDriverOptions options_;
  std::function<bool(const TableBinding&)> replica_filter_;
  DataDictionary dictionary_;
  std::mutex conn_mu_;
  std::map<std::string, std::unique_ptr<ral::JdbcConnection>> connections_;
};

}  // namespace griddb::unity
