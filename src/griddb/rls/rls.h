// Replica Location Service (paper §4.8).
//
// A central catalog mapping logical table names to the URLs of the
// JClarens servers hosting them. Each data-access service instance
// publishes its tables here; the data access layer consults it whenever a
// query references a table that is not locally registered, then forwards
// the sub-query to the returned server. Modeled after the Globus RLS used
// by the prototype, reduced to the publish / unpublish / lookup surface
// the paper actually exercises.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "griddb/rpc/server.h"
#include "griddb/util/status.h"

namespace griddb::rls {

/// The central RLS server: in-memory catalog + RPC binding.
class RlsServer {
 public:
  /// Binds "rls.publish", "rls.unpublish", "rls.lookup", "rls.list" at
  /// `url` on the transport.
  RlsServer(const std::string& url, rpc::Transport* transport);

  // Direct (in-process) catalog access — also used by the RPC handlers.
  Status Publish(const std::string& logical_name,
                 const std::string& server_url);
  Status Unpublish(const std::string& logical_name,
                   const std::string& server_url);
  /// Server URLs hosting `logical_name`; empty when unknown.
  std::vector<std::string> Lookup(const std::string& logical_name) const;
  /// Every mapping, sorted by logical name.
  std::vector<std::pair<std::string, std::string>> Dump() const;
  size_t NumMappings() const;

  const std::string& url() const { return server_.url(); }

 private:
  void RegisterMethods();

  mutable std::shared_mutex mu_;
  std::map<std::string, std::set<std::string>> catalog_;
  rpc::RpcServer server_;
};

/// Client-side helper used by JClarens instances.
class RlsClient {
 public:
  RlsClient(rpc::Transport* transport, std::string client_host,
            std::string rls_url);

  /// Publishes one table -> server mapping (figure 3's flow).
  Status Publish(const std::string& logical_name,
                 const std::string& server_url, net::Cost* cost = nullptr);
  Status PublishAll(const std::vector<std::string>& logical_names,
                    const std::string& server_url, net::Cost* cost = nullptr);
  Status Unpublish(const std::string& logical_name,
                   const std::string& server_url, net::Cost* cost = nullptr);

  /// Hosting servers for a logical table. Charges the RLS lookup cost the
  /// paper identifies as part of the distributed-query penalty (cache hits
  /// charge nothing: the answer is local) to the ledger `cost`, whose
  /// deadline bounds the lookup (see rpc::RpcClient::Call).
  Result<std::vector<std::string>> Lookup(const std::string& logical_name,
                                          net::Cost* cost = nullptr);

  /// Opt-in lookup cache. Off by default so the paper's per-query RLS
  /// charge stays in the measured numbers; switch on to survive RLS
  /// outages (served stale) and to cut repeat-lookup cost.
  void set_cache_enabled(bool enabled);
  bool cache_enabled() const;
  /// Drops one cached mapping — called when a server the cache named
  /// turned out dead, so the next lookup re-consults the live catalog.
  void InvalidateCache(const std::string& logical_name);
  void ClearCache();
  size_t cache_hits() const;

  /// Retry behaviour of the underlying RPC client.
  void set_retry_policy(const rpc::RetryPolicy& policy) {
    client_.set_retry_policy(policy);
  }

  /// Tracer for the underlying RPC client (lookups become "rpc.call"
  /// spans under whatever span is current on the calling thread).
  void set_tracer(obs::Tracer* tracer) { client_.set_tracer(tracer); }

 private:
  rpc::RpcClient client_;
  mutable std::mutex cache_mu_;
  bool cache_enabled_ = false;
  size_t cache_hits_ = 0;
  std::map<std::string, std::vector<std::string>> cache_;  // logical -> urls
};

}  // namespace griddb::rls
