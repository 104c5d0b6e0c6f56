#include "griddb/rls/rls.h"

#include <mutex>

#include "griddb/obs/metrics.h"
#include "griddb/util/strings.h"

namespace griddb::rls {

using rpc::XmlRpcArray;
using rpc::XmlRpcValue;

namespace {
obs::Counter& LookupCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.rls.lookups");
  return *c;
}
obs::Counter& CacheHitCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.rls.cache_hits");
  return *c;
}
obs::Counter& CacheInvalidationCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.rls.cache_invalidations");
  return *c;
}
obs::Counter& PublishCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.rls.publishes");
  return *c;
}
}  // namespace

RlsServer::RlsServer(const std::string& url, rpc::Transport* transport)
    : server_(url, transport) {
  RegisterMethods();
}

void RlsServer::RegisterMethods() {
  auto expect_strings = [](const XmlRpcArray& params,
                           size_t n) -> Result<std::vector<std::string>> {
    if (params.size() != n) {
      return InvalidArgument("expected " + std::to_string(n) + " parameters");
    }
    std::vector<std::string> out;
    out.reserve(n);
    for (const XmlRpcValue& p : params) {
      GRIDDB_ASSIGN_OR_RETURN(std::string s, p.AsString());
      out.push_back(std::move(s));
    }
    return out;
  };

  (void)server_.RegisterMethod(
      "rls.publish",
      [this, expect_strings](const XmlRpcArray& params,
                             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)ctx;
        GRIDDB_ASSIGN_OR_RETURN(std::vector<std::string> args,
                                expect_strings(params, 2));
        GRIDDB_RETURN_IF_ERROR(Publish(args[0], args[1]));
        return XmlRpcValue(true);
      });

  (void)server_.RegisterMethod(
      "rls.unpublish",
      [this, expect_strings](const XmlRpcArray& params,
                             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)ctx;
        GRIDDB_ASSIGN_OR_RETURN(std::vector<std::string> args,
                                expect_strings(params, 2));
        GRIDDB_RETURN_IF_ERROR(Unpublish(args[0], args[1]));
        return XmlRpcValue(true);
      });

  (void)server_.RegisterMethod(
      "rls.lookup",
      [this, expect_strings](const XmlRpcArray& params,
                             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        GRIDDB_ASSIGN_OR_RETURN(std::vector<std::string> args,
                                expect_strings(params, 1));
        // Catalog probe cost (index access on the RLS backend).
        ctx.cost.AddMs(ctx.transport->costs().rls_lookup_ms);
        XmlRpcArray urls;
        for (const std::string& url : Lookup(args[0])) urls.emplace_back(url);
        return XmlRpcValue(std::move(urls));
      });

  (void)server_.RegisterMethod(
      "rls.list",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)params;
        (void)ctx;
        XmlRpcArray rows;
        for (const auto& [logical, url] : Dump()) {
          rpc::XmlRpcStruct row;
          row["logical"] = logical;
          row["url"] = url;
          rows.emplace_back(std::move(row));
        }
        return XmlRpcValue(std::move(rows));
      });
}

Status RlsServer::Publish(const std::string& logical_name,
                          const std::string& server_url) {
  if (logical_name.empty()) return InvalidArgument("empty logical name");
  GRIDDB_ASSIGN_OR_RETURN(rpc::Url parsed, rpc::Url::Parse(server_url));
  (void)parsed;
  std::unique_lock lock(mu_);
  catalog_[ToLower(logical_name)].insert(server_url);
  return Status::Ok();
}

Status RlsServer::Unpublish(const std::string& logical_name,
                            const std::string& server_url) {
  std::unique_lock lock(mu_);
  auto it = catalog_.find(ToLower(logical_name));
  if (it == catalog_.end() || it->second.erase(server_url) == 0) {
    return NotFound("no mapping " + logical_name + " -> " + server_url);
  }
  if (it->second.empty()) catalog_.erase(it);
  return Status::Ok();
}

std::vector<std::string> RlsServer::Lookup(
    const std::string& logical_name) const {
  std::shared_lock lock(mu_);
  auto it = catalog_.find(ToLower(logical_name));
  if (it == catalog_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::vector<std::pair<std::string, std::string>> RlsServer::Dump() const {
  std::shared_lock lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [logical, urls] : catalog_) {
    for (const std::string& url : urls) out.emplace_back(logical, url);
  }
  return out;
}

size_t RlsServer::NumMappings() const {
  std::shared_lock lock(mu_);
  size_t n = 0;
  for (const auto& [logical, urls] : catalog_) {
    (void)logical;
    n += urls.size();
  }
  return n;
}

// ---------- RlsClient ----------

RlsClient::RlsClient(rpc::Transport* transport, std::string client_host,
                     std::string rls_url)
    : client_(transport, std::move(client_host), std::move(rls_url)) {
  // RLS speaks a lightweight connectionless catalog protocol; there is no
  // heavyweight connect/auth handshake, only the per-lookup charge.
  client_.set_connect_cost_ms(0.0);
}

Status RlsClient::Publish(const std::string& logical_name,
                          const std::string& server_url, net::Cost* cost) {
  XmlRpcArray params;
  params.emplace_back(logical_name);
  params.emplace_back(server_url);
  GRIDDB_ASSIGN_OR_RETURN(XmlRpcValue result,
                          client_.Call("rls.publish", std::move(params), cost));
  (void)result;
  PublishCounter().Add(1);
  InvalidateCache(logical_name);  // a cached miss/mapping is now stale
  return Status::Ok();
}

Status RlsClient::PublishAll(const std::vector<std::string>& logical_names,
                             const std::string& server_url, net::Cost* cost) {
  for (const std::string& name : logical_names) {
    GRIDDB_RETURN_IF_ERROR(Publish(name, server_url, cost));
  }
  return Status::Ok();
}

Status RlsClient::Unpublish(const std::string& logical_name,
                            const std::string& server_url, net::Cost* cost) {
  XmlRpcArray params;
  params.emplace_back(logical_name);
  params.emplace_back(server_url);
  GRIDDB_ASSIGN_OR_RETURN(
      XmlRpcValue result, client_.Call("rls.unpublish", std::move(params), cost));
  (void)result;
  InvalidateCache(logical_name);
  return Status::Ok();
}

Result<std::vector<std::string>> RlsClient::Lookup(
    const std::string& logical_name, net::Cost* cost) {
  const std::string key = ToLower(logical_name);
  LookupCounter().Add(1);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_enabled_) {
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        ++cache_hits_;
        CacheHitCounter().Add(1);
        return it->second;
      }
    }
  }
  XmlRpcArray params;
  params.emplace_back(logical_name);
  GRIDDB_ASSIGN_OR_RETURN(
      XmlRpcValue result,
      client_.Call("rls.lookup", std::move(params), cost));
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcArray* urls, result.AsArray());
  std::vector<std::string> out;
  out.reserve(urls->size());
  for (const XmlRpcValue& url : *urls) {
    GRIDDB_ASSIGN_OR_RETURN(std::string s, url.AsString());
    out.push_back(std::move(s));
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_enabled_) cache_[key] = out;
  }
  return out;
}

void RlsClient::set_cache_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_enabled_ = enabled;
  if (!enabled) cache_.clear();
}

bool RlsClient::cache_enabled() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_enabled_;
}

void RlsClient::InvalidateCache(const std::string& logical_name) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (cache_.erase(ToLower(logical_name)) > 0) {
    CacheInvalidationCounter().Add(1);
  }
}

void RlsClient::ClearCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.clear();
}

size_t RlsClient::cache_hits() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_hits_;
}

}  // namespace griddb::rls
