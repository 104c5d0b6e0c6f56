#include "griddb/core/jclarens_server.h"

#include "griddb/obs/metrics.h"
#include "griddb/unity/xspec.h"
#include "griddb/util/logging.h"

namespace griddb::core {

using rpc::XmlRpcArray;
using rpc::XmlRpcStruct;
using rpc::XmlRpcValue;

namespace {
Result<std::string> StringParam(const XmlRpcArray& params, size_t index) {
  if (index >= params.size()) {
    return InvalidArgument("missing parameter " + std::to_string(index));
  }
  return params[index].AsString();
}

Result<int64_t> IntParam(const XmlRpcArray& params, size_t index) {
  if (index >= params.size()) {
    return InvalidArgument("missing parameter " + std::to_string(index));
  }
  return params[index].AsInt();
}

XmlRpcValue BatchInfoToRpc(const BatchJobInfo& info) {
  XmlRpcStruct out;
  out["id"] = static_cast<int64_t>(info.id);
  out["state"] = std::string(BatchJobStateName(info.state));
  out["chunksDone"] = static_cast<int64_t>(info.chunks_done);
  out["totalChunks"] = static_cast<int64_t>(info.total_chunks);
  out["totalKnown"] = info.total_known;
  out["rows"] = static_cast<int64_t>(info.rows);
  out["recovered"] = info.recovered;
  out["ioPauses"] = static_cast<int64_t>(info.io_pauses);
  out["scratchMart"] = info.scratch_mart;
  out["resultTable"] = info.result_table;
  if (!info.error.empty()) out["error"] = info.error;
  return XmlRpcValue(std::move(out));
}
}  // namespace

JClarensServer::JClarensServer(DataAccessConfig config,
                               ral::DatabaseCatalog* catalog,
                               rpc::Transport* transport,
                               XSpecRepository* xspec_repo,
                               BatchConfig batch)
    : service_(std::move(config), catalog, transport),
      xspec_repo_(xspec_repo),
      server_(service_.config().server_url, transport) {
  if (batch.enabled()) {
    batch_ = std::make_unique<BatchJobManager>(&service_, catalog,
                                               std::move(batch));
    // Recovery before the first worker: interrupted jobs resume, done
    // jobs' scratch tables come back. A damaged journal (bad magic) is
    // operator-visible but must not keep the server from serving
    // interactive queries.
    if (Status recovered = batch_->Recover(); !recovered.ok()) {
      GRIDDB_LOG(Warn) << "batch journal recovery failed: "
                       << recovered.ToString();
    }
    if (batch_->config().autostart) batch_->Start();
  }
  RegisterMethods();
}

JClarensServer::~JClarensServer() {
  if (batch_) batch_->Stop();
}

void JClarensServer::RegisterMethods() {
  (void)server_.RegisterMethod(
      "dataaccess.query",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        GRIDDB_ASSIGN_OR_RETURN(std::string sql, StringParam(params, 0));
        if (ctx.forward_depth >= service_.config().max_forward_depth) {
          std::string path = ctx.forward_path.empty()
                                 ? service_.config().server_url
                                 : ctx.forward_path + " -> " +
                                       service_.config().server_url;
          return FailedPrecondition(
              "query forwarding depth exceeded after " + path +
              " (RLS mapping loop?)");
        }
        // A request carrying trace context continues the caller's trace:
        // the handler span parents under the wire context, Query's spans
        // nest under the handler span (same tracer, same thread), and the
        // whole finished subtree ships back in the sparse "spans" member.
        // Untraced requests leave the response byte-identical.
        obs::Tracer& tracer = service_.tracer();
        obs::Span span;
        if (tracer.enabled() && ctx.trace_parent.valid()) {
          span = tracer.StartSpanUnder("dataaccess.query.remote",
                                       ctx.trace_parent);
          span.AddAttr("server", service_.config().server_url);
        }
        // Overload context. A budget shipped on the wire (sparse
        // <deadlineMs>, already shrunk by upstream hops and latency)
        // becomes a deadline token on the virtual clock; an optional
        // second parameter "scan" lowers the scheduling class so admission
        // control sheds this query before interactive ones. Both are
        // sparse: requests that carry neither run exactly as before.
        QueryContext qctx;
        // The tenant identity travels hop-by-hop (sparse <tenant> header):
        // grant checks and lane accounting on every server along a
        // forwarding chain see the ORIGINAL requester, not the forwarding
        // peer.
        qctx.tenant = ctx.tenant;
        if (ctx.deadline_budget_ms > 0) {
          net::Network* network = ctx.transport->network();
          qctx.cancel = CancelToken::WithBudget(
              [network] { return network->NowMs(); }, ctx.deadline_budget_ms);
        }
        if (params.size() >= 2) {
          auto priority = params[1].AsString();
          if (priority.ok() && *priority == "scan") {
            qctx.priority = QueryPriority::kScan;
          }
        }
        QueryStats stats;
        auto rs = service_.Query(sql, &stats, ctx.forward_depth,
                                 ctx.forward_path, std::move(qctx));
        if (!rs.ok()) {
          if (span.active()) span.SetError(rs.status().ToString());
          return rs.status();
        }
        // The service's simulated processing time becomes server-side cost
        // so callers (local clients and forwarding servers) account for it.
        ctx.cost.AddMs(stats.simulated_ms);
        XmlRpcStruct out;
        out["result"] = rpc::ResultSetToRpc(std::move(*rs));
        out["stats"] = StatsToRpc(stats);
        if (span.active()) {
          const uint64_t trace_id = span.context().trace_id;
          span.End();
          // Destructive take: a client retry that re-runs this handler
          // ships only the retry's spans, never stale duplicates.
          std::vector<obs::SpanRecord> spans = tracer.TakeTrace(trace_id);
          // Stamp the producing host so the caller's rendered trace shows
          // where the remote work ran ("@pentium4-b" in FormatTrace).
          for (obs::SpanRecord& record : spans) {
            if (record.host.empty()) record.host = service_.config().host;
          }
          if (!spans.empty()) out["spans"] = SpansToRpc(spans);
        }
        return XmlRpcValue(std::move(out));
      });

  (void)server_.RegisterMethod(
      "dataaccess.metrics",
      [](const XmlRpcArray& params,
         rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)params;
        (void)ctx;
        // The registry is process-wide (all servers in a simulation share
        // it), so any JClarens endpoint can serve the full snapshot.
        obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
        XmlRpcStruct counters;
        for (const auto& [name, value] : snap.counters) {
          counters[name] = static_cast<int64_t>(value);
        }
        XmlRpcStruct gauges;
        for (const auto& [name, value] : snap.gauges) gauges[name] = value;
        XmlRpcStruct histograms;
        for (const auto& [name, data] : snap.histograms) {
          XmlRpcStruct h;
          h["count"] = static_cast<int64_t>(data.count);
          h["sum"] = data.sum;
          XmlRpcArray buckets;
          for (uint64_t bucket : data.buckets) {
            buckets.emplace_back(static_cast<int64_t>(bucket));
          }
          h["buckets"] = std::move(buckets);
          histograms[name] = std::move(h);
        }
        XmlRpcStruct out;
        out["counters"] = std::move(counters);
        out["gauges"] = std::move(gauges);
        out["histograms"] = std::move(histograms);
        return XmlRpcValue(std::move(out));
      });

  (void)server_.RegisterMethod(
      "dataaccess.tenantStats",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)params;
        (void)ctx;
        // Per-lane admission introspection (the registry's tenant metrics
        // are aggregates; the per-tenant breakdown lives here).
        XmlRpcArray lanes;
        for (const AdmissionController::LaneStats& lane :
             service_.admission().lane_stats()) {
          XmlRpcStruct entry;
          entry["tenant"] = lane.tenant;
          entry["weight"] = lane.weight;
          entry["min_reserved"] = static_cast<int64_t>(lane.min_reserved);
          entry["in_flight"] = static_cast<int64_t>(lane.in_flight);
          entry["queued"] = static_cast<int64_t>(lane.queued);
          entry["admitted"] = static_cast<int64_t>(lane.admitted);
          entry["shed"] = static_cast<int64_t>(lane.shed);
          lanes.emplace_back(std::move(entry));
        }
        return XmlRpcValue(std::move(lanes));
      });

  (void)server_.RegisterMethod(
      "dataaccess.explain",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)ctx;
        GRIDDB_ASSIGN_OR_RETURN(std::string sql, StringParam(params, 0));
        GRIDDB_ASSIGN_OR_RETURN(unity::QueryPlan plan,
                                service_.driver().Plan(sql));
        return XmlRpcValue(unity::DescribePlan(plan));
      });

  (void)server_.RegisterMethod(
      "dataaccess.listTables",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)params;
        (void)ctx;
        XmlRpcArray names;
        for (const std::string& name : service_.LocalTables()) {
          names.emplace_back(name);
        }
        return XmlRpcValue(std::move(names));
      });

  (void)server_.RegisterMethod(
      "dataaccess.describeTable",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)ctx;
        GRIDDB_ASSIGN_OR_RETURN(std::string logical, StringParam(params, 0));
        GRIDDB_ASSIGN_OR_RETURN(unity::TableBinding binding,
                                service_.DescribeTable(logical));
        XmlRpcArray columns;
        for (const unity::ColumnBinding& col : binding.columns) {
          XmlRpcStruct column;
          column["name"] = col.logical;
          column["type"] = std::string(storage::DataTypeName(col.type));
          columns.emplace_back(std::move(column));
        }
        XmlRpcStruct out;
        out["table"] = binding.logical;
        out["database"] = binding.database_name;
        out["columns"] = std::move(columns);
        return XmlRpcValue(std::move(out));
      });

  (void)server_.RegisterMethod(
      "dataaccess.tableDigest",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)ctx;
        GRIDDB_ASSIGN_OR_RETURN(std::string logical, StringParam(params, 0));
        std::string database_name;
        if (params.size() > 1) {
          GRIDDB_ASSIGN_OR_RETURN(database_name, params[1].AsString());
        }
        GRIDDB_ASSIGN_OR_RETURN(storage::TableDigest digest,
                                service_.TableDigest(logical, database_name));
        XmlRpcStruct out;
        out["rows"] = static_cast<int64_t>(digest.rows);
        out["md5"] = digest.md5;
        return XmlRpcValue(std::move(out));
      });

  (void)server_.RegisterMethod(
      "dataaccess.registerDatabase",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)ctx;
        GRIDDB_ASSIGN_OR_RETURN(std::string connection, StringParam(params, 0));
        std::string driver;
        if (params.size() > 1) {
          GRIDDB_ASSIGN_OR_RETURN(driver, params[1].AsString());
        }
        GRIDDB_RETURN_IF_ERROR(
            service_.RegisterLiveDatabase(connection, driver));
        return XmlRpcValue(true);
      });

  (void)server_.RegisterMethod(
      "dataaccess.cacheInvalidate",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)ctx;
        // Optional param 0: a logical table to invalidate; with no
        // parameter the whole cache (plans included) is dropped.
        std::string table;
        if (!params.empty()) {
          GRIDDB_ASSIGN_OR_RETURN(table, params[0].AsString());
        }
        return XmlRpcValue(
            static_cast<int64_t>(service_.CacheInvalidate(table)));
      });

  // ---- batch-query service (always registered; kUnavailable when the
  // server has no BatchConfig, so clients get a clean capability error
  // instead of kNotFound method-missing noise). The authenticated tenant
  // from the call context scopes every operation: jobs are visible only
  // to their submitter and results land in that tenant's scratch mart.
  (void)server_.RegisterMethod(
      "dataaccess.batchSubmit",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        if (!batch_) {
          return Unavailable("batch service not configured on this server");
        }
        GRIDDB_ASSIGN_OR_RETURN(std::string sql, StringParam(params, 0));
        GRIDDB_ASSIGN_OR_RETURN(uint64_t id, batch_->Submit(ctx.tenant, sql));
        return XmlRpcValue(static_cast<int64_t>(id));
      });

  (void)server_.RegisterMethod(
      "dataaccess.batchPoll",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        if (!batch_) {
          return Unavailable("batch service not configured on this server");
        }
        GRIDDB_ASSIGN_OR_RETURN(int64_t id, IntParam(params, 0));
        GRIDDB_ASSIGN_OR_RETURN(
            BatchJobInfo info,
            batch_->Poll(ctx.tenant, static_cast<uint64_t>(id)));
        return BatchInfoToRpc(info);
      });

  (void)server_.RegisterMethod(
      "dataaccess.batchCancel",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        if (!batch_) {
          return Unavailable("batch service not configured on this server");
        }
        GRIDDB_ASSIGN_OR_RETURN(int64_t id, IntParam(params, 0));
        GRIDDB_RETURN_IF_ERROR(
            batch_->Cancel(ctx.tenant, static_cast<uint64_t>(id)));
        return XmlRpcValue(true);
      });

  (void)server_.RegisterMethod(
      "dataaccess.batchFetch",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        if (!batch_) {
          return Unavailable("batch service not configured on this server");
        }
        GRIDDB_ASSIGN_OR_RETURN(int64_t id, IntParam(params, 0));
        int64_t page = 0;
        if (params.size() > 1) {
          GRIDDB_ASSIGN_OR_RETURN(page, params[1].AsInt());
        }
        if (page < 0) return InvalidArgument("page must be >= 0");
        GRIDDB_ASSIGN_OR_RETURN(
            storage::ResultSet rs,
            batch_->Fetch(ctx.tenant, static_cast<uint64_t>(id),
                          static_cast<size_t>(page)));
        XmlRpcStruct out;
        out["rows"] = static_cast<int64_t>(rs.rows.size());
        out["result"] = rpc::ResultSetToRpc(std::move(rs));
        return XmlRpcValue(std::move(out));
      });

  // Debug introspection: the crash points the batch checkpoint protocol
  // can fire, straight from the code's own registry. Chaos schedules,
  // the GRIDDB_CRASH_POINT CI sweep and the docs enumerate THIS list
  // instead of hand-copying names that would drift.
  (void)server_.RegisterMethod(
      "dataaccess.crashPoints",
      [](const XmlRpcArray& params,
         rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)params;
        (void)ctx;
        XmlRpcArray names;
        for (const std::string& name : BatchJobManager::CrashPointNames()) {
          names.emplace_back(name);
        }
        return XmlRpcValue(std::move(names));
      });

  (void)server_.RegisterMethod(
      "dataaccess.pluginDatabase",
      [this](const XmlRpcArray& params,
             rpc::CallContext& ctx) -> Result<XmlRpcValue> {
        (void)ctx;
        GRIDDB_ASSIGN_OR_RETURN(std::string xspec_url, StringParam(params, 0));
        GRIDDB_ASSIGN_OR_RETURN(std::string driver, StringParam(params, 1));
        GRIDDB_ASSIGN_OR_RETURN(std::string connection, StringParam(params, 2));
        if (!xspec_repo_) {
          return Unavailable("no XSpec repository configured on this server");
        }
        // Download, parse, connect, update (paper §4.10).
        GRIDDB_ASSIGN_OR_RETURN(std::string content,
                                xspec_repo_->Fetch(xspec_url));
        GRIDDB_ASSIGN_OR_RETURN(unity::LowerXSpec lower,
                                unity::LowerXSpec::FromXml(content));
        unity::UpperXSpecEntry upper;
        upper.database_name = lower.database_name;
        upper.url = connection;
        upper.driver = driver;
        upper.lower_spec = xspec_url;
        GRIDDB_RETURN_IF_ERROR(service_.RegisterDatabase(upper, lower));
        return XmlRpcValue(true);
      });
}

}  // namespace griddb::core
