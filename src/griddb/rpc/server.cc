#include "griddb/rpc/server.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>
#include <limits>
#include <mutex>
#include <string_view>

#include "griddb/obs/metrics.h"
#include "griddb/util/logging.h"
#include "griddb/util/strings.h"

namespace griddb::rpc {

namespace {
// Function-local-static instrument handles keep the hot path allocation-free:
// the registry lookup happens once per process, later hits are a pointer read.
obs::Counter& ServerRequests() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.rpc.server.requests");
  return *c;
}
obs::Counter& ServerFaults() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.rpc.server.faults");
  return *c;
}
obs::Counter& ClientCalls() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.rpc.client.calls");
  return *c;
}
obs::Counter& ClientRetries() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.rpc.client.retries");
  return *c;
}
obs::Counter& ClientFailures() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.rpc.client.failures");
  return *c;
}
obs::Histogram& ClientCallMs() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Default().GetHistogram("griddb.rpc.client.call_ms");
  return *h;
}
obs::Counter& HandshakeFallbacks() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.wire.handshake_fallbacks");
  return *c;
}
}  // namespace

bool IsRetryable(StatusCode code) {
  // Corruption is transient like a drop: the next transmission of the
  // same message draws a fresh fate, so it is worth retrying rather than
  // burning the whole call. A shed (kResourceExhausted) is transient by
  // definition — the server asked the client to come back later.
  return code == StatusCode::kUnavailable || code == StatusCode::kTimeout ||
         code == StatusCode::kCorruption ||
         code == StatusCode::kResourceExhausted;
}

double RetryAfterHintMs(const std::string& message) {
  static constexpr std::string_view kKey = "retry_after_ms=";
  size_t pos = message.find(kKey);
  if (pos == std::string::npos) return 0;
  size_t start = pos + kKey.size();
  size_t end = start;
  while (end < message.size() &&
         (std::isdigit(static_cast<unsigned char>(message[end])) ||
          message[end] == '.')) {
    ++end;
  }
  double hint = 0;
  if (!ParseDouble(std::string_view(message).substr(start, end - start),
                   &hint) ||
      hint < 0) {
    return 0;
  }
  return hint;
}

// ---------- Url ----------

std::string Url::ToString() const {
  return scheme + "://" + host + ":" + std::to_string(port) + path;
}

Result<Url> Url::Parse(std::string_view text) {
  Url url;
  size_t scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos) {
    return ParseError("URL '" + std::string(text) + "' missing scheme");
  }
  url.scheme = std::string(text.substr(0, scheme_end));
  std::string_view rest = text.substr(scheme_end + 3);
  size_t path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  url.path = path_start == std::string_view::npos
                 ? "/"
                 : std::string(rest.substr(path_start));
  size_t colon = authority.find(':');
  if (colon == std::string_view::npos) {
    url.host = std::string(authority);
  } else {
    url.host = std::string(authority.substr(0, colon));
    int64_t port = 0;
    if (!ParseInt64(authority.substr(colon + 1), &port) || port <= 0 ||
        port > 65535) {
      return ParseError("bad port in URL '" + std::string(text) + "'");
    }
    url.port = static_cast<int>(port);
  }
  if (url.host.empty()) {
    return ParseError("URL '" + std::string(text) + "' missing host");
  }
  return url;
}

// ---------- Transport ----------

namespace {
/// Endpoints are keyed by normalized URL (explicit port, no trailing '/').
Result<std::string> NormalizeUrl(const std::string& url) {
  GRIDDB_ASSIGN_OR_RETURN(Url parsed, Url::Parse(url));
  std::string path = parsed.path;
  while (path.size() > 1 && path.back() == '/') path.pop_back();
  parsed.path = path;
  return parsed.ToString();
}
}  // namespace

Status Transport::Bind(const std::string& url, RpcServer* server) {
  // Binding does not require the host to exist yet (fixtures commonly bind
  // before topology setup); an unknown host surfaces at call time as a
  // NotFound from Network::WireTransferMs naming the host.
  GRIDDB_ASSIGN_OR_RETURN(std::string key, NormalizeUrl(url));
  std::unique_lock lock(mu_);
  auto [it, inserted] = endpoints_.emplace(key, server);
  (void)it;
  if (!inserted) return AlreadyExists("endpoint '" + key + "' already bound");
  return Status::Ok();
}

void Transport::Unbind(const std::string& url) {
  auto key = NormalizeUrl(url);
  if (!key.ok()) return;
  std::unique_lock lock(mu_);
  endpoints_.erase(*key);
}

Result<RpcServer*> Transport::Resolve(const std::string& url) const {
  GRIDDB_ASSIGN_OR_RETURN(std::string key, NormalizeUrl(url));
  std::shared_lock lock(mu_);
  auto it = endpoints_.find(key);
  if (it == endpoints_.end()) {
    return Unavailable("no server bound at '" + key + "'");
  }
  return it->second;
}

// ---------- RpcServer ----------

RpcServer::RpcServer(std::string url, Transport* transport)
    : url_(std::move(url)), transport_(transport) {
  auto parsed = Url::Parse(url_);
  host_ = parsed.ok() ? parsed->host : "unknown-host";
  Status bound = transport_->Bind(url_, this);
  if (!bound.ok()) {
    GRIDDB_LOG(Error) << "RpcServer bind failed: " << bound.ToString();
  }
}

RpcServer::~RpcServer() { transport_->Unbind(url_); }

Status RpcServer::RegisterMethod(const std::string& name,
                                 MethodHandler handler) {
  std::unique_lock lock(mu_);
  auto [it, inserted] = methods_.emplace(name, std::move(handler));
  (void)it;
  if (!inserted) return AlreadyExists("method '" + name + "' already registered");
  return Status::Ok();
}

std::vector<std::string> RpcServer::MethodNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(methods_.size());
  for (const auto& [name, handler] : methods_) {
    (void)handler;
    names.push_back(name);
  }
  return names;
}

void RpcServer::AddUser(const std::string& user, const std::string& password,
                        const std::string& tenant) {
  std::unique_lock lock(mu_);
  users_[user] = password;
  if (!tenant.empty()) user_tenants_[user] = tenant;
}

bool RpcServer::auth_required() const {
  std::shared_lock lock(mu_);
  return !users_.empty();
}

Result<std::string> RpcServer::Login(const std::string& user,
                                     const std::string& password) {
  std::unique_lock lock(mu_);
  auto it = users_.find(user);
  if (it == users_.end() || it->second != password) {
    return PermissionDenied("invalid credentials for user '" + user + "'");
  }
  std::string token =
      "sess-" + std::to_string(next_session_++) + "-" + user;
  sessions_[token] = user;
  return token;
}

std::string RpcServer::HandleRaw(std::string_view raw_request,
                                 const std::string& client_host,
                                 net::Cost* cost, int forward_depth,
                                 const std::string& forward_path) {
  CallContext ctx;
  ctx.client_host = client_host;
  ctx.server_host = host_;
  ctx.transport = transport_;
  ctx.forward_depth = forward_depth;
  ctx.forward_path = forward_path;
  ctx.cost.AddMs(transport_->costs().query_parse_ms);
  ServerRequests().Add(1);

  // Faults ALWAYS encode as XML so any client can read them; successful
  // responses switch to binary frames only when the request's
  // <wireAccept> header (set after decode, below) meets this server's
  // own capabilities.
  uint32_t response_caps = 0;
  auto respond = [&](const Result<XmlRpcValue>& result) {
    if (cost) cost->AddSequential(ctx.cost);
    if (!result.ok()) {
      ServerFaults().Add(1);
      return EncodeFault(result.status());
    }
    if (response_caps & wire::kCapBinary) {
      // The hint approximates what EncodeResponse would have produced
      // (envelope + value); it only feeds the bytes_saved metric.
      return wire::EncodeBinaryResponse(*result, response_caps,
                                        stream_chunk_rows_,
                                        result->EstimateXmlSize() + 96);
    }
    return EncodeResponse(*result);
  };

  auto request = DecodeRequest(raw_request);
  if (!request.ok()) return respond(request.status());
  ctx.trace_parent = {request->trace_id, request->parent_span_id};
  // The ledger started at 0 on arrival; the caller's remaining budget
  // becomes its deadline instant.
  if (request->deadline_ms > 0) ctx.cost.SetDeadline(request->deadline_ms);
  ctx.tenant = request->tenant;
  response_caps = wire::CapsFromString(request->wire_accept) & wire_caps_;

  // Built-in session login.
  if (request->method == "system.login") {
    if (request->params.size() != 2) {
      return respond(InvalidArgument("system.login expects (user, password)"));
    }
    auto user = request->params[0].AsString();
    auto password = request->params[1].AsString();
    if (!user.ok() || !password.ok()) {
      return respond(InvalidArgument("system.login expects string params"));
    }
    auto token = Login(*user, *password);
    if (!token.ok()) return respond(token.status());
    return respond(XmlRpcValue(*token));
  }
  if (request->method == "system.listMethods") {
    XmlRpcArray names;
    for (const std::string& name : MethodNames()) names.emplace_back(name);
    return respond(XmlRpcValue(std::move(names)));
  }

  // Session check. On client-facing hops the tenant identity is BOUND to
  // the authenticated session, never adopted from the wire: a client
  // writing another community's name into the <tenant> header would
  // otherwise inherit that tenant's grants and admission lane. Only
  // server-to-server forwards (forward_depth > 0, which is set in-process
  // by the forwarding server and never decoded from the wire) relay the
  // original requester's tenant verbatim, because the peer already
  // enforced the binding at the edge.
  if (auth_required()) {
    std::shared_lock lock(mu_);
    auto it = sessions_.find(request->session_token);
    if (it == sessions_.end()) {
      return respond(
          PermissionDenied("missing or invalid session token; call "
                           "system.login first"));
    }
    ctx.authenticated_user = it->second;
    if (forward_depth == 0) {
      auto bound = user_tenants_.find(ctx.authenticated_user);
      const std::string& session_tenant = bound != user_tenants_.end()
                                              ? bound->second
                                              : ctx.authenticated_user;
      if (!request->tenant.empty() && request->tenant != session_tenant) {
        return respond(PermissionDenied(
            "tenant '" + request->tenant + "' does not match tenant '" +
            session_tenant + "' bound to session user '" +
            ctx.authenticated_user + "'"));
      }
      ctx.tenant = session_tenant;
    }
  }

  MethodHandler handler;
  {
    std::shared_lock lock(mu_);
    auto it = methods_.find(request->method);
    if (it == methods_.end()) {
      return respond(
          NotFound("no such method '" + request->method + "'"));
    }
    handler = it->second;
  }
  return respond(handler(request->params, ctx));
}

// ---------- RpcClient ----------

RpcClient::RpcClient(Transport* transport, std::string client_host,
                     std::string server_url, std::string user,
                     std::string password)
    : transport_(transport),
      client_host_(std::move(client_host)),
      server_url_(std::move(server_url)),
      user_(std::move(user)),
      password_(std::move(password)) {}

Status RpcClient::Connect(net::Cost* cost) {
  std::lock_guard<std::mutex> lock(connect_mu_);
  if (connected_) return Status::Ok();
  GRIDDB_ASSIGN_OR_RETURN(RpcServer * server,
                          transport_->Resolve(server_url_));
  // TCP + service handshake, then authentication when the server needs it.
  double connect_ms = connect_cost_ms_ >= 0 ? connect_cost_ms_
                                            : transport_->costs().connect_auth_ms;
  if (cost) cost->AddMs(connect_ms);
  if (server->auth_required()) {
    GRIDDB_ASSIGN_OR_RETURN(std::string token, server->Login(user_, password_));
    session_token_ = token;
  }
  // Capability handshake: the server advertises, the client intersects
  // with its own preference. It rides the connect/auth exchange just
  // charged above (like Login, an in-process leg of connection setup),
  // so negotiating costs no extra messages and perturbs no fault-plan
  // draws — the timing of every later call is identical whichever codec
  // wins. An unrecognizable peer simply leaves the intersection empty
  // and the connection falls back to plain XML-RPC.
  negotiated_caps_ =
      wire::CapsFromString(wire::CapsToString(wire_preference_)) &
      server->wire_caps();
  wire_accept_ = wire::CapsToString(negotiated_caps_);
  if ((wire_preference_ & wire::kCapBinary) &&
      !(negotiated_caps_ & wire::kCapBinary)) {
    HandshakeFallbacks().Add(1);
  }
  connected_ = true;
  return Status::Ok();
}

void RpcClient::set_retry_policy(const RetryPolicy& policy) {
  std::lock_guard<std::mutex> lock(jitter_mu_);
  retry_policy_ = policy;
  jitter_rng_ = Rng(policy.jitter_seed);
}

void RpcClient::Charge(net::Cost* cost, double ms) {
  if (ms <= 0) return;
  cost->AddMs(ms);
  transport_->network()->AdvanceClockMs(ms);
}

Result<XmlRpcValue> RpcClient::CallOnce(
    const std::string& method, const XmlRpcArray& params, net::Cost* cost,
    int forward_depth, const std::string& forward_path,
    const obs::SpanContext& trace_ctx, double attempt_timeout_ms,
    double end_ms, const std::string& tenant, CallStats* call_stats,
    wire::StreamSink* sink) {
  GRIDDB_RETURN_IF_ERROR(Connect(cost));
  // Connecting may itself have spent the query's budget.
  GRIDDB_RETURN_IF_ERROR(cost->cancel().Check());
  GRIDDB_ASSIGN_OR_RETURN(RpcServer * server,
                          transport_->Resolve(server_url_));
  const double attempt_start = cost->now_ms();
  double attempt_end = std::min(end_ms, cost->deadline_ms());
  if (attempt_timeout_ms > 0) {
    attempt_end = std::min(attempt_end, attempt_start + attempt_timeout_ms);
  }

  RpcRequest request;
  request.method = method;
  request.params = params;
  request.session_token = session_token_;
  request.trace_id = trace_ctx.trace_id;
  request.parent_span_id = trace_ctx.span_id;
  request.deadline_ms =
      std::isfinite(cost->deadline_ms()) ? cost->remaining_ms() : 0;
  request.tenant = tenant;
  request.wire_accept = wire_accept_;
  std::string raw_request = EncodeRequest(request);
  if (call_stats) call_stats->request_bytes += raw_request.size();

  net::Network* network = transport_->network();
  const bool bounded = std::isfinite(attempt_end);
  // Waiting out the attempt lands the ledger on its deadline exactly; when
  // that is the query's deadline, the query expires with it.
  auto wait_until_end = [&] {
    network->AdvanceClockMs(attempt_end - cost->now_ms());
    cost->AdvanceTo(attempt_end);
  };
  // A lost message is only detected by waiting out the attempt budget.
  auto wait_out = [&](const Status& failure) -> Status {
    if (failure.code() == StatusCode::kTimeout && bounded) wait_until_end();
    return failure;
  };
  // The client gives up mid-leg once the budget is spent.
  auto over_deadline = [&](double next_ms) {
    return bounded && cost->now_ms() + next_ms > attempt_end;
  };
  auto abort_deadline = [&](const char* leg) -> Status {
    wait_until_end();
    return Timeout(std::string(leg) + " of call '" + method +
                   "' exceeded the " +
                   std::to_string(attempt_end - attempt_start) +
                   " ms attempt deadline");
  };
  auto charge_leg = [&](double ms) { Charge(cost, ms); };

  // Request leg (fault injection applies per message direction).
  auto request_ms =
      network->WireTransferMs(client_host_, server->host(), raw_request.size());
  if (!request_ms.ok()) return wait_out(request_ms.status());
  if (over_deadline(*request_ms)) return abort_deadline("request transfer");
  charge_leg(*request_ms);
  if (call_stats) call_stats->request_sent_ms = cost->now_ms();

  // The server keeps its own ledger, starting at 0 when the request
  // arrives (request_sent_ms on ours); its total is this leg.
  net::Cost server_cost;
  std::string raw_response = server->HandleRaw(
      raw_request, client_host_, &server_cost, forward_depth, forward_path);
  if (over_deadline(server_cost.total_ms())) {
    return abort_deadline("server processing");
  }
  charge_leg(server_cost.total_ms());

  // Response leg. Binary responses ("GBF1" magic) deliver frame by frame
  // so corruption is detected by the digest and streamed chunks overlap
  // with their consumption; XML responses keep the one-shot transfer.
  if (wire::LooksBinary(raw_response)) {
    return ReceiveBinary(server->host(), raw_response, cost, call_stats, sink,
                         over_deadline, abort_deadline, charge_leg, wait_out);
  }
  auto response_ms =
      network->WireTransferMs(server->host(), client_host_, raw_response.size());
  if (!response_ms.ok()) return wait_out(response_ms.status());
  if (over_deadline(*response_ms)) return abort_deadline("response transfer");
  charge_leg(*response_ms);
  if (call_stats) {
    call_stats->response_bytes = raw_response.size();
    call_stats->response_transfer_ms = *response_ms;
  }

  return DecodeResponse(raw_response);
}

Result<XmlRpcValue> RpcClient::ReceiveBinary(
    const std::string& server_host, std::string_view raw_response,
    net::Cost* cost, CallStats* call_stats, wire::StreamSink* sink,
    const std::function<bool(double)>& over_deadline,
    const std::function<Status(const char*)>& abort_deadline,
    const std::function<void(double)>& charge_leg,
    const std::function<Status(const Status&)>& wait_out) {
  // Framing runs on the pristine server-side bytes; each frame then
  // suffers its own simulated delivery (fault draws included) below.
  GRIDDB_ASSIGN_OR_RETURN(auto frame_ranges, wire::SplitFrames(raw_response));

  net::Network* network = transport_->network();
  wire::ResponseDecoder decoder;
  std::vector<storage::Row> rows;  // Reassembly buffer when no sink.
  bool used_sink = false;

  // Virtual-time pipeline, all offsets relative to the start of the
  // response leg. The link moves one frame at a time; a delivered chunk
  // is then consumed (sink credit = simulated integration ms); transfer
  // of chunk i+window waits for the credit of chunk i. Elapsed time is
  // charged monotonically as events land so deadline checks stay exact.
  double link_free = 0;
  double consumer_free = 0;
  double charged = 0;
  std::vector<double> chunk_credit;  // Consume-finish time per chunk.
  auto charge_to = [&](double t) -> Status {
    if (t <= charged) return Status::Ok();
    if (over_deadline(t - charged)) return abort_deadline("response transfer");
    charge_leg(t - charged);
    charged = t;
    return Status::Ok();
  };

  for (size_t i = 0; i < frame_ranges.size(); ++i) {
    auto [offset, length] = frame_ranges[i];
    std::string delivered(raw_response.substr(offset, length));
    double start = link_free;
    size_t chunk_index = chunk_credit.size();
    if (chunk_index >= stream_window_) {
      start = std::max(start, chunk_credit[chunk_index - stream_window_]);
    }
    // Frames after the first ride the same established connection, so
    // only the first pays the link latency term.
    auto transfer_ms =
        network->WireDeliverMs(server_host, client_host_, &delivered, i == 0);
    if (!transfer_ms.ok()) {
      GRIDDB_RETURN_IF_ERROR(charge_to(std::max(link_free, consumer_free)));
      return wait_out(transfer_ms.status());
    }
    double arrive = start + *transfer_ms;
    link_free = arrive;
    GRIDDB_RETURN_IF_ERROR(charge_to(arrive));

    // Digest check on the delivered (possibly damaged) bytes.
    GRIDDB_ASSIGN_OR_RETURN(wire::Frame frame, wire::ParseFrame(delivered));
    storage::ResultSet chunk;
    bool is_chunk = false;
    GRIDDB_RETURN_IF_ERROR(decoder.Consume(std::move(frame), &chunk, &is_chunk));
    if (!is_chunk) continue;

    if (call_stats) ++call_stats->streamed_chunks;
    double consume_start = std::max(arrive, consumer_free);
    double consume_ms = 0;
    if (sink != nullptr) {
      used_sink = true;
      GRIDDB_ASSIGN_OR_RETURN(consume_ms,
                              sink->OnChunk(std::move(chunk), chunk_index));
      if (consume_ms < 0) consume_ms = 0;
    } else {
      rows.insert(rows.end(), std::make_move_iterator(chunk.rows.begin()),
                  std::make_move_iterator(chunk.rows.end()));
    }
    consumer_free = consume_start + consume_ms;
    chunk_credit.push_back(consumer_free);
    if (chunk_index == 0) {
      GRIDDB_RETURN_IF_ERROR(charge_to(consumer_free));
      if (call_stats) call_stats->first_chunk_ms = cost->total_ms();
    }
  }
  GRIDDB_RETURN_IF_ERROR(charge_to(std::max(link_free, consumer_free)));
  if (call_stats) {
    call_stats->response_bytes = raw_response.size();
    call_stats->response_transfer_ms = charged;
  }
  return decoder.Finish(!used_sink, std::move(rows));
}

Result<XmlRpcValue> RpcClient::Call(const std::string& method,
                                    XmlRpcArray params, net::Cost* cost,
                                    int forward_depth,
                                    const std::string& forward_path,
                                    CallStats* call_stats,
                                    const std::string& tenant,
                                    wire::StreamSink* sink) {
  const std::string& wire_tenant = tenant.empty() ? default_tenant_ : tenant;
  RetryPolicy policy;
  {
    std::lock_guard<std::mutex> lock(jitter_mu_);
    policy = retry_policy_;
  }
  ClientCalls().Add(1);
  // The call runs on a fork of the caller's ledger, so it sees the query's
  // deadline and token, and the histogram sees exactly what it cost.
  net::Cost local = cost != nullptr ? cost->Fork() : net::Cost();
  obs::Span span;
  if (tracer_ && tracer_->enabled()) {
    span = tracer_->StartSpan("rpc.call", &local);
    span.AddAttr("method", method);
    span.AddAttr("server", server_url_);
  }
  const obs::SpanContext trace_ctx = span.context();
  auto finish = [&](Result<XmlRpcValue> result) -> Result<XmlRpcValue> {
    if (cost) cost->AddSequential(local);
    ClientCallMs().Observe(local.total_ms());
    if (!result.ok()) {
      ClientFailures().Add(1);
      if (span.active()) span.SetError(result.status().ToString());
    }
    span.End();
    return result;
  };
  // The policy's overall deadline as an instant on the call's ledger; the
  // query's own deadline lives on the ledger and bounds every attempt too.
  const double overall_end = policy.overall_timeout_ms > 0
                                 ? local.now_ms() + policy.overall_timeout_ms
                                 : std::numeric_limits<double>::infinity();
  const int max_attempts = std::max(1, policy.max_attempts);
  double backoff = policy.initial_backoff_ms;
  for (int attempt = 1;; ++attempt) {
    // A spent budget (this call's, a sibling branch's) or a client abort
    // latched the query's token.
    if (Status live = local.cancel().Check(); !live.ok()) return finish(live);
    if (local.now_ms() >= overall_end) {
      return finish(Timeout("call '" + method + "' exceeded the " +
                            std::to_string(policy.overall_timeout_ms) +
                            " ms overall deadline"));
    }
    if (call_stats) ++call_stats->attempts;
    // A retry re-delivers any stream from the top; the sink must drop
    // partial state from the failed attempt.
    if (sink != nullptr && attempt > 1) sink->OnRestart();
    if (call_stats && attempt > 1) call_stats->streamed_chunks = 0;
    Result<XmlRpcValue> result =
        CallOnce(method, params, &local, forward_depth, forward_path,
                 trace_ctx, policy.attempt_timeout_ms, overall_end,
                 wire_tenant, call_stats, sink);
    // An attempt cut at the query's deadline expired it (or a sibling
    // did): no retry can spend a budget that is gone.
    if (!result.ok() && local.cancel().cancelled()) {
      result = local.cancel().Check();
    }
    if (result.ok() || !IsRetryable(result.status().code()) ||
        attempt >= max_attempts) {
      if (call_stats && !result.ok() &&
          !IsRetryable(result.status().code())) {
        call_stats->non_retryable = true;
      }
      return finish(std::move(result));
    }
    double jitter = 0;
    {
      std::lock_guard<std::mutex> lock(jitter_mu_);
      jitter = backoff * policy.jitter_fraction *
               (2.0 * jitter_rng_.NextDouble() - 1.0);
    }
    double wait = std::clamp(backoff + jitter, 0.0, policy.max_backoff_ms);
    // An overloaded server's retry-after hint stretches the wait: coming
    // back sooner than asked would just be shed again.
    if (result.status().code() == StatusCode::kResourceExhausted) {
      wait = std::max(wait, RetryAfterHintMs(result.status().message()));
    }
    // Never let backoff itself blow the budget: if waiting would spend the
    // rest of it, give up now with the last real failure.
    const double budget_left =
        std::min(overall_end, local.deadline_ms()) - local.now_ms();
    if (std::isfinite(budget_left) && wait >= budget_left) {
      return finish(std::move(result));
    }
    if (call_stats) ++call_stats->retries;
    ClientRetries().Add(1);
    // The backoff wait advances the fault timeline too, which is what
    // lets a retry schedule outlast a host down-window.
    Charge(&local, wait);
    backoff = std::min(backoff * policy.backoff_multiplier,
                       policy.max_backoff_ms);
  }
}

}  // namespace griddb::rpc
