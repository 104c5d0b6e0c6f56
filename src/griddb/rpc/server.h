// Clarens-style RPC endpoint: transport registry, server, call context.
//
// Servers bind to URLs ("clarens://cern-tier1:8080/clarens") on a shared
// Transport; clients resolve a URL and exchange encoded XML-RPC messages.
// The Transport charges the simulated network for every message by its
// actual encoded byte size, and the server charges per-operation service
// costs into the call's Cost accumulator. Authentication follows the
// Clarens session model: a login handshake issues a session token that
// subsequent calls carry.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

#include "griddb/net/network.h"
#include "griddb/obs/trace.h"
#include "griddb/rpc/wire.h"
#include "griddb/rpc/xmlrpc_value.h"
#include "griddb/util/cancellation.h"
#include "griddb/util/rng.h"
#include "griddb/util/status.h"

namespace griddb::rpc {

/// True when a failed call may succeed if simply retried: the failure was
/// a transient transport or availability condition (kUnavailable,
/// kTimeout, kCorruption) or a shed-under-overload rejection
/// (kResourceExhausted, which carries a retry-after hint) rather than a
/// permanent error such as kNotFound (unknown host, missing method/table)
/// or kPermissionDenied. kDeadlineExceeded is deliberately NOT retryable:
/// the caller's budget is spent, retrying cannot help.
bool IsRetryable(StatusCode code);

/// Extracts the "retry_after_ms=<N>" hint an overloaded server embeds in
/// its kResourceExhausted fault message; 0 when absent/malformed. The
/// retry loop waits at least this long before the next attempt.
double RetryAfterHintMs(const std::string& message);

/// Retry behaviour of one RpcClient: bounded attempts with exponential
/// backoff + deterministic jitter, and a per-attempt deadline on the
/// virtual clock. Backoff and timeout waits are charged to the call's
/// Cost and advance the network clock, so retries interact correctly with
/// host down-windows.
struct RetryPolicy {
  int max_attempts = 1;             ///< 1 = never retry.
  double initial_backoff_ms = 50.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 1600.0;
  double jitter_fraction = 0.2;     ///< +/- fraction of the backoff, seeded.
  /// Virtual-clock budget for one attempt (transfer + server work +
  /// injected delays). A dropped message costs the full budget — the
  /// client waits it out before concluding kTimeout. <= 0 disables the
  /// deadline (the seed behaviour).
  double attempt_timeout_ms = 0;
  /// Virtual-clock budget for the whole call: attempts PLUS the backoff
  /// waits between them. Once spent, the loop stops retrying (returning
  /// the last failure) and backoff waits are clipped so the call never
  /// outlives the caller's total budget. <= 0 disables the overall
  /// deadline (the seed behaviour, where max_attempts * attempt_timeout
  /// bounded attempts but backoff could still stretch the call).
  double overall_timeout_ms = 0;
  uint64_t jitter_seed = 0x5eed;

  /// Seed behaviour: one attempt, no deadline.
  static RetryPolicy None() { return {}; }
  /// 4 attempts, 50 ms initial backoff doubling to 1.6 s, 1 s deadline.
  static RetryPolicy Default() {
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.attempt_timeout_ms = 1000.0;
    return policy;
  }
};

/// Per-call outcome counters (attempts includes the first try).
struct CallStats {
  int attempts = 0;
  int retries = 0;
  /// True when the call failed with a permanent (non-retryable) status:
  /// the retry loop stopped without burning backoff, e.g. on
  /// kPermissionDenied from a plan-time grant check.
  bool non_retryable = false;
  /// Wire accounting of the call (accumulated across attempts for the
  /// request; the response fields reflect the successful attempt).
  size_t request_bytes = 0;
  size_t response_bytes = 0;
  /// Simulated ms the response spent on the wire (for a streamed response
  /// this is the whole pipelined leg: transfers overlapped with chunk
  /// consumption).
  double response_transfer_ms = 0;
  /// Chunk frames delivered on the streamed path (0 = not streamed).
  int streamed_chunks = 0;
  /// Call-relative virtual ms at which the first streamed chunk had been
  /// transferred AND consumed; < 0 when the response did not stream.
  double first_chunk_ms = -1;
};

/// Parsed service URL: scheme://host[:port]/path
struct Url {
  std::string scheme;
  std::string host;
  int port = 8080;
  std::string path;

  std::string ToString() const;
  static Result<Url> Parse(std::string_view text);
};

class RpcServer;

/// Shared endpoint registry over the simulated network.
class Transport {
 public:
  Transport(net::Network* network, net::ServiceCosts costs)
      : network_(network), costs_(costs) {}

  Status Bind(const std::string& url, RpcServer* server);
  void Unbind(const std::string& url);
  Result<RpcServer*> Resolve(const std::string& url) const;

  net::Network* network() const { return network_; }
  const net::ServiceCosts& costs() const { return costs_; }

 private:
  net::Network* network_;
  net::ServiceCosts costs_;
  mutable std::shared_mutex mu_;
  std::map<std::string, RpcServer*> endpoints_;
};

/// Per-call state threaded through method handlers.
struct CallContext {
  std::string client_host;
  std::string server_host;
  std::string authenticated_user;  ///< Empty for anonymous calls.
  net::Cost cost;                  ///< Server-side simulated cost.
  Transport* transport = nullptr;  ///< For handlers that call out (RLS,
                                   ///< remote JClarens forwarding).
  int forward_depth = 0;           ///< Guards against forwarding loops.
  std::string forward_path;        ///< " -> "-separated server URLs already
                                   ///< visited (loop diagnostics).
  /// Caller's distributed-trace context (invalid when the request carried
  /// none). Handlers that trace open their server-side span under it and
  /// ship the resulting child spans back in the response.
  obs::SpanContext trace_parent;
  /// Remaining query budget the request carried (<deadlineMs> header);
  /// 0 = the caller set no deadline. Handlers that do real work derive a
  /// CancelToken from it so a forwarded query never outlives its caller.
  double deadline_budget_ms = 0;
  /// Tenant identity of the request; empty for the default anonymous
  /// tenant. On an authenticated client-facing hop this is derived from
  /// the session user's tenant binding (a <tenant> header that disagrees
  /// is rejected, so a client cannot impersonate another community); on
  /// server-to-server forwards (forward_depth > 0) and unauthenticated
  /// servers the raw <tenant> header is adopted. Handlers thread it into
  /// the QueryContext so grants and admission lanes follow the original
  /// requester across forwards.
  std::string tenant;
};

using MethodHandler =
    std::function<Result<XmlRpcValue>(const XmlRpcArray&, CallContext&)>;

class RpcServer {
 public:
  /// Binds the server to `url` on `transport`. The URL's host must exist
  /// in the transport's network.
  RpcServer(std::string url, Transport* transport);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  const std::string& url() const { return url_; }
  const std::string& host() const { return host_; }
  Transport* transport() const { return transport_; }

  Status RegisterMethod(const std::string& name, MethodHandler handler);
  std::vector<std::string> MethodNames() const;

  /// Adds a credential; once any credential exists, non-login calls
  /// require a valid session token. `tenant` binds the login to a tenant
  /// community: requests on the user's sessions run as that tenant, and a
  /// <tenant> wire header naming anyone else is rejected (impersonation).
  /// Empty = the user name doubles as its tenant identity.
  void AddUser(const std::string& user, const std::string& password,
               const std::string& tenant = "");
  bool auth_required() const;

  /// Validates credentials and issues a session token ("system.login" is
  /// also exposed as an RPC method).
  Result<std::string> Login(const std::string& user,
                            const std::string& password);

  /// Server side of one exchange: decode, authenticate, dispatch, encode.
  /// Service costs (parse/dispatch + handler-added) accumulate into `cost`.
  std::string HandleRaw(std::string_view raw_request,
                        const std::string& client_host, net::Cost* cost,
                        int forward_depth = 0,
                        const std::string& forward_path = "");

  /// Wire capabilities this server advertises at connect time (setup-time
  /// knob; configure before serving). Defaults to everything this build
  /// supports; 0 simulates an old XML-only server for the fallback matrix.
  void set_wire_caps(uint32_t caps) { wire_caps_ = caps; }
  uint32_t wire_caps() const { return wire_caps_; }

  /// Rows per chunk frame on streamed binary responses (setup-time knob).
  void set_stream_chunk_rows(size_t rows) { stream_chunk_rows_ = rows; }
  size_t stream_chunk_rows() const { return stream_chunk_rows_; }

 private:
  std::string url_;
  std::string host_;
  Transport* transport_;
  mutable std::shared_mutex mu_;
  std::map<std::string, MethodHandler> methods_;
  std::map<std::string, std::string> users_;     // user -> password
  std::map<std::string, std::string> user_tenants_;  // user -> bound tenant
  std::map<std::string, std::string> sessions_;  // token -> user
  int next_session_ = 1;
  uint32_t wire_caps_ = wire::kAllCaps;
  size_t stream_chunk_rows_ = 1024;
};

/// Client-side proxy. Connection setup (resolve + authenticate) happens
/// lazily on the first call and its cost is charged once, mirroring the
/// paper's "connecting and authenticating with several databases or
/// servers" penalty; later calls reuse the session. Thread-safe: parallel
/// sub-query fan-out may share one cached client per remote server.
class RpcClient {
 public:
  RpcClient(Transport* transport, std::string client_host,
            std::string server_url, std::string user = "",
            std::string password = "");

  /// Explicit connect (optional; Call connects on demand).
  Status Connect(net::Cost* cost);
  bool connected() const { return connected_; }

  /// Overrides the one-time connection-setup charge. The RLS client sets
  /// this to 0: Globus RLS is a lightweight connectionless catalog
  /// protocol, so only the per-lookup cost applies.
  void set_connect_cost_ms(double ms) { connect_cost_ms_ = ms; }

  /// Retry behaviour for Call. Defaults to RetryPolicy::None(). Reseeds
  /// the jitter stream from the policy, so retry schedules replay
  /// deterministically.
  void set_retry_policy(const RetryPolicy& policy);
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Attaches a tracer: every Call opens an "rpc.call" span (parented to
  /// the calling thread's current span) and puts its context on the wire
  /// so the server continues the trace. Null (the default) disables both.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// One RPC. Network transfer both ways + server-side handler cost are
  /// added to `cost` (which may be null when the caller doesn't account).
  /// Transient failures (see IsRetryable) are retried per the client's
  /// RetryPolicy; backoff waits are charged to `cost` and advance the
  /// network's virtual clock. `call_stats`, when given, receives the
  /// attempt/retry counts of this call.
  ///
  /// `cancel`, when given and active, bounds the call end to end: each
  /// attempt carries the remaining budget on the wire (<deadlineMs>), the
  /// per-attempt deadline is clipped to what is left, backoff never
  /// stretches past expiry, and a cancelled token fails the call
  /// immediately between attempts. Retries and failover re-attempts
  /// therefore spend the caller's budget rather than extending it.
  ///
  /// `tenant`, when non-empty, rides each attempt as the sparse <tenant>
  /// header (overriding set_tenant's default); empty falls back to the
  /// client default. Per-call so fan-out paths can share one cached
  /// client per remote server across tenants.
  /// `sink`, when given, consumes streamed chunk frames as they arrive
  /// (the coordinator's early merge); the streamed member of the returned
  /// envelope then carries only the column schema. Without a sink the
  /// client reassembles the full result transparently. A retried attempt
  /// calls sink->OnRestart() first.
  Result<XmlRpcValue> Call(const std::string& method, XmlRpcArray params,
                           net::Cost* cost, int forward_depth = 0,
                           const std::string& forward_path = "",
                           CallStats* call_stats = nullptr,
                           const CancelToken* cancel = nullptr,
                           const std::string& tenant = "",
                           wire::StreamSink* sink = nullptr);

  /// Default tenant identity stamped on every Call without an explicit
  /// per-call tenant. Empty (the default) sends no <tenant> header.
  void set_tenant(const std::string& tenant) { default_tenant_ = tenant; }
  const std::string& tenant() const { return default_tenant_; }

  /// Wire capabilities this client ASKS for (setup-time knob; configure
  /// before the first Call). Defaults to the GRIDDB_WIRE env toggle,
  /// i.e. 0 = plain XML-RPC unless the environment opts in. The connect
  /// handshake intersects this with what the server advertises.
  void set_wire_preference(uint32_t caps) { wire_preference_ = caps; }
  uint32_t wire_preference() const { return wire_preference_; }
  /// Capabilities agreed at connect time (0 before Connect / when either
  /// side stayed XML-only).
  uint32_t negotiated_caps() const { return negotiated_caps_; }

  /// Flow-control window: chunk frames in flight before the next transfer
  /// waits for consumer credit (setup-time knob; minimum 1).
  void set_stream_window(size_t window) {
    stream_window_ = window < 1 ? 1 : window;
  }
  size_t stream_window() const { return stream_window_; }

  const std::string& server_url() const { return server_url_; }

 private:
  /// `attempt_budget_ms` <= 0 means "no deadline this attempt";
  /// `wire_deadline_ms` > 0 rides the request as <deadlineMs>;
  /// `limit_ms` is the shared-clock instant no charge moves it past.
  Result<XmlRpcValue> CallOnce(const std::string& method,
                               const XmlRpcArray& params, net::Cost* cost,
                               int forward_depth,
                               const std::string& forward_path,
                               const obs::SpanContext& trace_ctx,
                               double attempt_budget_ms,
                               double wire_deadline_ms, double limit_ms,
                               const std::string& tenant,
                               CallStats* call_stats, wire::StreamSink* sink);
  /// Client side of a framed binary response: per-frame simulated
  /// delivery under the flow-control window, digest checks, chunk
  /// hand-off to `sink` (or transparent reassembly).
  Result<XmlRpcValue> ReceiveBinary(
      const std::string& server_host, std::string_view raw_response,
      net::Cost* cost, CallStats* call_stats, wire::StreamSink* sink,
      const std::function<bool(double)>& over_deadline,
      const std::function<Status(const char*)>& abort_deadline,
      const std::function<void(double)>& charge_leg,
      const std::function<Status(const Status&)>& wait_out);
  /// Charges `ms` to `cost` (when non-null) and advances the virtual clock
  /// by it, never past `limit_ms` (the query deadline's instant; see
  /// net::Network::AdvanceClockMs).
  void Charge(net::Cost* cost, double ms,
              double limit_ms = std::numeric_limits<double>::infinity());

  Transport* transport_;
  std::string client_host_;
  std::string server_url_;
  std::string user_;
  std::string password_;
  std::mutex connect_mu_;          ///< Serializes the connect handshake.
  bool connected_ = false;
  double connect_cost_ms_ = -1.0;  ///< <0 = use transport default.
  std::string session_token_;
  std::string default_tenant_;
  uint32_t wire_preference_ = wire::EnvWirePreference();
  uint32_t negotiated_caps_ = 0;
  std::string wire_accept_;  // CapsToString(negotiated_caps_), cached at Connect.
  size_t stream_window_ = 4;
  RetryPolicy retry_policy_;
  obs::Tracer* tracer_ = nullptr;
  std::mutex jitter_mu_;           ///< Guards the jitter RNG stream.
  Rng jitter_rng_{0x5eed};
};

}  // namespace griddb::rpc
