// Simulated network: hosts, links and byte-accounted transfer costs.
//
// The paper's testbed is two Pentium-IV machines on a 100 Mbps Ethernet
// LAN (§5.2). We reproduce the *shape* of its measurements on a virtual
// clock: every logical operation (RPC, ETL stream, result shipment)
// accumulates simulated milliseconds derived from link latency, link
// bandwidth and per-operation overheads. Real CPU time of the in-process
// work is measured separately by the bench harness.
//
// The model is deliberately simple — latency + size/bandwidth, plus fixed
// connection-setup and authentication charges — because those are exactly
// the terms the paper uses to explain its own numbers ("determining which
// server to connect to using RLS, connecting and authenticating with
// several databases or servers, and integrating the results").
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "griddb/net/fault.h"
#include "griddb/util/cancellation.h"
#include "griddb/util/status.h"

namespace griddb::net {

/// One directed link's characteristics.
struct LinkSpec {
  double latency_ms = 0.3;        ///< One-way propagation + stack latency.
  double bandwidth_mbps = 100.0;  ///< Nominal line rate, megabits/s.
  double efficiency = 0.95;       ///< Fraction of line rate achievable
                                  ///< (framing, TCP overhead).

  /// Milliseconds to move `bytes` across this link (one message).
  double TransferMs(size_t bytes) const {
    double effective_bytes_per_ms =
        bandwidth_mbps * efficiency * 1e6 / 8.0 / 1000.0;
    return latency_ms + static_cast<double>(bytes) / effective_bytes_per_ms;
  }

  static LinkSpec Lan100Mbps() { return {0.3, 100.0, 0.95}; }
  static LinkSpec Wan() { return {45.0, 10.0, 0.80}; }
  static LinkSpec Loopback() { return {0.02, 10000.0, 1.0}; }
};

/// A query's cost ledger: the one clock its simulated time, its spans and
/// its deadline read. Its "now" is an origin plus the milliseconds charged
/// since. Sequential work adds; a branch of parallel work runs on a Fork()
/// taken at the parent's now, and joining branches takes the slowest (the
/// paper's enhanced driver runs sub-queries concurrently).
///
/// The deadline is an instant on this clock. A charge that reaches it
/// latches the query's shared CancelToken with kDeadlineExceeded, so every
/// sibling branch fails its next Check(). A ledger without a deadline
/// carries an inert token: charging and forking it allocate nothing and
/// touch no atomics.
class Cost {
 public:
  Cost() = default;
  /// A ledger that reads `origin_ms` before its first charge; `cancel` is
  /// the token a deadline expiry latches (and that forks share).
  explicit Cost(double origin_ms, CancelToken cancel = {})
      : origin_ms_(origin_ms), cancel_(std::move(cancel)) {}

  /// A branch ledger starting at this one's now, with the same deadline
  /// and token.
  Cost Fork() const {
    Cost branch(now_ms(), cancel_);
    branch.deadline_ms_ = deadline_ms_;
    return branch;
  }

  void AddMs(double ms) {
    total_ms_ += std::max(0.0, ms);
    ExpireIfDue(now_ms());
  }
  /// Appends work that ran after everything charged so far.
  void AddSequential(const Cost& other) { AddMs(other.total_ms_); }

  /// Joins parallel branches forked at this ledger's now: the slowest
  /// branch gates completion.
  void AddParallel(const std::vector<Cost>& branches) {
    double slowest = 0;
    for (const Cost& branch : branches) {
      slowest = std::max(slowest, branch.total_ms_);
    }
    AddMs(slowest);
  }

  /// Waits until `instant_ms` (never backwards): a client giving up at an
  /// attempt's deadline. Reaching the query's deadline this way expires
  /// it exactly, whatever rounding the charges before it carried.
  void AdvanceTo(double instant_ms) {
    if (instant_ms <= now_ms()) return;
    total_ms_ = instant_ms - origin_ms_;
    ExpireIfDue(instant_ms);
  }

  /// Moves the deadline to `instant_ms` when that is sooner (the tightest
  /// budget wins). The first deadline gives an inert ledger a live token.
  void SetDeadline(double instant_ms) {
    if (!(instant_ms < deadline_ms_)) return;
    if (!cancel_.active()) cancel_ = CancelToken::Cancellable();
    deadline_ms_ = instant_ms;
    ExpireIfDue(now_ms());
  }

  /// Milliseconds charged to this ledger (not counting its origin).
  double total_ms() const { return total_ms_; }
  double now_ms() const { return origin_ms_ + total_ms_; }
  /// The deadline instant; +inf when none.
  double deadline_ms() const { return deadline_ms_; }
  /// Milliseconds left before the deadline: +inf when none, never negative.
  double remaining_ms() const {
    return std::max(0.0, deadline_ms_ - now_ms());
  }
  const CancelToken& cancel() const { return cancel_; }

 private:
  void ExpireIfDue(double now) const {
    if (now >= deadline_ms_ && !cancel_.cancelled()) {
      cancel_.Cancel(DeadlineExceeded("query deadline exceeded"));
    }
  }

  double origin_ms_ = 0;
  double total_ms_ = 0;
  double deadline_ms_ = std::numeric_limits<double>::infinity();
  CancelToken cancel_;
};

/// Named hosts and the links between them. Thread-safe (read-mostly).
class Network {
 public:
  Network() = default;

  void AddHost(const std::string& name);
  bool HasHost(const std::string& name) const;
  std::vector<std::string> Hosts() const;

  /// Sets the (symmetric) link between two hosts.
  Status SetLink(const std::string& a, const std::string& b, LinkSpec spec);
  /// Link used for host pairs without an explicit SetLink.
  void SetDefaultLink(LinkSpec spec);

  /// The effective link a -> b. Same-host traffic uses the loopback spec.
  Result<LinkSpec> GetLink(const std::string& a, const std::string& b) const;

  /// Convenience: milliseconds to transfer `bytes` from a to b.
  Result<double> TransferMs(const std::string& a, const std::string& b,
                            size_t bytes) const;

  /// One request/response exchange of the given payload sizes.
  Result<double> RoundTripMs(const std::string& a, const std::string& b,
                             size_t request_bytes, size_t response_bytes) const;

  // ---- fault injection (see fault.h) ----

  /// Installs a fault plan; nullptr clears it. Counters are reset.
  void InstallFaultPlan(std::shared_ptr<FaultPlan> plan);
  bool HasFaultPlan() const;
  FaultCounters fault_counters() const;

  /// The fault-schedule timeline in simulated milliseconds: down-windows,
  /// breaker cooldowns and ETL transfers are evaluated against it. RPC
  /// legs and retry backoff advance it (every query, every branch), so it
  /// is shared by all traffic; no query's time, span or deadline reads it
  /// (those live on the query's Cost ledger).
  double NowMs() const;
  void AdvanceClockMs(double ms);

  /// True when `host` is inside a down-window at the current clock.
  bool HostDownNow(const std::string& host) const;

  /// TransferMs for one message a -> b with the fault plan applied:
  /// kNotFound for an unknown host (naming the host), kUnavailable when
  /// either endpoint is inside a down-window, kCorruption when the
  /// message is corrupted in transit (checksum mismatch), kTimeout when
  /// it is dropped; injected delays add to the returned milliseconds.
  /// With no plan installed this is exactly TransferMs.
  Result<double> WireTransferMs(const std::string& a, const std::string& b,
                                size_t bytes) const;

  /// Like WireTransferMs for a message whose bytes the caller holds in
  /// hand (a binary frame): corruption DELIVERS the message with
  /// `payload` damaged in place instead of failing the transfer, so the
  /// receiver's integrity check (the frame digest) is what detects it —
  /// the model the binary wire protocol needs. Follow-on frames of one
  /// streamed response (`first_message` false) ride the same established
  /// connection and do not re-pay the link latency term.
  Result<double> WireDeliverMs(const std::string& a, const std::string& b,
                               std::string* payload, bool first_message) const;

 private:
  static std::string PairKey(const std::string& a, const std::string& b) {
    return a < b ? a + "|" + b : b + "|" + a;
  }

  mutable std::shared_mutex mu_;
  std::map<std::string, bool> hosts_;
  std::map<std::string, LinkSpec> links_;
  LinkSpec default_link_ = LinkSpec::Lan100Mbps();
  LinkSpec loopback_ = LinkSpec::Loopback();

  // Fault state lives behind its own lock so the read-mostly topology
  // paths above are untouched when no plan is installed.
  mutable std::mutex fault_mu_;
  std::shared_ptr<FaultPlan> fault_plan_;
  mutable FaultCounters fault_counters_;
  double clock_ms_ = 0;
};

/// Fixed per-operation overheads used across the middleware, calibrated so
/// the Table 1 / Figure 6 shapes match the paper (see DESIGN.md §5).
struct ServiceCosts {
  double connect_auth_ms = 150.0;   ///< DB/server connect + authenticate.
  double rls_lookup_ms = 80.0;      ///< RLS catalog lookup round trip.
  double query_parse_ms = 2.0;      ///< Server-side parse/dispatch.
  double per_row_ser_ms = 0.10;     ///< Serialize one result row.
  double db_execute_base_ms = 25.0; ///< Base cost of one sub-query on a DB.
  double db_per_row_ms = 0.01;      ///< Per-row scan/fetch cost in the DB.
  double integrate_per_row_ms = 0.02;  ///< Middleware merge cost per row.
  /// Fixed cost of decomposing a distributed query: re-parsing the XSpec
  /// metadata of every involved database, building sub-queries, setting up
  /// the merge (the "NxS implementations ... meta-data has to be parsed"
  /// overhead §4.2 complains about). Paid once per distributed query.
  double distribution_overhead_ms = 145.0;

  static const ServiceCosts& Default();
};

}  // namespace griddb::net
