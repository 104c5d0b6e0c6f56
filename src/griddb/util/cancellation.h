// Cooperative cancellation for one query.
//
// A CancelToken is a cheap, copyable handle on a shared cancelled latch.
// Every sub-query spawned on behalf of one client query carries a copy of
// the same token, so a deadline expiry (or client abort) latched by any
// branch cancels all of its siblings: once latched, every Check() on any
// copy fails fast with the first reason.
//
// The token holds no clock. Deadlines are instants on the query's cost
// ledger (net::Cost), which latches the token when a charge reaches them;
// util/ sits below net/, so the token only sees the outcome.
//
// A default-constructed token is inert: active() is false, Check() is
// always OK, and no allocation or atomic traffic happens anywhere it is
// passed. This keeps the seed fast paths byte-for-byte unaffected when no
// deadline or admission config is set.
#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "griddb/util/status.h"

namespace griddb {

class CancelToken {
 public:
  /// Inert token: never cancelled.
  CancelToken() = default;

  /// A live token (client abort, or a ledger with a deadline).
  static CancelToken Cancellable() {
    CancelToken token;
    token.state_ = std::make_shared<State>();
    return token;
  }

  bool active() const { return state_ != nullptr; }

  /// Latches the cancelled state. Idempotent; the first reason wins.
  void Cancel(Status reason = Status(StatusCode::kDeadlineExceeded,
                                     "query cancelled")) const {
    if (!state_) return;
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->cancelled.load(std::memory_order_relaxed)) return;
    state_->reason = std::move(reason);
    state_->cancelled.store(true, std::memory_order_release);
  }

  bool cancelled() const {
    return state_ && state_->cancelled.load(std::memory_order_acquire);
  }

  /// OK while the query may keep running; the cancellation reason once it
  /// may not.
  Status Check() const {
    if (!cancelled()) return Status::Ok();
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->reason;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::mutex mu;      // guards `reason`
    Status reason;
  };

  std::shared_ptr<State> state_;
};

/// Scheduling class used by admission control: interactive queries keep a
/// reserved slice of the concurrency budget; scans are shed first. Batch
/// work (the asynchronous batch-query service) runs strictly out of idle
/// capacity: it never queues and is shed the moment interactive or scan
/// load wants the slot back.
enum class QueryPriority {
  kInteractive = 0,
  kScan = 1,
  kBatch = 2,
};

inline const char* QueryPriorityName(QueryPriority priority) noexcept {
  switch (priority) {
    case QueryPriority::kScan: return "scan";
    case QueryPriority::kBatch: return "batch";
    case QueryPriority::kInteractive: break;
  }
  return "interactive";
}

/// Per-query execution context threaded from the service entry point down
/// through planning, fan-out, remote forwards and the merge join.
struct QueryContext {
  CancelToken cancel;
  QueryPriority priority = QueryPriority::kInteractive;
  /// Requesting tenant identity ("" = the default anonymous tenant).
  /// Checked against the RBAC catalog at plan time and used to pick the
  /// admission lane; forwarded hop-by-hop in the sparse <tenant> header.
  std::string tenant;
  /// Instants on the caller's clock where the query's cost ledger starts
  /// and must end (+inf = no deadline): its spans count from `start_ms`,
  /// and a charge reaching `deadline_ms` cancels it with
  /// kDeadlineExceeded.
  double start_ms = 0;
  double deadline_ms = std::numeric_limits<double>::infinity();
};

}  // namespace griddb
