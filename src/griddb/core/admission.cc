#include "griddb/core/admission.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "griddb/obs/metrics.h"

namespace griddb::core {

namespace {
obs::Counter& AdmittedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.admission.admitted");
  return *c;
}
obs::Counter& QueuedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.admission.queued");
  return *c;
}
obs::Counter& ShedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.admission.shed");
  return *c;
}
obs::Counter& ShedScanCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.admission.shed_scan");
  return *c;
}
obs::Counter& MergeMemoryShedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.admission.merge_memory_shed");
  return *c;
}
obs::Gauge& InFlightGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default().GetGauge("griddb.admission.in_flight");
  return *g;
}
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default().GetGauge("griddb.admission.queue_depth");
  return *g;
}
obs::Gauge& MergeMemoryGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Default().GetGauge(
      "griddb.admission.merge_memory_bytes");
  return *g;
}
// Tenant-lane aggregates. The registry is name-keyed, so per-tenant
// breakdowns are exposed through lane_stats() / dataaccess.tenantStats
// rather than one metric per tenant name.
obs::Counter& TenantAdmittedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.admission.tenant_admitted");
  return *c;
}
obs::Counter& TenantQueuedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.admission.tenant_queued");
  return *c;
}
obs::Counter& TenantShedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.admission.tenant_shed");
  return *c;
}
obs::Gauge& LanesGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default().GetGauge("griddb.admission.lanes");
  return *g;
}
obs::Counter& BatchAdmittedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.admission.batch_admitted");
  return *c;
}
obs::Counter& BatchShedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.admission.batch_shed");
  return *c;
}
obs::Gauge& BatchInFlightGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Default().GetGauge(
      "griddb.admission.batch_in_flight");
  return *g;
}

// A zero or negative weight would starve the lane in the DRR rotation
// (its deficit never reaches one slot); clamp to a small positive share.
constexpr double kMinWeight = 1.0 / 64.0;
}  // namespace

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config) {
  if (config_.per_tenant()) {
    // Materialize configured lanes up front so lane_stats() shows every
    // quota from the start; lanes for unlisted tenants appear on demand.
    for (const TenantQuota& quota : config_.tenant_quotas) {
      (void)LaneLocked(quota.tenant);
    }
  }
}

AdmissionController::~AdmissionController() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  slot_cv_.notify_all();
}

void AdmissionController::Ticket::Release() {
  if (controller_ == nullptr) return;
  controller_->ReleaseSlot(tenant_, batch_);
  controller_ = nullptr;
}

void AdmissionController::MemoryLease::Release() {
  if (controller_ == nullptr) return;
  controller_->ReleaseMemory(bytes_, tenant_);
  controller_ = nullptr;
  bytes_ = 0;
}

Status AdmissionController::Shed(QueryPriority priority,
                                 const char* why) const {
  ShedCounter().Add(1);
  if (priority == QueryPriority::kScan) ShedScanCounter().Add(1);
  // The hint is machine-parsed by rpc::RetryAfterHintMs on the client.
  return ResourceExhausted(
      std::string("server overloaded (") + why + ", " +
      QueryPriorityName(priority) + " query shed); retry_after_ms=" +
      std::to_string(static_cast<long long>(config_.retry_after_ms)));
}

Status AdmissionController::ShedLane(Lane& lane, QueryPriority priority,
                                     const char* why) {
  ++lane.shed;
  ShedCounter().Add(1);
  TenantShedCounter().Add(1);
  if (priority == QueryPriority::kScan) ShedScanCounter().Add(1);
  const double retry_after = lane.quota.retry_after_ms > 0
                                 ? lane.quota.retry_after_ms
                                 : config_.retry_after_ms;
  const std::string& name =
      lane.quota.tenant.empty() ? "anonymous" : lane.quota.tenant;
  return ResourceExhausted(
      std::string("server overloaded (") + why + ", tenant '" + name + "', " +
      QueryPriorityName(priority) + " query shed); retry_after_ms=" +
      std::to_string(static_cast<long long>(retry_after)));
}

AdmissionController::Lane& AdmissionController::LaneLocked(
    const std::string& tenant) {
  auto it = lanes_.find(tenant);
  if (it != lanes_.end()) return it->second;
  Lane lane;
  lane.quota.tenant = tenant;
  bool has_quota = false;
  for (const TenantQuota& quota : config_.tenant_quotas) {
    if (quota.tenant == tenant) {
      lane.quota = quota;
      has_quota = true;
      break;
    }
  }
  // Tenants the gate does not recognize share the default lane: lanes are
  // permanent, so unknown (possibly attacker-minted) tenant strings must
  // not each grow lanes_ and the DRR rotation. Callers key the released
  // ticket by the resolved lane (quota.tenant), not the requested name.
  if (!has_quota && !tenant.empty() && config_.known_tenant &&
      !config_.known_tenant(tenant)) {
    return LaneLocked(std::string());
  }
  lane.quota.weight = std::max(lane.quota.weight, kMinWeight);
  it = lanes_.emplace(tenant, std::move(lane)).first;
  rr_order_.push_back(tenant);
  LanesGauge().Set(static_cast<double>(lanes_.size()));
  return it->second;
}

bool AdmissionController::CanGrantLocked(const Lane& lane,
                                         QueryPriority priority) const {
  // Scans may not eat into the interactive reserve (global rule, shared
  // with the single-lane mode).
  const size_t reserve =
      std::min(config_.interactive_reserve, config_.max_concurrent);
  const size_t slot_limit = priority == QueryPriority::kScan
                                ? config_.max_concurrent - reserve
                                : config_.max_concurrent;
  if (in_flight_ >= slot_limit) return false;
  // Below its own reservation a lane always takes a free slot.
  if (lane.in_flight < lane.quota.min_reserved) return true;
  // Otherwise keep enough free slots to cover other lanes' unmet
  // reservations — but only where there is queued demand: an idle lane
  // donates its reservation (work conservation), it is paid back with
  // next-slot priority once it has waiters again.
  size_t needed = 0;
  for (const auto& [name, other] : lanes_) {
    (void)name;
    if (&other == &lane || other.queue.empty()) continue;
    if (other.quota.min_reserved > other.in_flight) {
      needed += other.quota.min_reserved - other.in_flight;
    }
  }
  return config_.max_concurrent - in_flight_ - 1 >= needed;
}

void AdmissionController::GrantLocked(Lane& lane) {
  lane.queue.front()->granted = true;
  lane.queue.pop_front();
  ++lane.in_flight;
  ++lane.admitted;
  ++in_flight_;
  lane.deficit -= 1.0;
  AdmittedCounter().Add(1);
  TenantAdmittedCounter().Add(1);
  InFlightGauge().Set(static_cast<double>(in_flight_));
}

void AdmissionController::DispatchLocked() {
  if (rr_order_.empty()) return;
  bool granted_any = false;
  for (;;) {
    // One full rotation without progress means nothing else can be placed
    // (no waiters, no slots, or every head blocked by priority/reservation
    // — or, handled below, by credit alone).
    size_t stalled = 0;
    bool slots_full = false;
    while (stalled < rr_order_.size()) {
      Lane& lane = lanes_.at(rr_order_[rr_cursor_]);
      if (lane.queue.empty()) {
        // Standard DRR: an emptied lane forfeits its credit, so an idle
        // tenant cannot bank a burst against the others.
        lane.deficit = 0;
        rr_fresh_ = true;
        rr_cursor_ = (rr_cursor_ + 1) % rr_order_.size();
        ++stalled;
        continue;
      }
      if (rr_fresh_) {
        // One quantum (= weight) of credit on entering the lane; the cap
        // bounds the burst a blocked lane can bank while still letting
        // weight > 1 lanes carry their full share across rotations.
        lane.deficit =
            std::min(lane.deficit + lane.quota.weight, lane.quota.weight + 1.0);
        rr_fresh_ = false;
      }
      bool progressed = false;
      while (!lane.queue.empty() && lane.deficit >= 1.0 &&
             CanGrantLocked(lane, lane.queue.front()->priority)) {
        GrantLocked(lane);
        progressed = true;
        granted_any = true;
      }
      if (progressed) stalled = 0;
      if (lane.queue.empty() || lane.deficit < 1.0) {
        // Demand or credit exhausted: the lane's turn is over.
        if (lane.queue.empty()) lane.deficit = 0;
        rr_fresh_ = true;
        rr_cursor_ = (rr_cursor_ + 1) % rr_order_.size();
        if (!progressed) ++stalled;
        continue;
      }
      // Credit and demand remain but the head cannot be granted.
      if (in_flight_ >= config_.max_concurrent) {
        // No slot free anywhere: stop mid-turn, keeping the cursor (and the
        // unspent credit, unrecharged) on this lane so the next freed slot
        // resumes it. Advancing and recharging on every freed slot would
        // flatten weights into plain round-robin.
        slots_full = true;
        break;
      }
      // A slot is free but this head is blocked by the interactive reserve
      // or by another lane's reservation: rotate on so grantable lanes are
      // not starved behind it; the unspent credit carries (capped) to the
      // lane's next turn.
      rr_fresh_ = true;
      rr_cursor_ = (rr_cursor_ + 1) % rr_order_.size();
      ++stalled;
    }
    if (slots_full) break;
    // Fractional-weight liveness: dispatch only runs on admission events,
    // so a rotation that stalled with a free slot while some backlogged
    // head was grantable but credit-starved (a weight < 1 lane accrues
    // less than a slot per visit) must not return and leave that waiter
    // stranded until unrelated traffic arrives. Recharge every backlogged
    // lane one quantum (weight ratios preserved, burst caps apply) and
    // rerun: each pass adds >= kMinWeight to the starved lane, so it
    // reaches a full slot of credit in a bounded number of passes.
    bool credit_starved = false;
    for (const auto& [name, lane] : lanes_) {
      (void)name;
      if (lane.queue.empty() || lane.deficit >= 1.0) continue;
      if (CanGrantLocked(lane, lane.queue.front()->priority)) {
        credit_starved = true;
        break;
      }
    }
    if (!credit_starved) break;
    for (auto& [name, lane] : lanes_) {
      (void)name;
      if (lane.queue.empty()) continue;
      lane.deficit = std::min(lane.deficit + lane.quota.weight,
                              lane.quota.weight + 1.0);
    }
    // The cursor lane was recharged with the rest; entering it again on
    // the rerun must not charge a second quantum.
    rr_fresh_ = false;
  }
  if (granted_any) slot_cv_.notify_all();
}

Result<AdmissionController::Ticket> AdmissionController::AdmitBatchLocked(
    const std::string& tenant) {
  // Batch work runs strictly out of idle capacity: it is shed (never
  // queued) unless the slot comes for free — no waiter of any priority is
  // queued, the interactive reserve stays whole, and the batch cap holds.
  const size_t reserve =
      std::min(config_.interactive_reserve, config_.max_concurrent);
  const size_t slot_limit = config_.max_concurrent - reserve;
  const size_t batch_limit =
      config_.batch_slots > 0 ? std::min(config_.batch_slots, slot_limit)
                              : std::max<size_t>(slot_limit / 2, 1);
  const char* why = nullptr;
  if (slot_limit == 0) {
    why = "no slots outside the interactive reserve";
  } else if (queued_ > 0) {
    why = "foreground demand queued";
  } else if (batch_in_flight_ >= batch_limit) {
    why = "batch slots exhausted";
  } else if (in_flight_ >= slot_limit) {
    why = "no idle capacity";
  }
  if (why != nullptr) {
    BatchShedCounter().Add(1);
    if (config_.per_tenant()) {
      return ShedLane(LaneLocked(tenant), QueryPriority::kBatch, why);
    }
    return Shed(QueryPriority::kBatch, why);
  }
  ++in_flight_;
  ++batch_in_flight_;
  AdmittedCounter().Add(1);
  BatchAdmittedCounter().Add(1);
  InFlightGauge().Set(static_cast<double>(in_flight_));
  BatchInFlightGauge().Set(static_cast<double>(batch_in_flight_));
  std::string lane_key = tenant;
  if (config_.per_tenant()) {
    // Charge the tenant's lane so tenantStats sees batch load, but leave
    // the DRR state alone: batch work never holds a queue position, so it
    // neither earns nor spends deficit credit.
    Lane& lane = LaneLocked(tenant);
    ++lane.in_flight;
    ++lane.admitted;
    TenantAdmittedCounter().Add(1);
    lane_key = lane.quota.tenant;
  }
  return Ticket(this, lane_key, /*batch=*/true);
}

Result<AdmissionController::Ticket> AdmissionController::Admit(
    QueryPriority priority, const CancelToken* cancel,
    const std::string& tenant) {
  if (!config_.enabled()) return Ticket(nullptr);

  if (priority == QueryPriority::kBatch) {
    std::lock_guard<std::mutex> batch_lock(mu_);
    return AdmitBatchLocked(tenant);
  }

  // Scans may not eat into the interactive reserve.
  const size_t reserve =
      std::min(config_.interactive_reserve, config_.max_concurrent);
  const size_t slot_limit = priority == QueryPriority::kScan
                                ? config_.max_concurrent - reserve
                                : config_.max_concurrent;

  std::unique_lock<std::mutex> lock(mu_);

  if (config_.per_tenant()) {
    Lane& lane = LaneLocked(tenant);
    // Unknown tenants resolve to the default lane; the ticket must carry
    // the lane actually charged so the release balances it.
    const std::string& lane_key = lane.quota.tenant;
    if (slot_limit == 0) {
      return ShedLane(lane, priority, "no slots for this priority");
    }
    // Immediate grant only past an empty lane queue (FIFO within the
    // lane); a genuinely free slot at arrival time was not claimable by
    // any queued waiter, so taking it cannot starve another lane.
    if (lane.queue.empty() && CanGrantLocked(lane, priority)) {
      ++lane.in_flight;
      ++lane.admitted;
      ++in_flight_;
      AdmittedCounter().Add(1);
      TenantAdmittedCounter().Add(1);
      InFlightGauge().Set(static_cast<double>(in_flight_));
      return Ticket(this, lane_key);
    }
    if (lane.queue.size() >= config_.max_queued) {
      return ShedLane(lane, priority,
                      in_flight_ >= config_.max_concurrent
                          ? "all execution slots busy, tenant queue full"
                          : "tenant slots exhausted, tenant queue full");
    }
    auto waiter = std::make_shared<Waiter>();
    waiter->priority = priority;
    lane.queue.push_back(waiter);
    ++queued_;
    QueuedCounter().Add(1);
    TenantQueuedCounter().Add(1);
    QueueDepthGauge().Set(static_cast<double>(queued_));
    // A slot may be placeable right now (e.g. this lane is below its
    // reservation while another lane's head is blocked).
    DispatchLocked();
    Status live = Status::Ok();
    if (cancel == nullptr) {
      // No cancellation to observe: sleep until granted (or shutdown)
      // instead of burning a 5 ms poll per queued waiter under overload.
      // Every grant/shutdown path notifies the CV.
      slot_cv_.wait(lock, [&] { return waiter->granted || shutting_down_; });
    } else {
      // The timed poll is what notices a cancellation (a client abort
      // latched by another thread).
      while (!waiter->granted && !shutting_down_) {
        live = cancel->Check();
        if (!live.ok()) break;
        slot_cv_.wait_for(lock, std::chrono::milliseconds(5));
      }
    }
    --queued_;
    QueueDepthGauge().Set(static_cast<double>(queued_));
    if (waiter->granted) {
      // Granted concurrently with a cancellation or shutdown observation:
      // hand the slot straight to the next waiter instead of keeping it.
      if (!live.ok() || shutting_down_) {
        if (lane.in_flight > 0) --lane.in_flight;
        if (in_flight_ > 0) --in_flight_;
        InFlightGauge().Set(static_cast<double>(in_flight_));
        // Return the DRR credit GrantLocked charged for a grant the lane
        // never used — immediately, not on a later dispatch pass, so the
        // redispatch below already sees the restored credit and the
        // lane's next waiter is not taxed for the cancellation. Capped at
        // the same burst bound the recharge path uses.
        lane.deficit =
            std::min(lane.deficit + 1.0, lane.quota.weight + 1.0);
        DispatchLocked();
        return !live.ok()
                   ? Result<Ticket>(live)
                   : Result<Ticket>(
                         ShedLane(lane, priority, "server shutting down"));
      }
      return Ticket(this, lane_key);
    }
    // Never granted: leave the queue, and unblock whatever our queue
    // position was holding back.
    lane.queue.erase(
        std::remove(lane.queue.begin(), lane.queue.end(), waiter),
        lane.queue.end());
    DispatchLocked();
    if (!live.ok()) return live;
    return ShedLane(lane, priority, "server shutting down");
  }

  // Single shared lane (the PR 5 behaviour).
  if (slot_limit == 0) return Shed(priority, "no slots for this priority");
  if (in_flight_ < slot_limit) {
    ++in_flight_;
    AdmittedCounter().Add(1);
    InFlightGauge().Set(static_cast<double>(in_flight_));
    return Ticket(this);
  }
  if (queued_ >= config_.max_queued) {
    return Shed(priority, in_flight_ >= config_.max_concurrent
                              ? "all execution slots busy, queue full"
                              : "scan slots exhausted");
  }

  // Bounded-queue backpressure: wait for a slot. A cancellable wait polls
  // in short real-time slices so a cancellation latched by another thread
  // aborts the wait promptly; without a token the wait just sleeps until
  // notified.
  ++queued_;
  QueuedCounter().Add(1);
  QueueDepthGauge().Set(static_cast<double>(queued_));
  auto done_waiting = [&] {
    return shutting_down_ || in_flight_ < slot_limit;
  };
  Status live = Status::Ok();
  if (cancel == nullptr) {
    slot_cv_.wait(lock, done_waiting);
  } else {
    while (!done_waiting()) {
      live = cancel->Check();
      if (!live.ok()) break;
      slot_cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
  }
  --queued_;
  QueueDepthGauge().Set(static_cast<double>(queued_));
  if (!live.ok()) return live;
  if (shutting_down_) return Shed(priority, "server shutting down");
  ++in_flight_;
  AdmittedCounter().Add(1);
  InFlightGauge().Set(static_cast<double>(in_flight_));
  return Ticket(this);
}

void AdmissionController::ReleaseSlot(const std::string& tenant, bool batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (config_.per_tenant()) {
      auto it = lanes_.find(tenant);
      if (it != lanes_.end() && it->second.in_flight > 0) {
        --it->second.in_flight;
      }
    }
    if (in_flight_ > 0) --in_flight_;
    if (batch && batch_in_flight_ > 0) {
      --batch_in_flight_;
      BatchInFlightGauge().Set(static_cast<double>(batch_in_flight_));
    }
    InFlightGauge().Set(static_cast<double>(in_flight_));
    if (config_.per_tenant()) DispatchLocked();
  }
  // notify_all, not notify_one: waiters now block on a plain predicate
  // wait when uncancellable, and in single-lane mode a scan waiter woken
  // alone can be unable to take the freed slot (interactive reserve)
  // while the interactive waiter that could would sleep through it.
  slot_cv_.notify_all();
}

Result<AdmissionController::MemoryLease> AdmissionController::ReserveMergeMemory(
    size_t bytes, const std::string& tenant) {
  if (!config_.enabled() || bytes == 0) return MemoryLease(nullptr, 0);
  std::lock_guard<std::mutex> lock(mu_);
  Lane* lane = config_.per_tenant() ? &LaneLocked(tenant) : nullptr;
  const size_t lane_budget =
      lane != nullptr ? lane->quota.merge_memory_budget_bytes : 0;
  if (config_.merge_memory_budget_bytes == 0 && lane_budget == 0) {
    return MemoryLease(nullptr, 0);
  }
  // A lone oversized merge is still served: the budgets bound concurrent
  // pressure, not the biggest query an operator (or tenant) may run.
  const bool global_over =
      config_.merge_memory_budget_bytes > 0 && memory_holders_ > 0 &&
      merge_memory_bytes_ + bytes > config_.merge_memory_budget_bytes;
  const bool lane_over = lane_budget > 0 && lane->merge_holders > 0 &&
                         lane->merge_bytes + bytes > lane_budget;
  if (global_over || lane_over) {
    MergeMemoryShedCounter().Add(1);
    ShedCounter().Add(1);
    if (lane_over) {
      ++lane->shed;
      TenantShedCounter().Add(1);
      const double retry_after = lane->quota.retry_after_ms > 0
                                     ? lane->quota.retry_after_ms
                                     : config_.retry_after_ms;
      const std::string& name =
          lane->quota.tenant.empty() ? "anonymous" : lane->quota.tenant;
      return ResourceExhausted(
          "merge memory budget exhausted for tenant '" + name + "' (" +
          std::to_string(lane->merge_bytes) + " of " +
          std::to_string(lane_budget) + " bytes held); retry_after_ms=" +
          std::to_string(static_cast<long long>(retry_after)));
    }
    return ResourceExhausted(
        "merge memory budget exhausted (" +
        std::to_string(merge_memory_bytes_) + " of " +
        std::to_string(config_.merge_memory_budget_bytes) +
        " bytes held); retry_after_ms=" +
        std::to_string(static_cast<long long>(config_.retry_after_ms)));
  }
  merge_memory_bytes_ += bytes;
  ++memory_holders_;
  if (lane != nullptr) {
    lane->merge_bytes += bytes;
    ++lane->merge_holders;
  }
  MergeMemoryGauge().Set(static_cast<double>(merge_memory_bytes_));
  // Key the lease by the resolved lane (unknown tenants share the default
  // lane) so the release balances the lane actually charged.
  return MemoryLease(this, bytes, lane != nullptr ? lane->quota.tenant : tenant);
}

void AdmissionController::ReleaseMemory(size_t bytes,
                                        const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  merge_memory_bytes_ -= std::min(merge_memory_bytes_, bytes);
  if (memory_holders_ > 0) --memory_holders_;
  if (config_.per_tenant()) {
    auto it = lanes_.find(tenant);
    if (it != lanes_.end()) {
      it->second.merge_bytes -= std::min(it->second.merge_bytes, bytes);
      if (it->second.merge_holders > 0) --it->second.merge_holders;
    }
  }
  MergeMemoryGauge().Set(static_cast<double>(merge_memory_bytes_));
}

size_t AdmissionController::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

size_t AdmissionController::batch_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_in_flight_;
}

size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

size_t AdmissionController::merge_memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merge_memory_bytes_;
}

std::vector<AdmissionController::LaneStats> AdmissionController::lane_stats()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LaneStats> out;
  out.reserve(lanes_.size());
  for (const auto& [tenant, lane] : lanes_) {
    LaneStats stats;
    stats.tenant = tenant;
    stats.weight = lane.quota.weight;
    stats.min_reserved = lane.quota.min_reserved;
    stats.in_flight = lane.in_flight;
    stats.queued = lane.queue.size();
    stats.admitted = lane.admitted;
    stats.shed = lane.shed;
    out.push_back(std::move(stats));
  }
  return out;
}

}  // namespace griddb::core
