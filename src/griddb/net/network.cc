#include "griddb/net/network.h"

#include <algorithm>
#include <mutex>

#include "griddb/obs/metrics.h"

namespace griddb::net {

namespace {
// Process-wide mirrors of the per-Network FaultCounters, so injected
// faults show up in the dataaccess.metrics snapshot alongside the retry
// and failover counters they trigger.
obs::Counter& FaultMetric(size_t FaultCounters::* field) {
  static obs::Counter* host_down =
      obs::MetricsRegistry::Default().GetCounter("griddb.net.faults.host_down");
  static obs::Counter* drops =
      obs::MetricsRegistry::Default().GetCounter("griddb.net.faults.drops");
  static obs::Counter* corruptions = obs::MetricsRegistry::Default().GetCounter(
      "griddb.net.faults.corruptions");
  static obs::Counter* delays =
      obs::MetricsRegistry::Default().GetCounter("griddb.net.faults.delays");
  if (field == &FaultCounters::host_down) return *host_down;
  if (field == &FaultCounters::drops) return *drops;
  if (field == &FaultCounters::corruptions) return *corruptions;
  return *delays;
}
}  // namespace

void Network::AddHost(const std::string& name) {
  std::unique_lock lock(mu_);
  hosts_[name] = true;
}

bool Network::HasHost(const std::string& name) const {
  std::shared_lock lock(mu_);
  return hosts_.count(name) > 0;
}

std::vector<std::string> Network::Hosts() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(hosts_.size());
  for (const auto& [name, unused] : hosts_) {
    (void)unused;
    out.push_back(name);
  }
  return out;
}

Status Network::SetLink(const std::string& a, const std::string& b,
                        LinkSpec spec) {
  std::unique_lock lock(mu_);
  if (!hosts_.count(a)) return NotFound("unknown host '" + a + "'");
  if (!hosts_.count(b)) return NotFound("unknown host '" + b + "'");
  links_[PairKey(a, b)] = spec;
  return Status::Ok();
}

void Network::SetDefaultLink(LinkSpec spec) {
  std::unique_lock lock(mu_);
  default_link_ = spec;
}

Result<LinkSpec> Network::GetLink(const std::string& a,
                                  const std::string& b) const {
  std::shared_lock lock(mu_);
  if (!hosts_.count(a)) return NotFound("unknown host '" + a + "'");
  if (!hosts_.count(b)) return NotFound("unknown host '" + b + "'");
  if (a == b) return loopback_;
  auto it = links_.find(PairKey(a, b));
  return it == links_.end() ? default_link_ : it->second;
}

Result<double> Network::TransferMs(const std::string& a, const std::string& b,
                                   size_t bytes) const {
  GRIDDB_ASSIGN_OR_RETURN(LinkSpec link, GetLink(a, b));
  return link.TransferMs(bytes);
}

Result<double> Network::RoundTripMs(const std::string& a, const std::string& b,
                                    size_t request_bytes,
                                    size_t response_bytes) const {
  GRIDDB_ASSIGN_OR_RETURN(LinkSpec link, GetLink(a, b));
  return link.TransferMs(request_bytes) + link.TransferMs(response_bytes);
}

// ---------- fault injection ----------

void Network::InstallFaultPlan(std::shared_ptr<FaultPlan> plan) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_plan_ = std::move(plan);
  fault_counters_ = FaultCounters();
}

bool Network::HasFaultPlan() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return fault_plan_ != nullptr;
}

FaultCounters Network::fault_counters() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return fault_counters_;
}

double Network::NowMs() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return clock_ms_;
}

void Network::AdvanceClockMs(double ms) {
  if (ms <= 0) return;
  std::lock_guard<std::mutex> lock(fault_mu_);
  clock_ms_ += ms;
}

void Network::AdvanceClockMs(double ms, double limit_ms) {
  if (ms <= 0) return;
  std::lock_guard<std::mutex> lock(fault_mu_);
  clock_ms_ = std::max(clock_ms_, std::min(clock_ms_ + ms, limit_ms));
}

bool Network::HostDownNow(const std::string& host) const {
  std::shared_ptr<FaultPlan> plan;
  double now = 0;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    plan = fault_plan_;
    now = clock_ms_;
  }
  return plan && plan->HostDownAt(host, now);
}

Result<double> Network::WireTransferMs(const std::string& a,
                                       const std::string& b,
                                       size_t bytes) const {
  GRIDDB_ASSIGN_OR_RETURN(LinkSpec link, GetLink(a, b));
  std::shared_ptr<FaultPlan> plan;
  double now = 0;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    plan = fault_plan_;
    now = clock_ms_;
  }
  if (!plan) return link.TransferMs(bytes);

  auto count = [this](size_t FaultCounters::* field) {
    {
      std::lock_guard<std::mutex> lock(fault_mu_);
      ++(fault_counters_.*field);
    }
    FaultMetric(field).Add(1);
  };
  if (plan->HostDownAt(a, now)) {
    count(&FaultCounters::host_down);
    return Unavailable("host '" + a + "' is down");
  }
  if (plan->HostDownAt(b, now)) {
    count(&FaultCounters::host_down);
    return Unavailable("host '" + b + "' is down");
  }
  double delay_ms = 0;
  switch (plan->DrawMessageFate(a, b, &delay_ms, bytes)) {
    case MessageFate::kDrop:
      count(&FaultCounters::drops);
      return Timeout("message " + a + " -> " + b + " lost in transit");
    case MessageFate::kCorrupt:
      count(&FaultCounters::corruptions);
      return Corruption("message " + a + " -> " + b +
                        " corrupted in transit (checksum mismatch)");
    case MessageFate::kDelay:
      count(&FaultCounters::delays);
      return link.TransferMs(bytes) + delay_ms;
    case MessageFate::kDeliver:
      break;
  }
  return link.TransferMs(bytes);
}

Result<double> Network::WireDeliverMs(const std::string& a,
                                      const std::string& b,
                                      std::string* payload,
                                      bool first_message) const {
  GRIDDB_ASSIGN_OR_RETURN(LinkSpec link, GetLink(a, b));
  double base_ms = link.TransferMs(payload->size());
  if (!first_message) base_ms -= link.latency_ms;
  std::shared_ptr<FaultPlan> plan;
  double now = 0;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    plan = fault_plan_;
    now = clock_ms_;
  }
  if (!plan) return base_ms;

  auto count = [this](size_t FaultCounters::* field) {
    {
      std::lock_guard<std::mutex> lock(fault_mu_);
      ++(fault_counters_.*field);
    }
    FaultMetric(field).Add(1);
  };
  if (plan->HostDownAt(a, now)) {
    count(&FaultCounters::host_down);
    return Unavailable("host '" + a + "' is down");
  }
  if (plan->HostDownAt(b, now)) {
    count(&FaultCounters::host_down);
    return Unavailable("host '" + b + "' is down");
  }
  double delay_ms = 0;
  switch (plan->DrawMessageFate(a, b, &delay_ms, payload->size())) {
    case MessageFate::kDrop:
      count(&FaultCounters::drops);
      return Timeout("message " + a + " -> " + b + " lost in transit");
    case MessageFate::kCorrupt: {
      count(&FaultCounters::corruptions);
      // Flip bytes at a few spread-out positions and deliver anyway; the
      // frame digest on the receiving side is what notices.
      for (size_t pos :
           {payload->size() / 4, payload->size() / 2, payload->size() * 3 / 4}) {
        if (pos < payload->size()) (*payload)[pos] ^= '\xa5';
      }
      return base_ms;
    }
    case MessageFate::kDelay:
      count(&FaultCounters::delays);
      return base_ms + delay_ms;
    case MessageFate::kDeliver:
      break;
  }
  return base_ms;
}

const ServiceCosts& ServiceCosts::Default() {
  static const ServiceCosts costs;
  return costs;
}

}  // namespace griddb::net
