#include "griddb/net/fault.h"

namespace griddb::net {

void FaultPlan::AddDownWindow(const std::string& host, double start_ms,
                              double end_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  down_[host].push_back({start_ms, end_ms});
}

void FaultPlan::SetLinkFaults(const std::string& a, const std::string& b,
                              LinkFaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  link_faults_[PairKey(a, b)] = spec;
}

void FaultPlan::SetDefaultLinkFaults(LinkFaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  default_faults_ = spec;
}

bool FaultPlan::HostDownAt(const std::string& host, double now_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = down_.find(host);
  if (it == down_.end()) return false;
  for (const DownWindow& window : it->second) {
    if (now_ms >= window.start_ms && now_ms < window.end_ms) return true;
  }
  return false;
}

MessageFate FaultPlan::DrawMessageFate(const std::string& a,
                                       const std::string& b,
                                       double* delay_ms, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  LinkFaultSpec spec = default_faults_;
  auto it = link_faults_.find(PairKey(a, b));
  if (it != link_faults_.end()) spec = it->second;
  if (!spec.Faulty()) return MessageFate::kDeliver;
  const std::string stream = a + ">" + b + "#" + std::to_string(bytes);
  uint64_t key = seed_;
  for (unsigned char c : stream) key = (key ^ c) * 0x100000001b3ull;
  Rng rng(key ^ (0x9e3779b97f4a7c15ull * ++stream_draws_[stream]));
  double draw = rng.NextDouble();
  if (draw < spec.drop_probability) return MessageFate::kDrop;
  draw -= spec.drop_probability;
  if (draw < spec.corrupt_probability) return MessageFate::kCorrupt;
  draw -= spec.corrupt_probability;
  if (draw < spec.delay_probability) {
    if (delay_ms) *delay_ms = spec.delay_ms;
    return MessageFate::kDelay;
  }
  return MessageFate::kDeliver;
}

}  // namespace griddb::net
