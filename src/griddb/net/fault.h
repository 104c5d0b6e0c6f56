// Deterministic fault injection for the simulated network.
//
// A Grid of geographically distributed databases is defined by hosts that
// flap, links that stall, and replicas that vanish mid-query; the paper's
// §5 measures only the happy path. A FaultPlan attached to a Network
// delivers the unhappy ones reproducibly: host down-windows are intervals
// on the network's virtual clock, and per-link message faults (drop,
// corrupt, delay) are drawn from seeded per-stream sequences so a given
// plan replays identically run-to-run. Injection is consulted only from
// the wire-level transfer path; when no plan is installed that path is
// byte-for-byte the plain cost computation.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "griddb/util/rng.h"

namespace griddb::net {

/// Per-link message fault schedule. Each message on the link independently
/// draws its fate; probabilities are evaluated in the order drop, corrupt,
/// delay against a single uniform draw, so they must sum to <= 1.
struct LinkFaultSpec {
  double drop_probability = 0;     ///< Message lost; the sender times out.
  double corrupt_probability = 0;  ///< Detected checksum failure on receipt.
  double delay_probability = 0;    ///< Message stalls for delay_ms extra.
  double delay_ms = 0;

  bool Faulty() const {
    return drop_probability > 0 || corrupt_probability > 0 ||
           delay_probability > 0;
  }
};

/// Running totals of injected faults, surfaced for assertions.
struct FaultCounters {
  size_t host_down = 0;    ///< Messages rejected by a down-window.
  size_t drops = 0;
  size_t corruptions = 0;
  size_t delays = 0;

  size_t total() const { return host_down + drops + corruptions + delays; }
};

/// What the plan decided for one message.
enum class MessageFate { kDeliver, kDrop, kCorrupt, kDelay };

/// A deterministic fault schedule. Thread-safe. Messages are grouped into
/// streams by direction and size, and the n-th message of a stream always
/// draws the same fate: concurrent branches of one query (which interleave
/// their messages in thread order) cannot perturb each other's fates.
class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed = 2005) : seed_(seed) {}

  /// `host` answers nothing while the virtual clock is in [start, end) ms.
  void AddDownWindow(const std::string& host, double start_ms, double end_ms);

  /// Installs a fault schedule on the (symmetric) link a <-> b.
  void SetLinkFaults(const std::string& a, const std::string& b,
                     LinkFaultSpec spec);
  /// Schedule applied to links without an explicit SetLinkFaults.
  void SetDefaultLinkFaults(LinkFaultSpec spec);

  bool HostDownAt(const std::string& host, double now_ms) const;

  /// Draws the fate of the next `bytes`-sized message a -> b (advances
  /// that stream). On kDelay, `*delay_ms` receives the extra stall.
  MessageFate DrawMessageFate(const std::string& a, const std::string& b,
                              double* delay_ms, size_t bytes = 0);

 private:
  struct DownWindow {
    double start_ms = 0;
    double end_ms = 0;
  };

  static std::string PairKey(const std::string& a, const std::string& b) {
    return a < b ? a + "|" + b : b + "|" + a;
  }

  mutable std::mutex mu_;
  uint64_t seed_;
  std::map<std::string, uint64_t> stream_draws_;  ///< Draws per stream.
  std::map<std::string, std::vector<DownWindow>> down_;
  std::map<std::string, LinkFaultSpec> link_faults_;
  LinkFaultSpec default_faults_;
};

}  // namespace griddb::net
