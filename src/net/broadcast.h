// The group-membership announcement round of Section 5.1: "each sensor
// broadcasts its group id to its neighbors, and each sensor can count the
// number of neighbors from Gi".
//
// BroadcastSim executes that round at the message level, including the
// concrete attacker behaviours of Section 6 (silence, impersonation,
// multi-impersonation, range change via tx-power or wormholes) and the two
// defense switches that reduce the attacker to Dec-Only:
//   * authentication  - forged group claims are dropped,
//   * packet leashes  - wormhole-replayed messages are dropped.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "deploy/network.h"
#include "deploy/observation.h"
#include "net/wormhole.h"

namespace lad {

/// Per-node transmit behaviour during the announcement round.
struct NodeBehavior {
  /// Silence attack: compromised node sends nothing.
  bool silent = false;
  /// Impersonation attack: claim this group instead of the true one.
  std::optional<int> impersonate_group;
  /// Multi-impersonation: additional (group, copies) claims, only possible
  /// without per-message authentication.
  std::vector<std::pair<int, int>> extra_claims;
};

// lad-lint: allow(dead-public) -- the argument of BroadcastSim::set_defenses
struct DefenseConfig {
  /// Pairwise authentication: group claims that do not match the sender's
  /// true group are rejected by receivers.
  bool authentication = false;
  /// Wormhole detection (packet leashes): replayed messages are rejected.
  bool wormhole_detection = false;
};

class BroadcastSim {
 public:
  explicit BroadcastSim(const Network& net);

  /// Installs a behaviour override for one node (default: honest).
  void set_behavior(std::size_t node, NodeBehavior behavior);
  void clear_behaviors();

  void add_wormhole(const Wormhole& w) { wormholes_.push_back(w); }
  void clear_wormholes() { wormholes_.clear(); }

  void set_defenses(const DefenseConfig& d) { defenses_ = d; }
  const DefenseConfig& defenses() const { return defenses_; }

  /// Runs the announcement round from the perspective of `victim` and
  /// returns the observation it accumulates.
  Observation observe(std::size_t victim) const;

  /// Number of distinct transmitters the victim hears (including through
  /// wormholes); useful to size attack budgets.
  std::size_t heard_count(std::size_t victim) const;

 private:
  void deliver(std::size_t sender, Observation& obs, bool via_wormhole) const;
  const NodeBehavior* behavior_of(std::size_t node) const;
  /// Distinct non-neighbor transmitters replayed to the victim.
  std::vector<std::size_t> wormhole_senders(std::size_t victim) const;

  const Network* net_;
  std::vector<std::pair<std::size_t, NodeBehavior>> behaviors_;
  std::vector<Wormhole> wormholes_;
  DefenseConfig defenses_;
};

}  // namespace lad
