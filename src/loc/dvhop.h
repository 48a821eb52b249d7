// DV-Hop (Niculescu & Nath - ref. [32]).
//
// Anchors flood the network; every node records its minimum hop count to
// each anchor.  Anchors compute the network-wide average distance-per-hop
// from their mutual hop counts; nodes convert hop counts into distance
// estimates and multilaterate (MMSE) against the anchors' declared
// positions.
//
// Anchors here are regular network nodes designated as anchors (closest
// node to each point of a kx x ky grid), which is how DV-Hop deployments
// place them.  A compromised anchor declares a false position.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "deploy/network.h"
#include "geom/vec2.h"
#include "loc/localizer.h"

namespace lad {

class DvHopLocalizer final : public Localizer {
 public:
  /// kx * ky anchors on a grid.  max_anchors_used bounds the lateration
  /// inputs to the nearest anchors (hop-wise), as the protocol prescribes.
  DvHopLocalizer(int kx, int ky, int max_anchors_used = 8);

  std::string name() const override { return "dv-hop"; }

  /// Selects anchor nodes and floods hop counts (the expensive step).
  void prepare(const Network& net) override;

  Vec2 localize(const Network& net, std::size_t node) override;

  bool concurrent_localize() const override { return true; }

  /// Declares a false position for anchor `anchor_idx` (attack hook).
  void compromise_anchor(std::size_t anchor_idx, Vec2 declared);
  void reset_compromises();

  const std::vector<std::size_t>& anchor_nodes() const { return anchors_; }
  double avg_hop_distance() const { return avg_hop_distance_; }

 private:
  int kx_, ky_, max_anchors_used_;
  std::vector<std::size_t> anchors_;
  std::vector<Vec2> anchor_declared_;
  std::vector<std::vector<std::uint16_t>> hops_;  // [anchor][node]
  double avg_hop_distance_ = 0.0;
};

namespace detail {

/// Picks the network node nearest to each point of a kx x ky grid over the
/// field (shared by DV-Hop and Amorphous).
std::vector<std::size_t> grid_anchor_nodes(const Network& net, int kx, int ky);

}  // namespace detail

}  // namespace lad
