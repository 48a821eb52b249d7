#include "loc/dvhop.h"

#include <algorithm>
#include <limits>

#include "deploy/network.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "loc/mmse.h"
#include "net/hopcount.h"
#include "util/assert.h"

namespace lad {

std::vector<std::size_t> detail::grid_anchor_nodes(const Network& net, int kx,
                                                   int ky) {
  LAD_REQUIRE_MSG(kx > 0 && ky > 0, "anchor grid must be non-empty");
  const Aabb field = net.model().config().field();
  const double dx = field.width() / kx;
  const double dy = field.height() / ky;
  std::vector<std::size_t> anchors;
  anchors.reserve(static_cast<std::size_t>(kx) * ky);
  for (int row = 0; row < ky; ++row) {
    for (int col = 0; col < kx; ++col) {
      const Vec2 target{field.lo.x + (col + 0.5) * dx,
                        field.lo.y + (row + 0.5) * dy};
      // Nearest node to the grid point (linear scan is fine: once per
      // network, and the grid has few points).
      std::size_t best = 0;
      double best_d2 = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < net.num_nodes(); ++i) {
        const double d2 = distance2(net.position(i), target);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = i;
        }
      }
      anchors.push_back(best);
    }
  }
  // Deduplicate (two grid points could select the same node in sparse nets).
  std::sort(anchors.begin(), anchors.end());
  anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
  return anchors;
}

DvHopLocalizer::DvHopLocalizer(int kx, int ky, int max_anchors_used)
    : kx_(kx), ky_(ky), max_anchors_used_(max_anchors_used) {
  LAD_REQUIRE_MSG(max_anchors_used >= 3, "lateration needs >= 3 anchors");
}

void DvHopLocalizer::prepare(const Network& net) {
  anchors_ = detail::grid_anchor_nodes(net, kx_, ky_);
  LAD_REQUIRE_MSG(anchors_.size() >= 3, "DV-Hop needs >= 3 distinct anchors");
  anchor_declared_.clear();
  for (std::size_t a : anchors_) anchor_declared_.push_back(net.position(a));
  hops_ = hop_counts_from_all(net, anchors_);
  avg_hop_distance_ = average_hop_distance(net, anchors_, hops_);
  if (avg_hop_distance_ <= 0) {
    // Disconnected anchor set; fall back to the radio range as the per-hop
    // distance so localize() still returns something sane.
    avg_hop_distance_ = net.radio_range();
  }
}

void DvHopLocalizer::compromise_anchor(std::size_t anchor_idx, Vec2 declared) {
  LAD_REQUIRE(anchor_idx < anchor_declared_.size());
  anchor_declared_[anchor_idx] = declared;
}

void DvHopLocalizer::reset_compromises() {
  // Restored on the next prepare(); callers that want immediate restore
  // re-prepare.  Kept simple because attacks re-prepare per trial anyway.
  anchor_declared_.clear();
}

Vec2 DvHopLocalizer::localize(const Network& net, std::size_t node) {
  LAD_REQUIRE_MSG(!hops_.empty(), "call prepare() before localize()");
  LAD_REQUIRE_MSG(!anchor_declared_.empty(),
                  "anchor declarations missing (reset without prepare?)");

  // Collect (hop count, anchor index), keep the hop-nearest ones.
  std::vector<std::pair<std::uint16_t, std::size_t>> ranked;
  for (std::size_t a = 0; a < anchors_.size(); ++a) {
    const std::uint16_t h = hops_[a][node];
    if (h == kUnreachableHops) continue;
    ranked.emplace_back(h, a);
  }
  if (ranked.size() < 3) return net.position(node);  // disconnected: no info
  std::sort(ranked.begin(), ranked.end());
  if (ranked.size() > static_cast<std::size_t>(max_anchors_used_)) {
    ranked.resize(static_cast<std::size_t>(max_anchors_used_));
  }

  std::vector<Vec2> refs;
  std::vector<double> dists;
  for (const auto& [h, a] : ranked) {
    refs.push_back(anchor_declared_[a]);
    dists.push_back(avg_hop_distance_ * static_cast<double>(h));
  }
  const auto res = mmse_multilaterate(refs, dists);
  if (!res) return net.position(node);
  // Clamp into the field: hop quantization can push estimates outside.
  return net.model().config().field().clamp(res->position);
}

}  // namespace lad
