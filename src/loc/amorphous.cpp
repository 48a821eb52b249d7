#include "loc/amorphous.h"

#include <algorithm>
#include <cmath>

#include "deploy/network.h"
#include "geom/vec2.h"
#include "loc/dvhop.h"
#include "loc/mmse.h"
#include "net/hopcount.h"
#include "stats/integrate.h"
#include "util/assert.h"

namespace lad {

double kleinrock_silvester_hop_distance(double expected_neighbors, double R) {
  LAD_REQUIRE_MSG(expected_neighbors > 0, "density must be positive");
  LAD_REQUIRE_MSG(R > 0, "radio range must be positive");
  const double n = expected_neighbors;
  const double integral = integrate_adaptive_simpson(
      [n](double t) {
        return std::exp(-(n / M_PI) *
                        (std::acos(t) - t * std::sqrt(1.0 - t * t)));
      },
      -1.0, 1.0, 1e-10);
  return R * (1.0 + std::exp(-n) - integral);
}

AmorphousLocalizer::AmorphousLocalizer(int kx, int ky, int max_anchors_used)
    : kx_(kx), ky_(ky), max_anchors_used_(max_anchors_used) {
  LAD_REQUIRE_MSG(max_anchors_used >= 3, "lateration needs >= 3 anchors");
}

void AmorphousLocalizer::prepare(const Network& net) {
  anchors_ = detail::grid_anchor_nodes(net, kx_, ky_);
  LAD_REQUIRE_MSG(anchors_.size() >= 3, "Amorphous needs >= 3 anchors");
  anchor_positions_.clear();
  for (std::size_t a : anchors_) anchor_positions_.push_back(net.position(a));
  hops_ = hop_counts_from_all(net, anchors_);

  // Offline density estimate: N * pi R^2 / field area.
  const auto& cfg = net.model().config();
  const double density =
      static_cast<double>(net.num_nodes()) / cfg.field().area();
  const double n_local = density * M_PI * cfg.radio_range * cfg.radio_range;
  hop_distance_ = kleinrock_silvester_hop_distance(n_local, cfg.radio_range);
}

Vec2 AmorphousLocalizer::localize(const Network& net, std::size_t node) {
  LAD_REQUIRE_MSG(!hops_.empty(), "call prepare() before localize()");
  std::vector<std::pair<std::uint16_t, std::size_t>> ranked;
  for (std::size_t a = 0; a < anchors_.size(); ++a) {
    const std::uint16_t h = hops_[a][node];
    if (h == kUnreachableHops) continue;
    ranked.emplace_back(h, a);
  }
  if (ranked.size() < 3) return net.position(node);
  std::sort(ranked.begin(), ranked.end());
  if (ranked.size() > static_cast<std::size_t>(max_anchors_used_)) {
    ranked.resize(static_cast<std::size_t>(max_anchors_used_));
  }
  std::vector<Vec2> refs;
  std::vector<double> dists;
  for (const auto& [h, a] : ranked) {
    refs.push_back(anchor_positions_[a]);
    // Half-hop smoothing: a node h hops away is on average (h - 0.5) d_hop
    // from the anchor (never below half a hop).
    const double eff = std::max(0.5, static_cast<double>(h) - 0.5);
    dists.push_back(hop_distance_ * eff);
  }
  const auto res = mmse_multilaterate(refs, dists);
  if (!res) return net.position(node);
  return net.model().config().field().clamp(res->position);
}

}  // namespace lad
