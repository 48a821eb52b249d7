#include "loc/beaconless_mle.h"

#include <algorithm>
#include <array>

#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "loc/weighted_centroid.h"
#include "util/assert.h"

namespace lad {

BeaconlessMleLocalizer::BeaconlessMleLocalizer(const DeploymentModel& model,
                                               const GzTable& gz,
                                               double tol_meters)
    : model_(&model), likelihood_(model, gz), tol_meters_(tol_meters) {
  LAD_REQUIRE_MSG(tol_meters > 0, "tolerance must be positive");
}

double BeaconlessMleLocalizer::log_likelihood(const Observation& obs,
                                              Vec2 theta) const {
  LAD_REQUIRE_MSG(obs.num_groups() ==
                      static_cast<std::size_t>(model_->num_groups()),
                  "observation size mismatch");
  double ll = 0.0;
  for (std::size_t g = 0; g < obs.num_groups(); ++g) {
    ll += likelihood_.term(obs.counts[g], theta, static_cast<int>(g));
  }
  return ll;
}

Vec2 BeaconlessMleLocalizer::estimate(const Observation& obs) const {
  LAD_REQUIRE_MSG(obs.num_groups() ==
                      static_cast<std::size_t>(model_->num_groups()),
                  "observation size mismatch");
  const Aabb field = model_->config().field();
  Vec2 best = weighted_centroid_estimate(*model_, obs);
  double best_ll = log_likelihood(obs, best);

  // Pattern search: 8-neighborhood stencil, halving the pitch on failure.
  // Start at half a grid-cell so the seed can escape a wrong cell.
  double pitch = model_->config().field_side /
                 (2.0 * std::max(model_->config().grid_nx,
                                 model_->config().grid_ny));
  static constexpr std::array<Vec2, 8> kDirs = {
      Vec2{1, 0},  Vec2{-1, 0}, Vec2{0, 1},  Vec2{0, -1},
      Vec2{1, 1},  Vec2{1, -1}, Vec2{-1, 1}, Vec2{-1, -1}};
  while (pitch >= tol_meters_) {
    bool improved = false;
    for (const Vec2& d : kDirs) {
      const Vec2 cand = field.clamp(best + d * pitch);
      const double ll = log_likelihood(obs, cand);
      if (ll > best_ll) {
        best_ll = ll;
        best = cand;
        improved = true;
      }
    }
    if (!improved) pitch /= 2.0;
  }
  return best;
}

}  // namespace lad
