#include "loc/beaconless_mle.h"

#include <cstddef>

#include "deploy/deployment_model.h"
#include "deploy/group_likelihood.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "loc/weighted_centroid.h"
#include "util/assert.h"

namespace lad {

namespace {

/// The plain per-group term: ref. [8]'s likelihood, uncapped.
struct PlainTerm {
  const GroupLikelihood& likelihood;

  double operator()(std::size_t, int k, double d2) const {
    return likelihood.term_at_d2(k, d2);
  }
};

}  // namespace

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
  return likelihood_.sum(obs, theta, PlainTerm{likelihood_});
}

Vec2 BeaconlessMleLocalizer::estimate(const Observation& obs) const {
  LAD_REQUIRE_MSG(obs.num_groups() ==
                      static_cast<std::size_t>(model_->num_groups()),
                  "observation size mismatch");
  return likelihood_
      .maximize(obs, weighted_centroid_estimate(*model_, obs), tol_meters_,
                PlainTerm{likelihood_})
      .point;
}

}  // namespace lad
