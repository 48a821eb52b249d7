// The beaconless location-discovery scheme of ref. [8] (Fang, Du, Ning,
// INFOCOM 2005): a sensor derives its own location purely from deployment
// knowledge and the group memberships of its neighbors - no beacons.
//
// The estimator is the maximum-likelihood location: each group count
// X_i ~ Binom(m, g_i(theta)) independently, so
//
//   Le = argmax_theta  sum_i log Binom(o_i; m, g_i(theta)).
//
// Search strategy (this is the part ref. [8] leaves to the implementer):
//  1. seed at the observation-weighted centroid of deployment points,
//  2. coarse-to-fine pattern search (GroupLikelihood::maximize, shared with
//     the location corrector): evaluate the likelihood on the 8-neighbour
//     stencil around the incumbent, halve the pitch when no improvement,
//  3. stop when the stencil pitch drops below `tol_meters`.
// The log-likelihood is smooth and unimodal near the truth for realistic
// observations, so this converges in a few dozen evaluations.
#pragma once

#include "deploy/deployment_model.h"
#include "deploy/group_likelihood.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "loc/localizer.h"

namespace lad {

class BeaconlessMleLocalizer final : public Localizer {
 public:
  /// The model and gz table must outlive the localizer.
  BeaconlessMleLocalizer(const DeploymentModel& model, const GzTable& gz,
                         double tol_meters = 0.5);

  std::string name() const override { return "beaconless-mle"; }

  Vec2 localize(const Network& net, std::size_t node) override {
    return estimate(net.observe(node));
  }

  bool concurrent_localize() const override { return true; }

  /// Estimates a location from an observation alone (no network needed);
  /// this is the entry point the detection pipeline uses.
  Vec2 estimate(const Observation& obs) const;

  /// Log-likelihood of `obs` at location theta (exposed for tests and for
  /// the probability metric's cross-checks).
  double log_likelihood(const Observation& obs, Vec2 theta) const;

 private:
  const DeploymentModel* model_;
  GroupLikelihood likelihood_;
  double tol_meters_;
};

}  // namespace lad
