#include "loc/beaconless_mle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/assert.h"

#include "attack/adversary.h"
#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/metric.h"
#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/group_likelihood.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "loc/weighted_centroid.h"
#include "rng/rng.h"
#include "stats/running_stats.h"
#include "stats/special.h"

namespace lad {
namespace {

// The scalar reference the tabulated GroupLikelihood replaced: the
// per-group log Binom term recomputed from log_binomial_pmf, summed and
// searched exactly as BeaconlessMleLocalizer did before tabulation.
double reference_log_likelihood(const DeploymentModel& model,
                                const GzTable& gz, const Observation& obs,
                                Vec2 theta) {
  const int m = model.config().nodes_per_group;
  double ll = 0.0;
  for (std::size_t g = 0; g < obs.num_groups(); ++g) {
    double p = gz.at(theta, model.deployment_point(static_cast<int>(g)));
    if (p < GroupLikelihood::kPFloor) p = GroupLikelihood::kPFloor;
    ll += log_binomial_pmf(obs.counts[g], m, p);
  }
  return ll;
}

Vec2 reference_estimate(const DeploymentModel& model, const GzTable& gz,
                        const Observation& obs, double tol_meters = 0.5) {
  const Aabb field = model.config().field();
  Vec2 best = weighted_centroid_estimate(model, obs);
  double best_ll = reference_log_likelihood(model, gz, obs, best);
  double pitch = model.config().field_side /
                 (2.0 * std::max(model.config().grid_nx,
                                 model.config().grid_ny));
  static constexpr std::array<Vec2, 8> kDirs = {
      Vec2{1, 0},  Vec2{-1, 0}, Vec2{0, 1},  Vec2{0, -1},
      Vec2{1, 1},  Vec2{1, -1}, Vec2{-1, 1}, Vec2{-1, -1}};
  while (pitch >= tol_meters) {
    bool improved = false;
    for (const Vec2& d : kDirs) {
      const Vec2 cand = field.clamp(best + d * pitch);
      const double ll = reference_log_likelihood(model, gz, obs, cand);
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

DeploymentConfig paper_config_small_m() {
  DeploymentConfig cfg;  // paper geometry
  cfg.nodes_per_group = 100;  // lighter than 300 for test speed
  return cfg;
}

class MleTest : public ::testing::Test {
 protected:
  MleTest()
      : cfg_(paper_config_small_m()), model_(cfg_),
        gz_({cfg_.radio_range, cfg_.sigma}), rng_(31), net_(model_, rng_),
        mle_(model_, gz_) {}
  DeploymentConfig cfg_;
  DeploymentModel model_;
  GzTable gz_;
  Rng rng_;
  Network net_;
  BeaconlessMleLocalizer mle_;
};

TEST_F(MleTest, LogLikelihoodPeaksNearTruth) {
  const std::size_t node = 1234;
  const Observation obs = net_.observe(node);
  const Vec2 truth = net_.position(node);
  const double ll_truth = mle_.log_likelihood(obs, truth);
  // A location 200 m away explains the observation much worse.
  const Vec2 far = cfg_.field().clamp(truth + Vec2{200, 0});
  EXPECT_GT(ll_truth, mle_.log_likelihood(obs, far));
  const Vec2 far2 = cfg_.field().clamp(truth + Vec2{0, -300});
  EXPECT_GT(ll_truth, mle_.log_likelihood(obs, far2));
}

TEST_F(MleTest, EstimateBeatsCoarseBaselineOnAverage) {
  RunningStats err;
  for (std::size_t node = 100; node < 3100; node += 250) {
    const Vec2 le = mle_.estimate(net_.observe(node));
    err.add(distance(le, net_.position(node)));
  }
  // With m = 100, sigma = 50, R = 50 the MLE lands within a few tens of
  // meters on average - far better than the ~45 m cell-radius baseline.
  EXPECT_LT(err.mean(), 40.0);
}

TEST_F(MleTest, EstimateImprovesWithDensity) {
  DeploymentConfig dense = cfg_;
  dense.nodes_per_group = 400;
  const DeploymentModel dense_model(dense);
  Rng rng(77);
  const Network dense_net(dense_model, rng);
  const BeaconlessMleLocalizer dense_mle(dense_model, gz_);

  RunningStats sparse_err, dense_err;
  for (int k = 0; k < 60; ++k) {
    const std::size_t a = static_cast<std::size_t>(rng.uniform_int(
        std::uint64_t(net_.num_nodes())));
    sparse_err.add(distance(mle_.estimate(net_.observe(a)), net_.position(a)));
    const std::size_t b = static_cast<std::size_t>(rng.uniform_int(
        std::uint64_t(dense_net.num_nodes())));
    dense_err.add(distance(dense_mle.estimate(dense_net.observe(b)),
                           dense_net.position(b)));
  }
  // The paper's Fig. 9 premise: localization accuracy improves with m.
  EXPECT_LT(dense_err.mean(), sparse_err.mean());
}

TEST_F(MleTest, EstimateStaysInsideField) {
  for (std::size_t node = 0; node < net_.num_nodes(); node += 977) {
    EXPECT_TRUE(cfg_.field().contains(mle_.estimate(net_.observe(node))));
  }
}

TEST_F(MleTest, EmptyObservationFallsBackGracefully) {
  const Observation empty(static_cast<std::size_t>(model_.num_groups()));
  const Vec2 le = mle_.estimate(empty);
  EXPECT_TRUE(cfg_.field().contains(le));
}

TEST_F(MleTest, SizeMismatchThrows) {
  EXPECT_THROW(mle_.estimate(Observation(5)), AssertionError);
}

TEST_F(MleTest, LocalizerInterfaceMatchesDirectEstimate) {
  const std::size_t node = 42;
  EXPECT_EQ(mle_.localize(net_, node), mle_.estimate(net_.observe(node)));
  EXPECT_EQ(mle_.name(), "beaconless-mle");
}

TEST_F(MleTest, MatchesScalarReferenceSearch) {
  // Benign, greedy-tainted (both attack classes), all-zero and one-hot
  // observations: the tabulated likelihood must steer the search to the
  // very same estimate, with bit-identical likelihoods along the way.
  const int m = cfg_.nodes_per_group;
  std::vector<Observation> cases;
  cases.emplace_back(static_cast<std::size_t>(model_.num_groups()));
  for (int g : {0, 9, 45, 99}) {
    for (int count : {1, m}) {
      Observation one_hot(static_cast<std::size_t>(model_.num_groups()));
      one_hot.counts[static_cast<std::size_t>(g)] = count;
      cases.push_back(one_hot);
    }
  }
  Rng rng(4242);
  for (int t = 0; t < 12; ++t) {
    const std::size_t node = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::uint64_t>(net_.num_nodes())));
    const Observation a = net_.observe(node);
    cases.push_back(a);
    const Vec2 le =
        displaced_location(net_.position(node), 160.0, cfg_.field(), rng);
    for (AttackClass cls : {AttackClass::kDecBounded, AttackClass::kDecOnly}) {
      cases.push_back(greedy_taint(a, model_.expected_observation(le, gz_), m,
                                   MetricKind::kDiff, cls,
                                   static_cast<int>(0.2 * a.total()))
                          .tainted);
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Observation& obs = cases[i];
    const Vec2 want = reference_estimate(model_, gz_, obs);
    EXPECT_EQ(mle_.estimate(obs), want) << "case " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mle_.log_likelihood(obs, want)),
              std::bit_cast<std::uint64_t>(
                  reference_log_likelihood(model_, gz_, obs, want)))
        << "case " << i;
  }
}

}  // namespace
}  // namespace lad
