#include "deploy/group_likelihood.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "rng/rng.h"
#include "stats/special.h"

namespace lad {
namespace {

// Reference-vs-optimized oracle: the tabulated term must return the very
// bits of the scalar expression the localizer and corrector used to
// evaluate per group.
double reference_term(const DeploymentModel& model, const GzTable& gz, int k,
                      Vec2 theta, int group) {
  const double p = std::max(gz.at(theta, model.deployment_point(group)),
                            GroupLikelihood::kPFloor);
  return log_binomial_pmf(k, model.config().nodes_per_group, p);
}

/// The same reference for a group at squared distance d2 (gz.at is the
/// table at the distance sqrt(d2)).
double reference_term_at_d2(const GzTable& gz, int m, int k, double d2) {
  return log_binomial_pmf(k, m, std::max(gz(std::sqrt(d2)),
                                         GroupLikelihood::kPFloor));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct Case {
  int m;
  int omega;
  double sigma;
};

class GroupLikelihoodOracle : public ::testing::TestWithParam<Case> {
 protected:
  GroupLikelihoodOracle()
      : cfg_(config_for(GetParam())), model_(cfg_),
        gz_({cfg_.radio_range, cfg_.sigma}, GetParam().omega),
        likelihood_(model_, gz_) {}

  static DeploymentConfig config_for(const Case& c) {
    DeploymentConfig cfg;  // paper geometry: 10 x 10 groups, R = 50
    cfg.nodes_per_group = c.m;
    cfg.sigma = c.sigma;
    return cfg;
  }

  /// Counts worth probing for this m: the edges, their neighbours, the
  /// out-of-range values (-inf) and `extra` seeded draws in [0, m].
  std::vector<int> probe_counts(Rng& rng, int extra) const {
    const int m = cfg_.nodes_per_group;
    std::vector<int> ks = {0, 1, m - 1, m, -1, m + 1};
    for (int i = 0; i < extra; ++i) {
      ks.push_back(static_cast<int>(rng.uniform_int(0LL, m)));
    }
    return ks;
  }

  void expect_bit_equal(int k, Vec2 theta, int group) const {
    const double got = likelihood_.term_at_d2(
        k, distance2(theta, model_.deployment_point(group)));
    const double want = reference_term(model_, gz_, k, theta, group);
    EXPECT_EQ(bits(got), bits(want))
        << "k=" << k << " group=" << group << " theta=(" << theta.x << ", "
        << theta.y << ") got " << got << " want " << want;
  }

  DeploymentConfig cfg_;
  DeploymentModel model_;
  GzTable gz_;
  GroupLikelihood likelihood_;
};

TEST_P(GroupLikelihoodOracle, RandomThetaAndCountsAreBitIdentical) {
  Rng rng(0x474c4b31ull + static_cast<std::uint64_t>(GetParam().m));
  const Aabb field = cfg_.field();
  for (int trial = 0; trial < 40; ++trial) {
    // Mostly in the field, sometimes past its edge.
    const Vec2 theta{rng.uniform(field.lo.x - 100, field.hi.x + 100),
                     rng.uniform(field.lo.y - 100, field.hi.y + 100)};
    for (int g = 0; g < model_.num_groups(); ++g) {
      for (int k : probe_counts(rng, 2)) expect_bit_equal(k, theta, g);
    }
  }
}

TEST_P(GroupLikelihoodOracle, ThetaStraddlingTheSupportRadius) {
  // Points within a metre of the support circle of a deployment point,
  // where a group flips from the interpolated path to the far constant.
  Rng rng(0x52414431ull + static_cast<std::uint64_t>(GetParam().omega));
  const double hi = gz_.support_radius();
  for (int trial = 0; trial < 400; ++trial) {
    const int g = static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(model_.num_groups())));
    const Vec2 theta = polar_offset(model_.deployment_point(g),
                                    rng.uniform(hi - 1.0, hi + 1.0),
                                    rng.uniform(0.0, 2.0 * M_PI));
    for (int k : probe_counts(rng, 1)) expect_bit_equal(k, theta, g);
  }
}

TEST_P(GroupLikelihoodOracle, FarThresholdIsTheTablesOwnSupportTest) {
  const double far = likelihood_.far_d2();
  const double below = std::nextafter(far, 0.0);
  const double hi = gz_.support_radius();
  // The least d2 whose sqrt reaches the radius: GzTable's `z >= hi`.
  EXPECT_GE(std::sqrt(far), hi);
  EXPECT_LT(std::sqrt(below), hi);
  const int m = cfg_.nodes_per_group;
  Rng rng(0x46415231ull);
  const std::vector<double> d2s = {
      0.0,   below, far, std::nextafter(far, 1e300), 4.0 * far,
      1e300, std::numeric_limits<double>::infinity()};
  for (double d2 : d2s) {
    for (int k : probe_counts(rng, 4)) {
      EXPECT_EQ(bits(likelihood_.term_at_d2(k, d2)),
                bits(reference_term_at_d2(gz_, m, k, d2)))
          << "k=" << k << " d2=" << d2;
    }
  }
  // At and past the threshold the term is the floored constant.
  EXPECT_EQ(bits(likelihood_.term_at_d2(1, far)),
            bits(log_binomial_pmf(1, m, GroupLikelihood::kPFloor)));
}

TEST_P(GroupLikelihoodOracle, EveryTermIsAtMostZero) {
  // What makes GroupLikelihood::sum's early exit exact: no term can raise
  // a partial sum.  log C(m, 0) and log C(m, m) must be exactly 0, or a
  // k = 0 / k = m term at g ~ 0 / g ~ 1 would round above it.
  const int m = cfg_.nodes_per_group;
  EXPECT_EQ(bits(log_binomial_coefficient(m, 0)), bits(0.0));
  EXPECT_EQ(bits(log_binomial_coefficient(m, m)), bits(0.0));
  const double far = likelihood_.far_d2();
  std::vector<double> d2s = {0.0, std::nextafter(far, 0.0), far,
                             std::nextafter(far, 1e300)};
  for (int i = 0; i <= 256; ++i) d2s.push_back(2.0 * far * i / 256.0);
  for (double d2 : d2s) {
    for (int k = 0; k <= m; ++k) {
      const double term = likelihood_.term_at_d2(k, d2);
      ASSERT_LE(term, 0.0) << "k=" << k << " d2=" << d2;
    }
  }
}

TEST_P(GroupLikelihoodOracle, SumStopsOnlyOnceItCannotBeatTheFloor) {
  // Below the floor the partial sum is returned (it is <= floor and >= the
  // full sum); above it, the full sum's very bits.
  Rng rng(0x53554d31ull + static_cast<std::uint64_t>(GetParam().m));
  const Aabb field = cfg_.field();
  const auto plain = [this](std::size_t, int k, double d2) {
    return likelihood_.term_at_d2(k, d2);
  };
  for (int trial = 0; trial < 40; ++trial) {
    Observation obs(static_cast<std::size_t>(model_.num_groups()));
    for (int& c : obs.counts) {
      c = static_cast<int>(rng.uniform_int(0LL, cfg_.nodes_per_group));
    }
    const Vec2 theta{rng.uniform(field.lo.x, field.hi.x),
                     rng.uniform(field.lo.y, field.hi.y)};
    const double full = likelihood_.sum(obs, theta, plain);
    for (double floor : {full - 1.0, full, full + 1.0, full * 0.5}) {
      const double got = likelihood_.sum(obs, theta, plain, floor);
      if (full > floor) {
        EXPECT_EQ(bits(got), bits(full)) << "floor=" << floor;
      } else {
        EXPECT_LE(got, floor);
        EXPECT_GE(got, full);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MOmega, GroupLikelihoodOracle,
    ::testing::Values(Case{1, 8, 50.0}, Case{1, 256, 50.0},
                      Case{40, 8, 50.0}, Case{40, 256, 50.0},
                      Case{300, 8, 50.0}, Case{300, 256, 50.0},
                      Case{1000, 8, 50.0}, Case{1000, 256, 50.0},
                      // sigma << R: g(0) rounds to exactly 1, so the
                      // p == 1 branch of log_binomial_pmf is exercised.
                      Case{40, 256, 5.0}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      std::string tag = "m";
      tag += std::to_string(param_info.param.m);
      tag += "_omega";
      tag += std::to_string(param_info.param.omega);
      tag += "_sigma";
      tag += std::to_string(static_cast<int>(param_info.param.sigma));
      return tag;
    });

TEST(GroupLikelihood, PEqualsOneBranchIsReached) {
  DeploymentConfig cfg;
  cfg.nodes_per_group = 40;
  cfg.sigma = 5.0;
  const DeploymentModel model(cfg);
  const GzTable gz({cfg.radio_range, cfg.sigma});
  ASSERT_EQ(gz(0.0), 1.0);
  const GroupLikelihood likelihood(model, gz);
  EXPECT_EQ(likelihood.term_at_d2(40, 0.0), 0.0);
  EXPECT_EQ(likelihood.term_at_d2(39, 0.0),
            -std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace lad
