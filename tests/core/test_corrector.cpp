#include "core/corrector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "attack/adversary.h"
#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/metric.h"
#include "core/serialize.h"
#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/group_likelihood.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "rng/rng.h"
#include "stats/running_stats.h"
#include "stats/special.h"
#include "util/assert.h"

namespace lad {
namespace {

// The scalar reference the tabulated GroupLikelihood replaced:
// LocationCorrector::correct() as it was before tabulation, with each
// group term recomputed from log_binomial_pmf and capped per group.
class ReferenceCorrector {
 public:
  ReferenceCorrector(const DeploymentModel& model, const GzTable& gz,
                     const LocationCorrector& caps)
      : model_(model), gz_(gz), caps_(caps) {}

  double group_term(int count, Vec2 theta, int group) const {
    const int m = model_.config().nodes_per_group;
    double p = gz_.at(theta, model_.deployment_point(group));
    if (p < GroupLikelihood::kPFloor) p = GroupLikelihood::kPFloor;
    return std::max(log_binomial_pmf(count, m, p),
                    -caps_.cap_for_group(group));
  }

  double robust_log_likelihood(const Observation& obs, Vec2 theta) const {
    double ll = 0.0;
    for (std::size_t g = 0; g < obs.num_groups(); ++g) {
      ll += group_term(obs.counts[g], theta, static_cast<int>(g));
    }
    return ll;
  }

  Vec2 pattern_search(const Observation& obs, Vec2 seed) const {
    const Aabb field = model_.config().field();
    Vec2 best = field.clamp(seed);
    double best_ll = robust_log_likelihood(obs, best);
    double pitch = model_.config().field_side /
                   (2.0 * std::max(model_.config().grid_nx,
                                   model_.config().grid_ny));
    static constexpr std::array<Vec2, 8> kDirs = {
        Vec2{1, 0},  Vec2{-1, 0}, Vec2{0, 1},  Vec2{0, -1},
        Vec2{1, 1},  Vec2{1, -1}, Vec2{-1, 1}, Vec2{-1, -1}};
    while (pitch >= 0.5) {
      bool improved = false;
      for (const Vec2& d : kDirs) {
        const Vec2 cand = field.clamp(best + d * pitch);
        const double ll = robust_log_likelihood(obs, cand);
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

  CorrectionResult correct(const Observation& obs) const {
    if (obs.total() == 0) {
      CorrectionResult result;
      result.corrected = caps_.max_prior_deployment_point();
      result.robust_ll = robust_log_likelihood(obs, result.corrected);
      for (std::size_t g = 0; g < obs.num_groups(); ++g) {
        result.capped_groups.push_back(static_cast<int>(g));
      }
      return result;
    }
    std::vector<Vec2> starts;
    double wx = 0, wy = 0, wt = 0;
    std::vector<std::pair<int, int>> by_count;
    for (std::size_t g = 0; g < obs.num_groups(); ++g) {
      const Vec2 dp = model_.deployment_point(static_cast<int>(g));
      wx += obs.counts[g] * dp.x;
      wy += obs.counts[g] * dp.y;
      wt += obs.counts[g];
      if (obs.counts[g] > 0) {
        by_count.emplace_back(obs.counts[g], static_cast<int>(g));
      }
    }
    starts.push_back({wx / wt, wy / wt});
    std::sort(by_count.rbegin(), by_count.rend());
    for (std::size_t s = 0; s < 5 && s < by_count.size(); ++s) {
      starts.push_back(model_.deployment_point(by_count[s].second));
    }
    Vec2 best{};
    double best_ll = -std::numeric_limits<double>::infinity();
    for (const Vec2& seed : starts) {
      const Vec2 cand = pattern_search(obs, seed);
      const double ll = robust_log_likelihood(obs, cand);
      if (ll > best_ll) {
        best_ll = ll;
        best = cand;
      }
    }
    CorrectionResult result;
    result.corrected = best;
    result.robust_ll = best_ll;
    for (std::size_t g = 0; g < obs.num_groups(); ++g) {
      const int group = static_cast<int>(g);
      if (group_term(obs.counts[g], best, group) <=
          -caps_.cap_for_group(group)) {
        result.capped_groups.push_back(group);
      }
    }
    return result;
  }

 private:
  const DeploymentModel& model_;
  const GzTable& gz_;
  const LocationCorrector& caps_;
};

void expect_same_correction(const CorrectionResult& got,
                            const CorrectionResult& want,
                            const std::string& what) {
  EXPECT_EQ(got.corrected, want.corrected) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.robust_ll),
            std::bit_cast<std::uint64_t>(want.robust_ll))
      << what << ": " << got.robust_ll << " vs " << want.robust_ll;
  EXPECT_EQ(got.capped_groups, want.capped_groups) << what;
}

DeploymentConfig cfg8() {
  DeploymentConfig cfg;
  cfg.field_side = 800.0;
  cfg.grid_nx = 8;
  cfg.grid_ny = 8;
  cfg.nodes_per_group = 60;
  cfg.sigma = 40.0;
  cfg.radio_range = 50.0;
  return cfg;
}

class CorrectorTest : public ::testing::Test {
 protected:
  CorrectorTest()
      : cfg_(cfg8()), model_(cfg_), gz_({cfg_.radio_range, cfg_.sigma}),
        rng_(88), net_(model_, rng_), corrector_(model_, gz_) {}

  std::size_t in_field_victim() {
    std::size_t node;
    do {
      node = static_cast<std::size_t>(rng_.uniform_int(net_.num_nodes()));
    } while (!cfg_.field().contains(net_.position(node)));
    return node;
  }

  DeploymentConfig cfg_;
  DeploymentModel model_;
  GzTable gz_;
  Rng rng_;
  Network net_;
  LocationCorrector corrector_;
};

TEST_F(CorrectorTest, BenignObservationsCorrectToTruth) {
  RunningStats err;
  for (int t = 0; t < 30; ++t) {
    const std::size_t node = in_field_victim();
    const CorrectionResult r = corrector_.correct(net_.observe(node));
    err.add(distance(r.corrected, net_.position(node)));
  }
  EXPECT_LT(err.mean(), 25.0);
}

TEST_F(CorrectorTest, DecOnlyTaintIsCorrectedNearBenignFloor) {
  RunningStats err;
  for (int t = 0; t < 30; ++t) {
    const std::size_t node = in_field_victim();
    const Observation a = net_.observe(node);
    const Vec2 la = net_.position(node);
    const Vec2 le = displaced_location(la, 160.0, cfg_.field(), rng_);
    const TaintResult taint = greedy_taint(
        a, model_.expected_observation(le, gz_), cfg_.nodes_per_group,
        MetricKind::kDiff, AttackClass::kDecOnly,
        static_cast<int>(0.15 * a.total()));
    err.add(distance(corrector_.correct(taint.tainted).corrected, la));
  }
  // Silences only remove evidence; the surviving bump pins the estimate.
  EXPECT_LT(err.mean(), 40.0);
}

TEST_F(CorrectorTest, DecBoundedCorrectionBeatsAcceptingTheFake) {
  RunningStats corrected_err;
  const double kDamage = 200.0;
  for (int t = 0; t < 30; ++t) {
    const std::size_t node = in_field_victim();
    const Observation a = net_.observe(node);
    const Vec2 la = net_.position(node);
    const Vec2 le = displaced_location(la, kDamage, cfg_.field(), rng_);
    const TaintResult taint = greedy_taint(
        a, model_.expected_observation(le, gz_), cfg_.nodes_per_group,
        MetricKind::kDiff, AttackClass::kDecBounded,
        static_cast<int>(0.10 * a.total()));
    corrected_err.add(distance(corrector_.correct(taint.tainted).corrected, la));
  }
  // Not necessarily near-perfect (correction under Dec-Bounded is open),
  // but on average it must beat blindly accepting the planted location.
  EXPECT_LT(corrected_err.mean(), kDamage);
}

TEST_F(CorrectorTest, RobustLikelihoodCapsWorstGroups) {
  const std::size_t node = in_field_victim();
  Observation obs = net_.observe(node);
  const Vec2 truth = net_.position(node);
  const double before = corrector_.robust_log_likelihood(obs, truth);
  // Inject an absurd count into a far group: the plain likelihood would
  // crater to ~-1e12; the capped one drops by at most the cap (25).
  int far_group = 0;
  double far_d = 0;
  for (int g = 0; g < model_.num_groups(); ++g) {
    const double d = distance(model_.deployment_point(g), truth);
    if (d > far_d) {
      far_d = d;
      far_group = g;
    }
  }
  obs.counts[static_cast<std::size_t>(far_group)] += 40;
  const double after = corrector_.robust_log_likelihood(obs, truth);
  EXPECT_GE(after, before - 25.0 - 1e-9);
  EXPECT_LT(after, before);  // the forged group still costs something
}

TEST_F(CorrectorTest, CappedGroupsReportTheForgedOnes) {
  const std::size_t node = in_field_victim();
  Observation obs = net_.observe(node);
  const Vec2 truth = net_.position(node);
  int far_group = 0;
  double far_d = 0;
  for (int g = 0; g < model_.num_groups(); ++g) {
    const double d = distance(model_.deployment_point(g), truth);
    if (d > far_d) {
      far_d = d;
      far_group = g;
    }
  }
  obs.counts[static_cast<std::size_t>(far_group)] += 40;
  const CorrectionResult r = corrector_.correct(obs);
  EXPECT_NE(std::find(r.capped_groups.begin(), r.capped_groups.end(),
                      far_group),
            r.capped_groups.end())
      << "the forged group should be among the capped ones";
}

TEST_F(CorrectorTest, InvalidConstructionRejected) {
  EXPECT_THROW(LocationCorrector(model_, gz_, 0.0), AssertionError);
  EXPECT_THROW(LocationCorrector(model_, gz_, -5.0), AssertionError);
  EXPECT_THROW(LocationCorrector(model_, gz_, 25.0, 0), AssertionError);
  EXPECT_THROW(LocationCorrector(model_, gz_, 25.0, 3, 0.0), AssertionError);
}

TEST_F(CorrectorTest, SizeMismatchThrows) {
  EXPECT_THROW(corrector_.correct(Observation(3)), AssertionError);
}

TEST_F(CorrectorTest, AllZeroObservationHasDefinedBehavior) {
  // Every group silenced: no likelihood evidence at all.  Defined result:
  // the max-prior deployment point, every group flagged capped, no NaNs.
  const Observation silent(static_cast<std::size_t>(model_.num_groups()));
  const CorrectionResult r = corrector_.correct(silent);
  EXPECT_TRUE(std::isfinite(r.corrected.x));
  EXPECT_TRUE(std::isfinite(r.corrected.y));
  EXPECT_TRUE(std::isfinite(r.robust_ll));
  EXPECT_EQ(r.corrected, corrector_.max_prior_deployment_point());
  ASSERT_EQ(r.capped_groups.size(),
            static_cast<std::size_t>(model_.num_groups()));
  for (int g = 0; g < model_.num_groups(); ++g) {
    EXPECT_EQ(r.capped_groups[static_cast<std::size_t>(g)], g);
  }
  // Deterministic: the same silent observation yields the same point.
  EXPECT_EQ(corrector_.correct(silent).corrected, r.corrected);
}

TEST_F(CorrectorTest, MaxPriorPointIsAnInteriorDeploymentPoint) {
  // The deployment-density mixture peaks away from the field edge, so the
  // fallback point must be one of the interior deployment points.
  const Vec2 p = corrector_.max_prior_deployment_point();
  bool is_deployment_point = false;
  for (int g = 0; g < model_.num_groups(); ++g) {
    if (model_.deployment_point(g) == p) is_deployment_point = true;
  }
  EXPECT_TRUE(is_deployment_point);
  const double edge = std::min(std::min(p.x, cfg_.field_side - p.x),
                               std::min(p.y, cfg_.field_side - p.y));
  EXPECT_GT(edge, cfg_.sigma);  // not a boundary deployment point
}

TEST_F(CorrectorTest, GroupSpreadConditioningLoosensBoundaryCaps) {
  DetectorSpec spec;
  spec.metric = MetricKind::kDiff;
  spec.threshold = 10.0;
  // Group 0 trained twice as wide, group 5 half as wide.
  spec.group_overrides = {
      {0, 20.0, GroupOverrideSource::kTrained, 50, 4.0, 2.0},
      {5, 5.0, GroupOverrideSource::kTrained, 50, 1.0, 0.5}};
  const DetectorBundle bundle = make_bundle(model_, 128, {spec});

  LocationCorrector conditioned(model_, gz_);
  conditioned.apply_group_spread(bundle);
  EXPECT_DOUBLE_EQ(conditioned.cap_for_group(0), 50.0);
  EXPECT_DOUBLE_EQ(conditioned.cap_for_group(5), 12.5);
  EXPECT_DOUBLE_EQ(conditioned.cap_for_group(1), 25.0);  // base cap
  EXPECT_DOUBLE_EQ(corrector_.cap_for_group(0), 25.0);   // unconditioned
  EXPECT_THROW(conditioned.cap_for_group(model_.num_groups()),
               AssertionError);
}

TEST_F(CorrectorTest, ConditionedCapsChangeTheCappedDiagnostic) {
  // Forge a far group hard enough to hit the base cap, then loosen that
  // group's cap via a bundle: the term must now cost more than the base
  // cap allowed (the diagnostic threshold moved with it).
  const std::size_t node = in_field_victim();
  Observation obs = net_.observe(node);
  const Vec2 truth = net_.position(node);
  int far_group = 0;
  double far_d = 0;
  for (int g = 0; g < model_.num_groups(); ++g) {
    const double d = distance(model_.deployment_point(g), truth);
    if (d > far_d) {
      far_d = d;
      far_group = g;
    }
  }
  obs.counts[static_cast<std::size_t>(far_group)] += 40;
  const double base_ll = corrector_.robust_log_likelihood(obs, truth);

  DetectorSpec spec;
  spec.metric = MetricKind::kDiff;
  spec.threshold = 10.0;
  spec.group_overrides = {
      {far_group, 40.0, GroupOverrideSource::kTrained, 50, 8.0, 4.0}};
  LocationCorrector conditioned(model_, gz_);
  conditioned.apply_group_spread(make_bundle(model_, 128, {spec}));
  // A 4x looser cap lets the forged group's true implausibility through.
  EXPECT_LT(conditioned.robust_log_likelihood(obs, truth), base_ll);
}

TEST_F(CorrectorTest, GroupSpreadRejectsMismatchedBundle) {
  DeploymentConfig other = cfg_;
  other.grid_nx = 3;
  other.grid_ny = 3;
  const DeploymentModel other_model(other);
  const DetectorBundle bundle =
      make_bundle(other_model, 128, MetricKind::kDiff, 10.0);
  LocationCorrector c(model_, gz_);
  EXPECT_THROW(c.apply_group_spread(bundle), AssertionError);
}

TEST_F(CorrectorTest, MatchesScalarReferenceCorrection) {
  // Benign, greedy-tainted (both attack classes), all-zero and one-hot
  // observations, under the base caps and under bundle-conditioned ones:
  // same estimate, bit-identical robust_ll, same capped groups.
  DetectorSpec spec;
  spec.metric = MetricKind::kDiff;
  spec.threshold = 10.0;
  spec.group_overrides = {
      {0, 20.0, GroupOverrideSource::kTrained, 50, 4.0, 2.0},
      {27, 5.0, GroupOverrideSource::kTrained, 50, 1.0, 0.5}};
  LocationCorrector conditioned(model_, gz_);
  conditioned.apply_group_spread(make_bundle(model_, 128, {spec}));

  const int m = cfg_.nodes_per_group;
  const std::size_t groups = static_cast<std::size_t>(model_.num_groups());
  std::vector<Observation> cases;
  cases.emplace_back(groups);
  for (std::size_t g : {std::size_t{0}, std::size_t{27}, groups - 1}) {
    for (int count : {1, m}) {
      Observation one_hot(groups);
      one_hot.counts[g] = count;
      cases.push_back(one_hot);
    }
  }
  for (int t = 0; t < 6; ++t) {
    const std::size_t node = in_field_victim();
    const Observation a = net_.observe(node);
    cases.push_back(a);
    const Vec2 le =
        displaced_location(net_.position(node), 200.0, cfg_.field(), rng_);
    for (AttackClass cls : {AttackClass::kDecBounded, AttackClass::kDecOnly}) {
      cases.push_back(greedy_taint(a, model_.expected_observation(le, gz_), m,
                                   MetricKind::kDiff, cls,
                                   static_cast<int>(0.15 * a.total()))
                          .tainted);
    }
  }
  const ReferenceCorrector base_ref(model_, gz_, corrector_);
  const ReferenceCorrector conditioned_ref(model_, gz_, conditioned);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string what = "case " + std::to_string(i);
    expect_same_correction(corrector_.correct(cases[i]),
                           base_ref.correct(cases[i]), what);
    expect_same_correction(conditioned.correct(cases[i]),
                           conditioned_ref.correct(cases[i]),
                           what + " (conditioned)");
  }
}

}  // namespace
}  // namespace lad
