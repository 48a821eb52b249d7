// Parameterized end-to-end property sweep: for EVERY (metric, attack
// class) combination the trained detector must (a) keep its training FP,
// (b) detect essentially all high-damage attacks, and (c) degrade
// monotonically as the compromise budget grows.  This is the paper's
// qualitative contract, checked across the full metric/adversary matrix
// rather than only the configurations the figures show.
#include <gtest/gtest.h>

#include "attack/adversary.h"
#include "core/metric.h"
#include "core/trainer.h"
#include "sim/pipeline.h"
#include "stats/quantile.h"

namespace lad {
namespace {

PipelineConfig sweep_config() {
  PipelineConfig cfg;
  cfg.deploy.field_side = 800.0;
  cfg.deploy.grid_nx = 8;
  cfg.deploy.grid_ny = 8;
  cfg.deploy.nodes_per_group = 60;
  cfg.deploy.sigma = 40.0;
  cfg.deploy.radio_range = 50.0;
  cfg.networks = 3;
  cfg.victims_per_network = 80;
  cfg.seed = 4242;
  return cfg;
}

class DetectionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static Pipeline& pipeline() {
    static Pipeline p(sweep_config());
    return p;
  }
  static const std::map<MetricKind, std::vector<double>>& benign() {
    static const auto scores =
        pipeline()
            .benign_scores(
                beaconless_mle_factory(pipeline().model(), pipeline().gz()),
                {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb})
            .scores;
    return scores;
  }
  MetricKind metric() const {
    return static_cast<MetricKind>(std::get<0>(GetParam()));
  }
  AttackClass cls() const {
    return static_cast<AttackClass>(std::get<1>(GetParam()));
  }
  /// The attacked scores of this (metric, class) at damage `d` and
  /// compromise fraction `x`, scored by the attacked metric.
  static std::vector<double> attack_scores(MetricKind metric, AttackClass cls,
                                           double d, double x) {
    return pipeline()
        .attack_batch(d, {{metric, cls, x, {metric}}})
        .scores[0][0];
  }
};

TEST_P(DetectionPropertyTest, TrainedThresholdHoldsItsFalsePositiveRate) {
  const auto& scores = benign().at(metric());
  const TrainingResult r = train_threshold(metric(), scores, 0.99);
  EXPECT_NEAR(fraction_above(scores, r.threshold), 0.01, 0.008);
}

TEST_P(DetectionPropertyTest, HighDamageAttacksAreCaught) {
  const auto& scores = benign().at(metric());
  const double threshold = train_threshold(metric(), scores, 0.99).threshold;
  const double dr =
      fraction_above(attack_scores(metric(), cls(), 280.0, 0.10), threshold);
  EXPECT_GT(dr, 0.95) << metric_name(metric()) << " / "
                      << attack_class_name(cls());
}

TEST_P(DetectionPropertyTest, DetectionDegradesMonotonicallyWithBudget) {
  const auto& scores = benign().at(metric());
  const double threshold = train_threshold(metric(), scores, 0.99).threshold;
  double prev = 1.1;
  for (double x : {0.0, 0.2, 0.5}) {
    const double dr =
        fraction_above(attack_scores(metric(), cls(), 120.0, x), threshold);
    EXPECT_LE(dr, prev + 0.05) << "x=" << x;
    prev = dr;
  }
}

TEST_P(DetectionPropertyTest, DecOnlyNeverBeatsDecBoundedEvasion) {
  // Regardless of the metric, the Dec-Bounded attacker achieves scores
  // <= the Dec-Only attacker on the same victims.
  const auto bounded =
      attack_scores(metric(), AttackClass::kDecBounded, 100.0, 0.15);
  const auto only = attack_scores(metric(), AttackClass::kDecOnly, 100.0, 0.15);
  ASSERT_EQ(bounded.size(), only.size());
  for (std::size_t i = 0; i < bounded.size(); ++i) {
    ASSERT_LE(bounded[i], only[i] + 1e-9) << "victim " << i;
  }
}

std::string matrix_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* metric_names[] = {"Diff", "AddAll", "Prob"};
  static const char* class_names[] = {"DecBounded", "DecOnly"};
  return std::string(metric_names[std::get<0>(info.param)]) +
         class_names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    MetricAttackMatrix, DetectionPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(0, 1)),
    matrix_case_name);

}  // namespace
}  // namespace lad
