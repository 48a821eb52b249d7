// Tests for the Section-8 deployment-knowledge-mismatch support in the
// pipeline: deploying with a different sigma / jittered points than the
// knowledge model, and the alternative deployment layouts.
#include <gtest/gtest.h>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/deployment_model.h"
#include "geom/vec2.h"
#include "loc/truth_noise.h"
#include "sim/pipeline.h"
#include "stats/quantile.h"

namespace lad {
namespace {

PipelineConfig base_config() {
  PipelineConfig cfg;
  cfg.deploy.field_side = 600.0;
  cfg.deploy.grid_nx = 6;
  cfg.deploy.grid_ny = 6;
  cfg.deploy.nodes_per_group = 40;
  cfg.deploy.sigma = 30.0;
  cfg.deploy.radio_range = 50.0;
  cfg.networks = 3;
  cfg.victims_per_network = 60;
  cfg.seed = 99;
  return cfg;
}

LocalizerFactory tn_factory() {
  return [](std::uint64_t seed) {
    return std::make_unique<TruthNoiseLocalizer>(5.0, seed);
  };
}

TEST(PipelineMismatch, NoMismatchMeansIdenticalModels) {
  Pipeline p(base_config());
  EXPECT_EQ(p.model().deployment_points(),
            p.actual_model().deployment_points());
  EXPECT_DOUBLE_EQ(p.model().config().sigma, p.actual_model().config().sigma);
}

TEST(PipelineMismatch, ActualSigmaChangesDeploymentOnly) {
  PipelineConfig cfg = base_config();
  cfg.actual_sigma = 60.0;
  Pipeline p(cfg);
  EXPECT_DOUBLE_EQ(p.model().config().sigma, 30.0);       // knowledge
  EXPECT_DOUBLE_EQ(p.actual_model().config().sigma, 60.0);  // reality
  // Wider actual scatter => nodes land farther from deployment points.
  Pipeline matched(base_config());
  double spread_mismatched = 0.0, spread_matched = 0.0;
  for (std::size_t i = 0; i < p.networks()[0]->num_nodes(); ++i) {
    spread_mismatched += distance(
        p.networks()[0]->position(i),
        p.model().deployment_point(p.networks()[0]->group_of(i)));
    spread_matched += distance(
        matched.networks()[0]->position(i),
        matched.model().deployment_point(matched.networks()[0]->group_of(i)));
  }
  EXPECT_GT(spread_mismatched, spread_matched * 1.5);
}

TEST(PipelineMismatch, SigmaMismatchInflatesBenignScores) {
  PipelineConfig cfg = base_config();
  Pipeline matched(cfg);
  cfg.actual_sigma = 60.0;
  Pipeline mismatched(cfg);
  const auto s_matched =
      matched.benign_scores(tn_factory(), {MetricKind::kDiff}).scores;
  const auto s_mismatched =
      mismatched.benign_scores(tn_factory(), {MetricKind::kDiff}).scores;
  // The knowledge model mispredicts the observation distribution, so the
  // Diff scores of honest sensors grow (the paper's predicted FP error).
  EXPECT_GT(quantile(s_mismatched.at(MetricKind::kDiff), 0.5),
            quantile(s_matched.at(MetricKind::kDiff), 0.5));
}

TEST(PipelineMismatch, JitterMovesActualDeploymentPoints) {
  PipelineConfig cfg = base_config();
  cfg.deployment_jitter = 25.0;
  Pipeline p(cfg);
  const auto& knowledge = p.model().deployment_points();
  const auto& actual = p.actual_model().deployment_points();
  ASSERT_EQ(knowledge.size(), actual.size());
  double total_offset = 0.0;
  for (std::size_t g = 0; g < knowledge.size(); ++g) {
    total_offset += distance(knowledge[g], actual[g]);
  }
  const double mean_offset = total_offset / static_cast<double>(knowledge.size());
  // Mean radial offset of a 2-D Gaussian with sigma=25 is ~31.
  EXPECT_GT(mean_offset, 15.0);
  EXPECT_LT(mean_offset, 50.0);
}

TEST(PipelineShapes, HexAndRandomPipelinesRun) {
  for (DeploymentShape shape : {DeploymentShape::kHex, DeploymentShape::kRandom}) {
    PipelineConfig cfg = base_config();
    cfg.shape = shape;
    Pipeline p(cfg);
    EXPECT_GT(p.model().num_groups(), 0);
    const auto scores =
        p.benign_scores(tn_factory(), {MetricKind::kDiff}).scores;
    EXPECT_EQ(scores.at(MetricKind::kDiff).size(), 180u);
    const AttackCell cell{MetricKind::kDiff, AttackClass::kDecBounded, 0.1,
                          {MetricKind::kDiff}};
    const auto attack = p.attack_batch(120.0, {cell}).scores[0][0];
    // Attacks must still separate from benign under non-grid layouts.
    EXPECT_GT(quantile(attack, 0.5),
              quantile(scores.at(MetricKind::kDiff), 0.5));
  }
}

}  // namespace
}  // namespace lad
