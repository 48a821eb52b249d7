#include "sim/pipeline.h"

#include <gtest/gtest.h>

#include "util/assert.h"
#include <cmath>
#include <cstring>
#include <sstream>

#include "attack/adversary.h"
#include "core/metric.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "deploy/observe_kernel.h"
#include "loc/truth_noise.h"
#include "stats/quantile.h"

namespace lad {
namespace {

PipelineConfig small_pipeline_config() {
  PipelineConfig cfg;
  cfg.deploy.field_side = 600.0;
  cfg.deploy.grid_nx = 6;
  cfg.deploy.grid_ny = 6;
  cfg.deploy.nodes_per_group = 40;
  cfg.deploy.sigma = 30.0;
  cfg.deploy.radio_range = 50.0;
  cfg.networks = 4;
  cfg.victims_per_network = 50;
  cfg.seed = 2024;
  return cfg;
}

LocalizerFactory truth_noise_factory(double sigma_err) {
  return [sigma_err](std::uint64_t seed) {
    return std::make_unique<TruthNoiseLocalizer>(sigma_err, seed);
  };
}

TEST(Pipeline, GeneratesRequestedNetworks) {
  const Pipeline p(small_pipeline_config());
  EXPECT_EQ(p.networks().size(), 4u);
  for (const auto& net : p.networks()) {
    EXPECT_EQ(net->num_nodes(), 36u * 40u);
  }
}

TEST(Pipeline, NetworksAreDeterministicInSeed) {
  const Pipeline a(small_pipeline_config());
  const Pipeline b(small_pipeline_config());
  for (std::size_t n = 0; n < a.networks().size(); ++n) {
    for (std::size_t i = 0; i < a.networks()[n]->num_nodes(); i += 97) {
      EXPECT_EQ(a.networks()[n]->position(i), b.networks()[n]->position(i));
    }
  }
}

TEST(Pipeline, DifferentSeedsGiveDifferentNetworks) {
  PipelineConfig cfg = small_pipeline_config();
  const Pipeline a(cfg);
  cfg.seed = 999;
  const Pipeline b(cfg);
  EXPECT_NE(a.networks()[0]->position(0), b.networks()[0]->position(0));
}

TEST(Pipeline, BenignScoresDeterministicAcrossThreadCounts) {
  PipelineConfig cfg = small_pipeline_config();
  cfg.threads = 1;
  Pipeline serial(cfg);
  cfg.threads = 4;
  Pipeline parallel(cfg);
  const auto factory = truth_noise_factory(5.0);
  const auto s1 = serial.benign_scores(factory, {MetricKind::kDiff});
  const auto s4 = parallel.benign_scores(factory, {MetricKind::kDiff});
  EXPECT_EQ(s1.at(MetricKind::kDiff), s4.at(MetricKind::kDiff));
}

TEST(Pipeline, BenignScoresSaneForAllMetrics) {
  Pipeline p(small_pipeline_config());
  const auto scores = p.benign_scores(
      truth_noise_factory(5.0),
      {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb});
  ASSERT_EQ(scores.size(), 3u);
  for (const auto& [kind, vec] : scores) {
    ASSERT_EQ(vec.size(), 200u) << metric_name(kind);
    for (double s : vec) {
      EXPECT_TRUE(std::isfinite(s)) << metric_name(kind);
      EXPECT_GE(s, 0.0) << metric_name(kind);
    }
  }
}

TEST(Pipeline, AttackScoresShiftUpWithDamage) {
  Pipeline p(small_pipeline_config());
  AttackSpec weak;
  weak.damage = 30.0;
  weak.compromised_frac = 0.1;
  AttackSpec strong = weak;
  strong.damage = 250.0;
  const auto weak_scores = p.attack_scores(weak);
  const auto strong_scores = p.attack_scores(strong);
  EXPECT_GT(quantile(strong_scores, 0.5), quantile(weak_scores, 0.5));
}

TEST(Pipeline, MoreCompromiseLowersAttackScores) {
  Pipeline p(small_pipeline_config());
  AttackSpec clean;
  clean.damage = 120.0;
  clean.compromised_frac = 0.0;
  AttackSpec dirty = clean;
  dirty.compromised_frac = 0.4;
  EXPECT_GT(quantile(p.attack_scores(clean), 0.5),
            quantile(p.attack_scores(dirty), 0.5));
}

TEST(Pipeline, DecOnlyAttackScoresAtLeastDecBounded) {
  // Dec-Bounded is the stronger adversary: its minimized scores are <=
  // Dec-Only's, pointwise (same victims via shared streams).
  Pipeline p(small_pipeline_config());
  AttackSpec bounded;
  bounded.damage = 100.0;
  bounded.compromised_frac = 0.1;
  bounded.attack_class = AttackClass::kDecBounded;
  AttackSpec only = bounded;
  only.attack_class = AttackClass::kDecOnly;
  const auto sb = p.attack_scores(bounded);
  const auto so = p.attack_scores(only);
  ASSERT_EQ(sb.size(), so.size());
  for (std::size_t i = 0; i < sb.size(); ++i) {
    EXPECT_LE(sb[i], so[i] + 1e-9) << "victim " << i;
  }
}

TEST(Pipeline, MeanLocalizationErrorTracksConfiguredNoise) {
  Pipeline p(small_pipeline_config());
  const double small_err = p.mean_localization_error(truth_noise_factory(2.0));
  const double large_err = p.mean_localization_error(truth_noise_factory(30.0));
  EXPECT_LT(small_err, large_err);
  EXPECT_NEAR(small_err, 2.0 * std::sqrt(M_PI / 2), 1.0);
}

TEST(Pipeline, MleFactoryProducesWorkingLocalizer) {
  Pipeline p(small_pipeline_config());
  const auto factory = beaconless_mle_factory(p.model(), p.gz());
  const double err = p.mean_localization_error(factory);
  EXPECT_GT(err, 0.0);
  EXPECT_LT(err, 60.0);
}

TEST(Pipeline, RejectsBadConfigs) {
  PipelineConfig cfg = small_pipeline_config();
  cfg.networks = 0;
  EXPECT_THROW(Pipeline{cfg}, AssertionError);
  cfg = small_pipeline_config();
  cfg.victims_per_network = 0;
  EXPECT_THROW(Pipeline{cfg}, AssertionError);
  Pipeline ok(small_pipeline_config());
  AttackSpec bad;
  bad.compromised_frac = 1.5;
  EXPECT_THROW(ok.attack_scores(bad), AssertionError);
  bad.compromised_frac = 0.1;
  bad.damage = -5.0;
  EXPECT_THROW(ok.attack_scores(bad), AssertionError);
}

// Cross-scoring by the attacked metric alone is the plain attack pass:
// both run the same body, so the scores agree bit for bit.
TEST(Pipeline, CrossScoringByTheAttackedMetricEqualsAttackScores) {
  Pipeline p(small_pipeline_config());
  for (MetricKind metric :
       {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}) {
    AttackSpec spec;
    spec.metric = metric;
    spec.damage = 90.0;
    spec.compromised_frac = 0.2;
    const auto cross = p.attack_scores_cross(spec, {spec.metric});
    ASSERT_EQ(cross.size(), 1u);
    const std::vector<double> plain = p.attack_scores(spec);
    const std::vector<double>& crossed = cross.at(metric);
    ASSERT_EQ(crossed.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(std::memcmp(&crossed[i], &plain[i], sizeof(double)), 0)
          << metric_name(metric) << " victim " << i;
    }
  }
}

TEST(Pipeline, CrossScoringRejectsBadAttackSpecs) {
  Pipeline p(small_pipeline_config());
  const std::vector<MetricKind> scorers = {MetricKind::kDiff,
                                           MetricKind::kProb};
  AttackSpec bad;
  bad.compromised_frac = 1.5;
  EXPECT_THROW(p.attack_scores_cross(bad, scorers), AssertionError);
  bad.compromised_frac = 0.1;
  bad.damage = -5.0;
  EXPECT_THROW(p.attack_scores_cross(bad, scorers), AssertionError);
}

TEST(Pipeline, VictimGroupsAlignWithScoresAndNeverPerturbThem) {
  Pipeline p(small_pipeline_config());
  const LocalizerFactory factory = truth_noise_factory(5.0);
  const auto plain = p.benign_scores(factory, {MetricKind::kDiff});
  std::vector<int> groups;
  const auto with_groups =
      p.benign_scores(factory, {MetricKind::kDiff}, &groups);
  EXPECT_EQ(plain.at(MetricKind::kDiff), with_groups.at(MetricKind::kDiff));
  ASSERT_EQ(groups.size(), with_groups.at(MetricKind::kDiff).size());
  for (int g : groups) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, p.model().num_groups());
  }

  AttackSpec attack;
  std::vector<int> attack_groups;
  const auto scores_plain = p.attack_scores(attack);
  const auto scores_grouped = p.attack_scores(attack, &attack_groups);
  EXPECT_EQ(scores_plain, scores_grouped);
  ASSERT_EQ(attack_groups.size(), scores_grouped.size());
}

TEST(Pipeline, TrainBundlePerGroupEmitsBoundaryOverrideRows) {
  PipelineConfig cfg = small_pipeline_config();
  cfg.victims_per_network = 150;  // enough per-group benign samples
  Pipeline p(cfg);
  const LocalizerFactory factory = truth_noise_factory(5.0);
  GroupTrainingSpec grouped;
  grouped.per_group = true;
  grouped.min_samples = 5;
  const DetectorBundle bundle =
      p.train_bundle(factory, {MetricKind::kDiff}, {}, 0.95, grouped);
  const std::vector<int> boundary = boundary_groups(p.model());
  ASSERT_FALSE(boundary.empty());
  const DetectorSpec& spec = bundle.primary();
  // Exactly one override row per boundary group, in ascending order, each
  // carrying trained-or-fallback provenance; interior groups get none.
  ASSERT_EQ(spec.group_overrides.size(), boundary.size());
  std::size_t trained = 0;
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    const GroupThreshold& g = spec.group_overrides[i];
    EXPECT_EQ(g.group, boundary[i]);
    EXPECT_NE(g.source, GroupOverrideSource::kManual);
    if (g.source == GroupOverrideSource::kTrained) {
      ++trained;
      EXPECT_GE(g.samples, 5u);
      EXPECT_NE(g.threshold, spec.threshold);
    } else {
      EXPECT_EQ(g.threshold, spec.threshold);
      EXPECT_LT(g.samples, 5u);
    }
  }
  EXPECT_GT(trained, 0u);
  // The run is recorded in the section's extension tail.
  ASSERT_EQ(spec.extensions.size(), 1u);
  EXPECT_EQ(spec.extensions[0].first, "group-training");
  EXPECT_NE(spec.extensions[0].second.find("min_samples=5"),
            std::string::npos);
}

TEST(Pipeline, TrainBundlePerGroupKeepsGlobalSectionsIdentical) {
  PipelineConfig cfg = small_pipeline_config();
  cfg.victims_per_network = 100;
  const LocalizerFactory factory = truth_noise_factory(5.0);
  Pipeline a(cfg);
  const DetectorBundle plain =
      a.train_bundle(factory, {MetricKind::kDiff, MetricKind::kProb}, {0.9},
                     0.95);
  Pipeline b(cfg);
  GroupTrainingSpec grouped;
  grouped.per_group = true;
  grouped.min_samples = 8;
  const DetectorBundle with_groups =
      b.train_bundle(factory, {MetricKind::kDiff, MetricKind::kProb}, {0.9},
                     0.95, grouped);
  // Per-group mode adds rows, never changes the pooled training.
  ASSERT_EQ(plain.detectors.size(), with_groups.detectors.size());
  for (std::size_t i = 0; i < plain.detectors.size(); ++i) {
    EXPECT_EQ(plain.detectors[i].threshold, with_groups.detectors[i].threshold);
    EXPECT_EQ(plain.detectors[i].taus, with_groups.detectors[i].taus);
    EXPECT_TRUE(plain.detectors[i].group_overrides.empty());
    EXPECT_FALSE(with_groups.detectors[i].group_overrides.empty());
  }
  // Deterministic: training again reproduces the same bundle.
  Pipeline c(cfg);
  EXPECT_EQ(with_groups,
            c.train_bundle(factory, {MetricKind::kDiff, MetricKind::kProb},
                           {0.9}, 0.95, grouped));
}

TEST(Pipeline, PassesBitIdenticalAcrossThreadsAndKernels) {
  // The determinism contract of the per-victim fan-out: every scoring
  // pass and the trained bundle are bit-identical at any thread count,
  // under every compiled-in observe kernel this CPU can run.
  struct KernelGuard {
    ~KernelGuard() { force_observe_kernel(nullptr); }
  } guard;

  const std::vector<MetricKind> metrics = {MetricKind::kDiff,
                                           MetricKind::kProb};
  AttackSpec attack;
  attack.damage = 120.0;
  attack.compromised_frac = 0.2;

  ASSERT_TRUE(force_observe_kernel("scalar"));
  PipelineConfig cfg = small_pipeline_config();
  cfg.threads = 1;
  Pipeline baseline(cfg);
  const LocalizerFactory base_factory =
      beaconless_mle_factory(baseline.model(), baseline.gz());
  const auto base_benign = baseline.benign_scores(base_factory, metrics);
  const auto base_attack = baseline.attack_scores(attack);
  const auto base_cross = baseline.attack_scores_cross(attack, metrics);
  std::ostringstream base_bundle;
  save_bundle(base_bundle, baseline.train_bundle(base_factory, metrics,
                                                 {0.95, 0.99}, 0.99));

  for (const ObserveKernelInfo& kernel : observe_kernels()) {
    if (!kernel.runtime_ok) continue;
    for (int threads : {1, 2, 7}) {
      SCOPED_TRACE(std::string(kernel.name) + " threads=" +
                   std::to_string(threads));
      ASSERT_TRUE(force_observe_kernel(kernel.name));
      cfg.threads = threads;
      Pipeline p(cfg);
      const LocalizerFactory factory =
          beaconless_mle_factory(p.model(), p.gz());
      EXPECT_TRUE(p.benign_scores(factory, metrics) == base_benign);
      EXPECT_TRUE(p.attack_scores(attack) == base_attack);
      EXPECT_TRUE(p.attack_scores_cross(attack, metrics) == base_cross);
      std::ostringstream bundle;
      save_bundle(bundle,
                  p.train_bundle(factory, metrics, {0.95, 0.99}, 0.99));
      EXPECT_EQ(bundle.str(), base_bundle.str());
    }
  }
}

TEST(Pipeline, StatefulLocalizerFallsBackDeterministically) {
  // truth-noise draws from internal call-order-dependent state, so the
  // benign pass must take the per-network fallback instead of the flat
  // per-victim fan-out - and still match the serial run exactly.
  PipelineConfig cfg = small_pipeline_config();
  cfg.threads = 1;
  Pipeline serial(cfg);
  cfg.threads = 7;
  Pipeline wide(cfg);
  const auto factory = truth_noise_factory(5.0);
  EXPECT_TRUE(serial.benign_scores(factory, {MetricKind::kDiff}) ==
              wide.benign_scores(factory, {MetricKind::kDiff}));
}

TEST(Pipeline, TrainBundleRejectsBadGroupSpec) {
  Pipeline p(small_pipeline_config());
  const LocalizerFactory factory = truth_noise_factory(5.0);
  GroupTrainingSpec grouped;
  grouped.per_group = true;
  grouped.min_samples = 0;
  EXPECT_THROW(
      p.train_bundle(factory, {MetricKind::kDiff}, {}, 0.95, grouped),
      AssertionError);
}

}  // namespace
}  // namespace lad
