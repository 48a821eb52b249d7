#include "sim/pipeline.h"

#include <gtest/gtest.h>

#include "util/assert.h"
#include <cmath>
#include <cstring>
#include <sstream>

#include "attack/adversary.h"
#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/metric.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "deploy/observe_kernel.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "loc/localizer.h"
#include "loc/truth_noise.h"
#include "rng/rng.h"
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
  const BenignPass s1 = serial.benign_scores(factory, {MetricKind::kDiff});
  const BenignPass s4 = parallel.benign_scores(factory, {MetricKind::kDiff});
  EXPECT_EQ(s1.scores.at(MetricKind::kDiff), s4.scores.at(MetricKind::kDiff));
  EXPECT_EQ(s1.victim_groups, s4.victim_groups);
  EXPECT_EQ(s1.mean_localization_error, s4.mean_localization_error);
}

TEST(Pipeline, BenignScoresSaneForAllMetrics) {
  Pipeline p(small_pipeline_config());
  const BenignPass pass = p.benign_scores(
      truth_noise_factory(5.0),
      {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb});
  ASSERT_EQ(pass.scores.size(), 3u);
  for (const auto& [kind, vec] : pass.scores) {
    ASSERT_EQ(vec.size(), 200u) << metric_name(kind);
    for (double s : vec) {
      EXPECT_TRUE(std::isfinite(s)) << metric_name(kind);
      EXPECT_GE(s, 0.0) << metric_name(kind);
    }
  }
}

TEST(Pipeline, AttackScoresShiftUpWithDamage) {
  Pipeline p(small_pipeline_config());
  const AttackCell cell{MetricKind::kDiff, AttackClass::kDecBounded, 0.1,
                        {MetricKind::kDiff}};
  const auto weak_scores = p.attack_batch(30.0, {cell}).scores[0][0];
  const auto strong_scores = p.attack_batch(250.0, {cell}).scores[0][0];
  EXPECT_GT(quantile(strong_scores, 0.5), quantile(weak_scores, 0.5));
}

TEST(Pipeline, MoreCompromiseLowersAttackScores) {
  Pipeline p(small_pipeline_config());
  AttackCell clean{MetricKind::kDiff, AttackClass::kDecBounded, 0.0,
                   {MetricKind::kDiff}};
  AttackCell dirty = clean;
  dirty.compromised_frac = 0.4;
  EXPECT_GT(quantile(p.attack_batch(120.0, {clean}).scores[0][0], 0.5),
            quantile(p.attack_batch(120.0, {dirty}).scores[0][0], 0.5));
}

TEST(Pipeline, DecOnlyAttackScoresAtLeastDecBounded) {
  // Dec-Bounded is the stronger adversary: its minimized scores are <=
  // Dec-Only's, pointwise (same victims via shared streams).
  Pipeline p(small_pipeline_config());
  AttackCell bounded{MetricKind::kDiff, AttackClass::kDecBounded, 0.1,
                     {MetricKind::kDiff}};
  AttackCell only = bounded;
  only.attack_class = AttackClass::kDecOnly;
  const auto sb = p.attack_batch(100.0, {bounded}).scores[0][0];
  const auto so = p.attack_batch(100.0, {only}).scores[0][0];
  ASSERT_EQ(sb.size(), so.size());
  for (std::size_t i = 0; i < sb.size(); ++i) {
    EXPECT_LE(sb[i], so[i] + 1e-9) << "victim " << i;
  }
}

TEST(Pipeline, MeanLocalizationErrorTracksConfiguredNoise) {
  Pipeline p(small_pipeline_config());
  const double small_err =
      p.benign_scores(truth_noise_factory(2.0), {MetricKind::kDiff})
          .mean_localization_error;
  const double large_err =
      p.benign_scores(truth_noise_factory(30.0), {MetricKind::kDiff})
          .mean_localization_error;
  EXPECT_LT(small_err, large_err);
  EXPECT_NEAR(small_err, 2.0 * std::sqrt(M_PI / 2), 1.0);
}

TEST(Pipeline, MleFactoryProducesWorkingLocalizer) {
  Pipeline p(small_pipeline_config());
  const auto factory = beaconless_mle_factory(p.model(), p.gz());
  const double err =
      p.benign_scores(factory, {MetricKind::kDiff}).mean_localization_error;
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
  AttackCell bad{MetricKind::kDiff, AttackClass::kDecBounded, 1.5,
                 {MetricKind::kDiff}};
  EXPECT_THROW(ok.attack_batch(120.0, {bad}), AssertionError);
  bad.compromised_frac = 0.1;
  EXPECT_THROW(ok.attack_batch(-5.0, {bad}), AssertionError);
}

TEST(Pipeline, VictimGroupsAlignWithScoresAndNeverPerturbThem) {
  Pipeline p(small_pipeline_config());
  const LocalizerFactory factory = truth_noise_factory(5.0);
  // A metric's scores do not depend on which other metrics share the
  // pass, and every pass carries one victim group per sample.
  const BenignPass plain = p.benign_scores(factory, {MetricKind::kDiff});
  const BenignPass shared =
      p.benign_scores(factory, {MetricKind::kProb, MetricKind::kDiff});
  EXPECT_EQ(plain.scores.at(MetricKind::kDiff),
            shared.scores.at(MetricKind::kDiff));
  EXPECT_EQ(plain.victim_groups, shared.victim_groups);
  ASSERT_EQ(plain.victim_groups.size(),
            plain.scores.at(MetricKind::kDiff).size());
  for (int g : plain.victim_groups) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, p.model().num_groups());
  }

  const AttackCell diff{MetricKind::kDiff, AttackClass::kDecBounded, 0.1,
                        {MetricKind::kDiff}};
  const AttackCell prob{MetricKind::kProb, AttackClass::kDecOnly, 0.3,
                        {MetricKind::kProb}};
  const AttackPass alone = p.attack_batch(120.0, {diff});
  const AttackPass batched = p.attack_batch(120.0, {prob, diff});
  EXPECT_EQ(alone.scores[0], batched.scores[1]);
  EXPECT_EQ(alone.victim_groups, batched.victim_groups);
  ASSERT_EQ(alone.victim_groups.size(), alone.scores[0][0].size());
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
  constexpr double kDamage = 120.0;
  const AttackCell attack{MetricKind::kDiff, AttackClass::kDecBounded, 0.2,
                          {MetricKind::kDiff}};

  ASSERT_TRUE(force_observe_kernel("scalar"));
  PipelineConfig cfg = small_pipeline_config();
  cfg.threads = 1;
  Pipeline baseline(cfg);
  const LocalizerFactory base_factory =
      beaconless_mle_factory(baseline.model(), baseline.gz());
  const auto base_benign = baseline.benign_scores(base_factory, metrics);
  const auto base_attack = baseline.attack_batch(kDamage, {attack});
  // One multi-scorer cell: the taint minimizes Diff, both metrics score.
  const std::vector<AttackCell> cells = {
      {attack.metric, attack.attack_class, attack.compromised_frac, metrics}};
  const auto base_batch = baseline.attack_batch(kDamage, cells);
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
      EXPECT_TRUE(p.attack_batch(kDamage, {attack}) == base_attack);
      EXPECT_TRUE(p.attack_batch(kDamage, cells) == base_batch);
      std::ostringstream bundle;
      save_bundle(bundle,
                  p.train_bundle(factory, metrics, {0.95, 0.99}, 0.99));
      EXPECT_EQ(bundle.str(), base_bundle.str());
    }
  }
}

// --- the attack batch against the per-cell pass it replaced -------------

/// The attack pass of one cell as it ran before batching, one victim at a
/// time: draw the victim and its planted Le from the network's attack
/// stream (Section 7.1 steps 1-2), observe, compute mu, taint with budget
/// round(x |a|) (step 3) and score with each of the cell's scorers.
struct ReferencePass {
  std::vector<std::vector<double>> scores;  ///< [scorer][sample]
  std::vector<int> victim_groups;
};

std::size_t reference_draw_victim(const Network& net, const PipelineConfig& cfg,
                                  Rng& rng) {
  const Aabb field = cfg.deploy.field();
  for (int tries = 0; tries < 256; ++tries) {
    const std::size_t node =
        static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
    if (!cfg.victims_in_field_only || field.contains(net.position(node))) {
      return node;
    }
  }
  return static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
}

ReferencePass reference_attack_pass(const Pipeline& p, double damage,
                                    const AttackCell& cell) {
  constexpr std::uint64_t kStreamAttack = 0x41545441ull;  // "ATTA"
  const PipelineConfig& cfg = p.config();
  const int m = cfg.deploy.nodes_per_group;
  std::vector<std::unique_ptr<Metric>> scorers;
  for (MetricKind kind : cell.scorers) scorers.push_back(make_metric(kind));
  ReferencePass out;
  out.scores.resize(scorers.size());
  for (std::size_t ni = 0; ni < p.networks().size(); ++ni) {
    const Network& net = *p.networks()[ni];
    Rng rng = Rng::stream(cfg.seed ^ kStreamAttack, ni);
    for (int v = 0; v < cfg.victims_per_network; ++v) {
      const std::size_t node = reference_draw_victim(net, cfg, rng);
      const Vec2 le = displaced_location(net.position(node), damage,
                                         cfg.deploy.field(), rng);
      const Observation a = net.observe(node);
      const ExpectedObservation mu = p.model().expected_observation(le, p.gz());
      const int budget =
          static_cast<int>(std::lround(cell.compromised_frac * a.total()));
      const TaintResult taint =
          greedy_taint(a, mu, m, cell.metric, cell.attack_class, budget);
      for (std::size_t si = 0; si < scorers.size(); ++si) {
        out.scores[si].push_back(scorers[si]->score(taint.tainted, mu, m));
      }
      out.victim_groups.push_back(p.model().nearest_group(net.position(node)));
    }
  }
  return out;
}

/// Every (metric, class, x, scorers) cell the oracle draws subsets from.
std::vector<AttackCell> oracle_cell_universe() {
  const std::vector<MetricKind> metrics = {MetricKind::kDiff,
                                           MetricKind::kAddAll,
                                           MetricKind::kProb};
  std::vector<AttackCell> cells;
  for (MetricKind metric : metrics) {
    for (AttackClass cls : {AttackClass::kDecBounded, AttackClass::kDecOnly}) {
      for (double x : {0.0, 0.1, 0.35, 1.0}) {
        cells.push_back({metric, cls, x, {metric}});
        cells.push_back({metric, cls, x, {MetricKind::kProb, metric,
                                          MetricKind::kDiff}});
      }
    }
  }
  return cells;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Reference-vs-batch: every cell of a batch - any subset of cells, in any
// order, at any thread count - gets exactly the scores and victim groups
// of its own per-cell pass.
TEST(Pipeline, AttackBatchMatchesThePerCellReference) {
  const std::vector<AttackCell> universe = oracle_cell_universe();
  PipelineConfig cfg = small_pipeline_config();
  cfg.threads = 1;
  Pipeline serial(cfg);
  cfg.threads = 4;
  Pipeline wide(cfg);
  Rng pick = Rng::stream(7, 0);
  for (double damage : {0.0, 60.0, 210.0}) {
    std::vector<ReferencePass> reference;
    for (const AttackCell& cell : universe) {
      reference.push_back(reference_attack_pass(serial, damage, cell));
    }
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::size_t> order(universe.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      pick.shuffle(order);
      order.resize(1 + pick.uniform_int(order.size()));
      std::vector<AttackCell> cells;
      for (std::size_t i : order) cells.push_back(universe[i]);
      for (Pipeline* p : {&serial, &wide}) {
        SCOPED_TRACE("D=" + std::to_string(damage) + " trial " +
                     std::to_string(trial) + " threads=" +
                     std::to_string(p->config().threads));
        const AttackPass batch = p->attack_batch(damage, cells);
        ASSERT_EQ(batch.scores.size(), cells.size());
        for (std::size_t ci = 0; ci < cells.size(); ++ci) {
          const ReferencePass& ref = reference[order[ci]];
          ASSERT_EQ(batch.scores[ci].size(), ref.scores.size());
          for (std::size_t si = 0; si < ref.scores.size(); ++si) {
            EXPECT_TRUE(same_bits(batch.scores[ci][si], ref.scores[si]))
                << "cell " << order[ci] << " scorer " << si;
          }
          EXPECT_EQ(batch.victim_groups, ref.victim_groups);
        }
      }
    }
  }
}

// One ladder per (metric, class): cells that share a walk, listed with x
// descending and repeated, still get their own per-cell scores - the
// batch's sort, not the caller's order, sets the rungs.
TEST(Pipeline, AttackBatchLadderIgnoresTheCallersXOrder) {
  PipelineConfig cfg = small_pipeline_config();
  cfg.threads = 2;
  Pipeline p(cfg);
  const std::vector<double> xs = {1.0, 0.35, 0.35, 0.1, 0.0, 0.1, 0.0};
  for (MetricKind metric :
       {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}) {
    for (AttackClass cls : {AttackClass::kDecBounded, AttackClass::kDecOnly}) {
      std::vector<AttackCell> cells;
      for (double x : xs) {
        cells.push_back({metric, cls, x, {metric, MetricKind::kProb}});
      }
      SCOPED_TRACE(std::string(metric_name(metric)) + " " +
                   attack_class_name(cls));
      const AttackPass batch = p.attack_batch(120.0, cells);
      ASSERT_EQ(batch.scores.size(), cells.size());
      for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        const ReferencePass ref = reference_attack_pass(p, 120.0, cells[ci]);
        for (std::size_t si = 0; si < ref.scores.size(); ++si) {
          EXPECT_TRUE(same_bits(batch.scores[ci][si], ref.scores[si]))
              << "cell " << ci << " x " << cells[ci].compromised_frac
              << " scorer " << si;
        }
      }
    }
  }
}

// The batch keeps the per-cell argument checks: a bad D, or a bad x or an
// empty scorer list in any one cell, rejects the whole batch.
TEST(Pipeline, AttackBatchRejectsABadCellAnywhere) {
  Pipeline p(small_pipeline_config());
  const std::vector<AttackCell> universe = oracle_cell_universe();
  const std::vector<AttackCell> good(universe.begin(), universe.begin() + 5);
  EXPECT_THROW(p.attack_batch(-5.0, good), AssertionError);
  for (std::size_t at = 0; at <= good.size(); ++at) {
    SCOPED_TRACE("bad cell at " + std::to_string(at));
    for (double x : {1.5, -0.2}) {
      std::vector<AttackCell> cells = good;
      cells.insert(cells.begin() + static_cast<std::ptrdiff_t>(at),
                   {MetricKind::kDiff, AttackClass::kDecOnly, x,
                    {MetricKind::kDiff}});
      EXPECT_THROW(p.attack_batch(60.0, cells), AssertionError);
    }
    std::vector<AttackCell> cells = good;
    cells.insert(cells.begin() + static_cast<std::ptrdiff_t>(at),
                 {MetricKind::kProb, AttackClass::kDecBounded, 0.1, {}});
    EXPECT_THROW(p.attack_batch(60.0, cells), AssertionError);
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

// --- the folded localization error against the separate pass ----------

/// Mean localization error as the separate pass computed it before the
/// benign pass carried it: fresh localizers from the benign stream, the
/// same victims, each network's victims localized in order, then the mean
/// over victims within a network and over networks.
double reference_mean_localization_error(const Pipeline& p,
                                         const LocalizerFactory& factory) {
  constexpr std::uint64_t kStreamBenign = 0x42454e49ull;  // "BENI"
  const PipelineConfig& cfg = p.config();
  const std::size_t k = static_cast<std::size_t>(cfg.victims_per_network);
  double sum = 0.0;
  for (std::size_t ni = 0; ni < p.networks().size(); ++ni) {
    const Network& net = *p.networks()[ni];
    Rng rng = Rng::stream(cfg.seed ^ kStreamBenign, ni);
    const std::uint64_t loc_seed = rng.bits();
    std::vector<std::size_t> victims(k);
    for (std::size_t& node : victims) {
      node = reference_draw_victim(net, cfg, rng);
    }
    const std::unique_ptr<Localizer> localizer = factory(loc_seed);
    localizer->prepare(net);
    double total = 0.0;
    for (std::size_t node : victims) {
      total += distance(localizer->localize(net, node), net.position(node));
    }
    sum += total / static_cast<double>(k);
  }
  return sum / static_cast<double>(p.networks().size());
}

// The benign pass's mean localization error is bit-identical to the
// separate pass, for a concurrent localizer (the flat fan-out) and a
// stateful one (the per-network path), at any thread count.
TEST(Pipeline, BenignPassLocalizationErrorMatchesTheSeparatePass) {
  for (int threads : {1, 4}) {
    PipelineConfig cfg = small_pipeline_config();
    cfg.threads = threads;
    Pipeline p(cfg);
    const std::vector<std::pair<std::string, LocalizerFactory>> factories = {
        {"beaconless-mle", beaconless_mle_factory(p.model(), p.gz())},
        {"truth-noise", truth_noise_factory(5.0)}};
    for (const auto& [name, factory] : factories) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      const double folded =
          p.benign_scores(factory, {MetricKind::kDiff}).mean_localization_error;
      const double reference = reference_mean_localization_error(p, factory);
      EXPECT_EQ(std::memcmp(&folded, &reference, sizeof(double)), 0)
          << std::hexfloat << folded << " vs " << reference;
    }
  }
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
