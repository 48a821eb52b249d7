#include "sim/pipeline.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <sstream>

#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/metric.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "loc/beaconless_mle.h"
#include "loc/localizer.h"
#include "rng/rng.h"
#include "sim/parallel.h"
#include "util/assert.h"

namespace lad {

namespace {
// Domain separators for sub-stream derivation: every pass uses a distinct
// constant so re-running one pass never perturbs another.
constexpr std::uint64_t kStreamNetworks = 0x4e455457ull;  // "NETW"
constexpr std::uint64_t kStreamBenign = 0x42454e49ull;    // "BENI"
constexpr std::uint64_t kStreamAttack = 0x41545441ull;    // "ATTA"

/// Draws a victim node, optionally restricted to the deployment field.
std::size_t draw_victim(const Network& net, const PipelineConfig& cfg,
                        Rng& rng) {
  const Aabb field = cfg.deploy.field();
  for (int tries = 0; tries < 256; ++tries) {
    const std::size_t node =
        static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
    if (!cfg.victims_in_field_only || field.contains(net.position(node))) {
      return node;
    }
  }
  // Essentially unreachable (>90% of nodes are in-field); fall back to any.
  return static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
}

/// Parallel fan-out over the flat (network, victim) index space: splits
/// [0, nnet*k) into contiguous chunks — several per thread, so uneven
/// greedy-taint/MLE cost load-balances on the pool's dynamic cursor — and
/// hands each chunk to `body` as per-network victim subranges that never
/// span a network boundary (observation batches and localizers are
/// per-network).  All rng consumption must have happened before the call;
/// bodies write results into disjoint flat slots, so any schedule yields
/// identical output.
void for_each_victim_span(
    std::size_t nnet, std::size_t k, int threads,
    const std::function<void(std::size_t ni, std::size_t v_lo,
                             std::size_t v_hi)>& body) {
  const std::size_t total = nnet * k;
  const int width = resolve_threads(threads);
  const std::size_t nchunks =
      std::min(total, static_cast<std::size_t>(width) * 4);
  const std::size_t chunk = (total + nchunks - 1) / nchunks;
  parallel_for_items(
      nchunks,
      [&](std::size_t c) {
        const std::size_t lo = c * chunk;
        const std::size_t hi = std::min(total, lo + chunk);
        std::size_t f = lo;
        while (f < hi) {
          const std::size_t ni = f / k;
          const std::size_t v_hi = std::min(hi - ni * k, k);
          body(ni, f - ni * k, v_hi);
          f = ni * k + v_hi;
        }
      },
      threads);
}

/// True when every per-network localizer supports order-independent
/// concurrent localize() — the gate for the flat per-victim fan-out.
bool concurrent_localize_all(
    const std::vector<std::unique_ptr<Localizer>>& localizers) {
  for (const auto& l : localizers) {
    if (!l->concurrent_localize()) return false;
  }
  return true;
}

}  // namespace

LocalizerFactory beaconless_mle_factory(const DeploymentModel& model,
                                        const GzTable& gz) {
  return [&model, &gz](std::uint64_t) {
    return std::make_unique<BeaconlessMleLocalizer>(model, gz);
  };
}

namespace {

/// Builds the deployment reality from the knowledge model and the
/// configured mismatch (Section 8 future work).
DeploymentModel make_actual_model(const DeploymentModel& knowledge,
                                  const PipelineConfig& cfg) {
  DeploymentConfig actual_cfg = cfg.deploy;
  if (cfg.actual_sigma > 0.0) actual_cfg.sigma = cfg.actual_sigma;
  std::vector<Vec2> points = knowledge.deployment_points();
  if (cfg.deployment_jitter > 0.0) {
    Rng rng = Rng::stream(cfg.seed ^ 0x4a495454ull /*"JITT"*/, 0);
    for (Vec2& p : points) {
      p.x += rng.normal(0.0, cfg.deployment_jitter);
      p.y += rng.normal(0.0, cfg.deployment_jitter);
    }
  }
  return DeploymentModel(actual_cfg, std::move(points));
}

}  // namespace

Pipeline::Pipeline(const PipelineConfig& config)
    : config_(config),
      model_(DeploymentModel::make(config.shape, config.deploy,
                                   config.seed ^ 0x53485045ull /*"SHPE"*/)),
      actual_model_(make_actual_model(model_, config)),
      gz_({config.deploy.radio_range, config.deploy.sigma}, config.gz_omega,
          resolve_threads(config.threads)) {
  LAD_REQUIRE_MSG(config.networks > 0, "need at least one network");
  LAD_REQUIRE_MSG(config.victims_per_network > 0,
                  "need at least one victim per network");
  networks_.resize(static_cast<std::size_t>(config.networks));
  parallel_for_items(
      networks_.size(),
      [this](std::size_t i) {
        Rng rng = Rng::stream(config_.seed ^ kStreamNetworks, i);
        networks_[i] = std::make_unique<Network>(actual_model_, rng);
      },
      config_.threads);
}

BenignPass Pipeline::benign_scores(const LocalizerFactory& factory,
                                  const std::vector<MetricKind>& metrics) {
  const std::size_t nnet = networks_.size();
  const std::size_t k = static_cast<std::size_t>(config_.victims_per_network);
  const int m = config_.deploy.nodes_per_group;

  std::vector<std::unique_ptr<Metric>> metric_impls;
  for (MetricKind kind : metrics) metric_impls.push_back(make_metric(kind));

  // scores[metric][network * k + victim]; distances |Le - La| per slot.
  std::vector<std::vector<double>> scores(
      metrics.size(), std::vector<double>(nnet * k, 0.0));
  std::vector<double> distances(nnet * k, 0.0);
  BenignPass pass;
  pass.victim_groups.assign(nnet * k, 0);

  // Sequential rng phase: replay every network's historical stream order
  // — localizer seed first, then the k victim draws — so the fan-out
  // below cannot perturb any stream regardless of schedule.
  std::vector<std::uint64_t> loc_seeds(nnet);
  std::vector<std::size_t> victims(nnet * k);
  for (std::size_t ni = 0; ni < nnet; ++ni) {
    Rng rng = Rng::stream(config_.seed ^ kStreamBenign, ni);
    loc_seeds[ni] = rng.bits();
    for (std::size_t v = 0; v < k; ++v) {
      victims[ni * k + v] = draw_victim(*networks_[ni], config_, rng);
    }
  }

  // One localizer per network, prepared in parallel (hop-flooding schemes
  // do their per-network heavy lifting in prepare()).
  std::vector<std::unique_ptr<Localizer>> localizers(nnet);
  for (std::size_t ni = 0; ni < nnet; ++ni) {
    localizers[ni] = factory(loc_seeds[ni]);
  }
  parallel_for_items(
      nnet, [&](std::size_t ni) { localizers[ni]->prepare(*networks_[ni]); },
      config_.threads);

  auto score_span = [&](std::size_t ni, std::size_t v_lo, std::size_t v_hi) {
    const Network& net = *networks_[ni];
    Localizer& localizer = *localizers[ni];
    ObservationBatch batch;
    net.observe_many(std::span<const std::size_t>(
                         victims.data() + ni * k + v_lo, v_hi - v_lo),
                     batch);
    for (std::size_t v = v_lo; v < v_hi; ++v) {
      const std::size_t slot = ni * k + v;
      const Vec2 la = net.position(victims[slot]);
      const Observation obs = batch.to_observation(v - v_lo);
      const Vec2 le = localizer.localize(net, victims[slot]);
      const ExpectedObservation mu = model_.expected_observation(le, gz_);
      for (std::size_t mi = 0; mi < metric_impls.size(); ++mi) {
        scores[mi][slot] = metric_impls[mi]->score(obs, mu, m);
      }
      distances[slot] = distance(le, la);
      pass.victim_groups[slot] = model_.nearest_group(la);
    }
  };

  if (concurrent_localize_all(localizers)) {
    // Flat per-victim fan-out: parallelism scales with nnet*k, not nnet.
    for_each_victim_span(nnet, k, config_.threads, score_span);
  } else {
    // Stateful localize (call-order-dependent): keep the per-network
    // fan-out so each network's victims are localized in order.
    parallel_for_items(
        nnet, [&](std::size_t ni) { score_span(ni, 0, k); }, config_.threads);
  }

  for (std::size_t mi = 0; mi < metrics.size(); ++mi) {
    pass.scores[metrics[mi]] = std::move(scores[mi]);
  }
  // Reduce in a fixed order (victims within a network, then networks) so
  // the float-addition order, and hence the mean, never depends on the
  // schedule.
  double sum = 0.0;
  for (std::size_t ni = 0; ni < nnet; ++ni) {
    double total = 0.0;
    for (std::size_t v = 0; v < k; ++v) total += distances[ni * k + v];
    sum += total / static_cast<double>(k);
  }
  pass.mean_localization_error = sum / static_cast<double>(nnet);
  return pass;
}

void Pipeline::draw_attack_victims(double damage,
                                   std::vector<std::size_t>& victims,
                                   std::vector<Vec2>& les) {
  const std::size_t nnet = networks_.size();
  const std::size_t k = static_cast<std::size_t>(config_.victims_per_network);
  const Aabb field = config_.deploy.field();
  // The attack sub-stream is independent of the benign pass but *also*
  // independent of the cell, so different (D, x) settings see the same
  // victims - variance reduction that matches the paper's sweeps.
  // Historical call order per network: victim then Le, per victim.
  victims.resize(nnet * k);
  les.resize(nnet * k);
  for (std::size_t ni = 0; ni < nnet; ++ni) {
    const Network& net = *networks_[ni];
    Rng rng = Rng::stream(config_.seed ^ kStreamAttack, ni);
    for (std::size_t v = 0; v < k; ++v) {
      // Step 1 (7.1): random victim at La.
      victims[ni * k + v] = draw_victim(net, config_, rng);
      // Step 2: plant Le with |Le - La| = D.
      les[ni * k + v] = displaced_location(net.position(victims[ni * k + v]),
                                           damage, field, rng);
    }
  }
}

AttackPass Pipeline::attack_batch(double damage,
                                  const std::vector<AttackCell>& cells) {
  LAD_REQUIRE_MSG(damage >= 0, "damage must be non-negative");
  for (const AttackCell& cell : cells) {
    LAD_REQUIRE_MSG(cell.compromised_frac >= 0 && cell.compromised_frac <= 1,
                    "compromised fraction must be in [0,1]");
    LAD_REQUIRE_MSG(!cell.scorers.empty(), "need at least one scoring metric");
  }
  const std::size_t nnet = networks_.size();
  const std::size_t k = static_cast<std::size_t>(config_.victims_per_network);
  const int m = config_.deploy.nodes_per_group;

  // scorer_impls[cell][scorer], scores[cell][scorer][network * k + victim];
  // a Prob scorer reads the victim's ProbTable instead of its impl.
  std::vector<std::vector<std::unique_ptr<Metric>>> scorer_impls(cells.size());
  AttackPass pass;
  pass.scores.resize(cells.size());
  bool needs_prob = false;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    needs_prob = needs_prob || cells[ci].metric == MetricKind::kProb;
    for (MetricKind kind : cells[ci].scorers) {
      needs_prob = needs_prob || kind == MetricKind::kProb;
      scorer_impls[ci].push_back(make_metric(kind));
      pass.scores[ci].emplace_back(nnet * k, 0.0);
    }
  }
  pass.victim_groups.assign(nnet * k, 0);

  // One budget ladder per (metric, class): its cells in ascending x, so
  // their budgets round(x |a|) ascend too and one greedy walk per victim
  // serves them all (the prefix property in attack/greedy.h).
  std::vector<std::vector<std::size_t>> ladders;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    auto same_walk = [&](const std::vector<std::size_t>& l) {
      return cells[l.front()].metric == cells[ci].metric &&
             cells[l.front()].attack_class == cells[ci].attack_class;
    };
    auto it = std::find_if(ladders.begin(), ladders.end(), same_walk);
    if (it == ladders.end()) {
      ladders.push_back({ci});
    } else {
      it->push_back(ci);
    }
  }
  for (std::vector<std::size_t>& ladder : ladders) {
    std::stable_sort(ladder.begin(), ladder.end(),
                     [&](std::size_t lhs, std::size_t rhs) {
                       return cells[lhs].compromised_frac <
                              cells[rhs].compromised_frac;
                     });
  }

  std::vector<std::size_t> victims;
  std::vector<Vec2> les;
  draw_attack_victims(damage, victims, les);

  // No localizer in this pass, so the flat fan-out is unconditional.
  for_each_victim_span(
      nnet, k, config_.threads,
      [&](std::size_t ni, std::size_t v_lo, std::size_t v_hi) {
        const Network& net = *networks_[ni];
        ObservationBatch batch;
        net.observe_many(std::span<const std::size_t>(
                             victims.data() + ni * k + v_lo, v_hi - v_lo),
                         batch);
        std::vector<int> budgets;
        for (std::size_t v = v_lo; v < v_hi; ++v) {
          const std::size_t slot = ni * k + v;
          const Observation a = batch.to_observation(v - v_lo);
          const ExpectedObservation mu =
              model_.expected_observation(les[slot], gz_);
          const int neighbors = a.total();
          std::optional<ProbTable> prob;
          if (needs_prob) prob.emplace(mu, m);
          for (const std::vector<std::size_t>& ladder : ladders) {
            budgets.clear();
            for (std::size_t ci : ladder) {
              budgets.push_back(static_cast<int>(
                  std::lround(cells[ci].compromised_frac * neighbors)));
            }
            const AttackCell& walk = cells[ladder.front()];
            // Step 3: tainted observation minimizing the metric.
            greedy_taint_ladder(
                a, mu, m, walk.metric, walk.attack_class, budgets,
                [&](std::size_t rung, const Observation& tainted, int) {
                  const std::size_t ci = ladder[rung];
                  for (std::size_t si = 0; si < scorer_impls[ci].size();
                       ++si) {
                    pass.scores[ci][si][slot] =
                        cells[ci].scorers[si] == MetricKind::kProb
                            ? prob->score(tainted)
                            : scorer_impls[ci][si]->score(tainted, mu, m);
                  }
                },
                prob ? &*prob : nullptr);
          }
          pass.victim_groups[slot] =
              model_.nearest_group(net.position(victims[slot]));
        }
      });
  return pass;
}

DetectorBundle Pipeline::train_bundle(const LocalizerFactory& factory,
                                      const std::vector<MetricKind>& metrics,
                                      std::vector<double> taus,
                                      double active_tau,
                                      const GroupTrainingSpec& grouped) {
  LAD_REQUIRE_MSG(!metrics.empty(), "need at least one metric to train");
  LAD_REQUIRE_MSG(grouped.min_samples >= 1,
                  "per-group training needs min_samples >= 1");
  taus.push_back(active_tau);
  std::sort(taus.begin(), taus.end());
  taus.erase(std::unique(taus.begin(), taus.end()), taus.end());
  BenignPass benign = benign_scores(factory, metrics);
  GroupTrainingOptions options;
  if (grouped.per_group) {
    options.groups = boundary_groups(model_);
    options.min_samples = static_cast<std::size_t>(grouped.min_samples);
  }
  std::vector<DetectorSpec> specs;
  specs.reserve(metrics.size());
  for (MetricKind metric : metrics) {
    std::vector<double>& scores = benign.scores.at(metric);
    DetectorSpec spec;
    if (grouped.per_group) {
      // The pooled table first (it defines the global fallback threshold),
      // then one override row per boundary group - trained on its bucket,
      // or a recorded fallback when the bucket misses the floor.
      spec = detector_spec_from_training(train_thresholds(metric, scores, taus),
                                         active_tau);
      std::size_t trained = 0;
      for (const GroupTrainingResult& r : train_group_thresholds(
               metric, scores, benign.victim_groups, options, active_tau,
               spec.threshold)) {
        spec.group_overrides.push_back(
            {r.group, r.training.threshold,
             r.fallback ? GroupOverrideSource::kFallback
                        : GroupOverrideSource::kTrained,
             r.training.num_samples, r.training.score_stats.mean(),
             r.training.score_stats.stddev()});
        if (!r.fallback) ++trained;
      }
      std::ostringstream provenance;
      provenance << "boundary=" << options.groups.size() << " trained="
                 << trained << " fallback="
                 << options.groups.size() - trained << " min_samples="
                 << options.min_samples;
      spec.extensions.emplace_back("group-training", provenance.str());
    } else {
      spec = detector_spec_from_training(
          train_thresholds(metric, std::move(scores), taus), active_tau);
    }
    specs.push_back(std::move(spec));
  }
  return make_bundle(model_, config_.gz_omega, std::move(specs));
}

}  // namespace lad
