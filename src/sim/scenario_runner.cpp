// The experiment-kind table (sim/kind_table.h) and the ScenarioRunner that
// executes it: each kind's row names its section, the keys it accepts, its
// sweep axes (grid kinds) or item count (the others), its table ids and
// its run function, which executes the expansion (or one shard of it)
// through Pipeline.
//
// Work-item ids are assigned by iterating the expansion in a fixed order
// (a grid kind's ids decode mixed-radix over its axis list, a
// single-network kind's over its (attack, D) cells), so ids are
// identical in every shard of the same spec.  All randomness is
// keyed from the spec's seed (Philox-style sub-streams inside Pipeline;
// explicit streams in the other kinds), never from execution
// order, which is what makes shard output placement-independent.
//
// Pipelines / benign passes / attack batches / deployed networks are
// cached per runner and shared across the items that need them; because
// they are deterministic functions of (spec, seed), caching changes wall
// time only, never values.  An attack batch runs, at one (pipeline, D),
// exactly the attack cells the shard's items own there: each kind plans
// its cells from its shard walk before any item runs.
#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "attack/adversary.h"
#include "attack/displacement.h"
#include "attack/greedy.h"
#include "core/corrector.h"
#include "core/detector.h"
#include "core/metric.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "loc/beaconless_mle.h"
#include "loc/dvhop.h"
#include "loc/echo.h"
#include "loc/mmse.h"
#include "rng/rng.h"
#include "sim/item_scheduler.h"
#include "sim/kind_table.h"
#include "sim/latched_cache.h"
#include "sim/parallel.h"
#include "sim/pipeline.h"
#include "stats/quantile.h"
#include "stats/roc.h"
#include "stats/running_stats.h"
#include "stats/special.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/kvconfig.h"
#include "util/string_util.h"

namespace lad {

namespace {

using detail::get_positive_int;
using detail::group_threshold_mode_name;
using detail::require_non_empty;

template <class T>
long long len(const std::vector<T>& v) {
  return static_cast<long long>(v.size());
}

/// The (actual_sigma, jitter) mismatch combinations a spec expands to.
std::vector<std::pair<double, double>> mismatch_pairs(const ScenarioSpec& s) {
  std::vector<std::pair<double, double>> pairs;
  if (s.mismatch_coupling == MismatchCoupling::kProduct) {
    for (double sigma : s.actual_sigmas) {
      for (double jitter : s.jitters) pairs.emplace_back(sigma, jitter);
    }
    return pairs;
  }
  // Axes mode: vary one axis at a time, the other held at its first value.
  // When both axes vary, the two passes are emitted back to back (the
  // baseline-ish row appears in each, matching the two-table mismatch
  // bench this mode reproduces).
  if (s.actual_sigmas.size() <= 1) {
    for (double jitter : s.jitters) {
      pairs.emplace_back(s.actual_sigmas.front(), jitter);
    }
    return pairs;
  }
  for (double sigma : s.actual_sigmas) {
    pairs.emplace_back(sigma, s.jitters.front());
  }
  if (s.jitters.size() > 1) {
    for (double jitter : s.jitters) {
      pairs.emplace_back(s.actual_sigmas.front(), jitter);
    }
  }
  return pairs;
}

std::string percent_label(double fp) {
  if (fp == 0.0) return "DR@FP=0";
  std::ostringstream os;
  os << fp * 100.0;
  return "DR@" + os.str() + "%";
}

std::string dr_at_damage_label(double d) {
  return "DR@D=" + format_double(d, 0);
}

/// A threshold trained at the (1 - fp_budget) percentile of benign scores
/// (Section 5.5 with tau = 1 - FP), plus the FP rate it realizes on the
/// training samples.  The one trainer path of dr-sweep and density-sweep.
struct ThresholdFit {
  TrainingResult training;
  double realized_fp;  ///< FP of the trained threshold on the training set

  double threshold() const { return training.threshold; }
};

ThresholdFit fit_threshold(MetricKind metric,
                           const std::vector<double>& benign_scores,
                           double fp_budget) {
  LAD_REQUIRE_MSG(fp_budget > 0 && fp_budget < 1, "FP budget must be in (0,1)");
  ThresholdFit fit{train_threshold(metric, benign_scores, 1.0 - fp_budget),
                   0.0};
  fit.realized_fp = fraction_above(benign_scores, fit.training.threshold);
  return fit;
}

/// The per-density pipeline configuration of the Fig. 9 sweep: density m
/// with a seed decorrelated from the base seed.
PipelineConfig density_pipeline_config(const PipelineConfig& base, int m) {
  PipelineConfig cfg = base;
  cfg.deploy.nodes_per_group = m;
  // Decorrelate deployments across densities.
  cfg.seed = base.seed + static_cast<std::uint64_t>(m) * 0x9E37ull;
  return cfg;
}

/// The work items of the single-network kinds: the summary, then one item
/// per (attack, D) cell (ScenarioRunState::run_cells walks them).
long long trial_cells(const ScenarioSpec& spec) {
  return 1 + len(spec.attacks) * len(spec.damages);
}

/// The one deployed network the single-network kinds (correction, echo,
/// evolve, coop) run on.  It consumes the head of Rng(config.seed); `rng`
/// is left at the post-construction state, where their shared draws
/// continue.  The g(z) table (at config.gz_omega) and every per-trial
/// loop run on config.threads threads.
struct Deployed {
  explicit Deployed(const PipelineConfig& config)
      : dcfg(config.deploy),
        threads(resolve_threads(config.threads)),
        model(dcfg),
        gz({dcfg.radio_range, dcfg.sigma}, config.gz_omega, threads),
        // lad-lint: allow(rng-construct) -- historical root stream of the
        // shared network; re-keying would change every golden CSV.
        rng(config.seed),
        net(model, rng) {}
  Deployed(const Deployed&) = delete;
  Deployed& operator=(const Deployed&) = delete;

  /// One trial batch: each trial's in-field victim, its claimed location
  /// and its observation.
  struct Trials {
    std::vector<std::size_t> nodes;
    std::vector<Vec2> claims;
    ObservationBatch batch;
  };

  /// Draws `trials` in-field victims, each right before its claimed
  /// location (displaced by `d`, or the true position when d < 0), then
  /// observes them all in one batch.  Only then does it run
  /// `trial(draw, t)` for every trial on `threads` threads, each into its
  /// own slot, so no trial can move the rng call order the golden CSVs
  /// pin.  Returns the slots in trial order, for the caller to reduce.
  template <class Trial>
  auto run_trials(Rng& r, int trials, double d, const Trial& trial) const {
    using Slot = std::invoke_result_t<const Trial&, const Trials&, std::size_t>;
    // vector<bool> packs slots into shared words: neighbouring trials
    // writing their own slots would race.
    static_assert(!std::is_same_v<Slot, bool>, "use char slots, not bool");
    Trials draw;
    draw.nodes.resize(static_cast<std::size_t>(trials));
    draw.claims.resize(draw.nodes.size());
    for (std::size_t t = 0; t < draw.nodes.size(); ++t) {
      std::size_t node;
      do {
        node = static_cast<std::size_t>(r.uniform_int(net.num_nodes()));
      } while (!dcfg.field().contains(net.position(node)));
      draw.nodes[t] = node;
      draw.claims[t] = d < 0 ? net.position(node)
                             : displaced_location(net.position(node), d,
                                                  dcfg.field(), r);
    }
    net.observe_many(draw.nodes, draw.batch);
    std::vector<Slot> slots(draw.nodes.size());
    parallel_for_items(
        slots.size(), [&](std::size_t t) { slots[t] = trial(draw, t); },
        threads);
    return slots;
  }

  /// Trial t's observation, tainted against its claim to minimize
  /// `metric` with x|a| compromised neighbours.  The budget truncates,
  /// where Pipeline::attack_batch rounds the same x|a| (std::lround); the
  /// single-network goldens pin the truncation, so the two stay apart.
  Observation tainted(const Trials& draw, std::size_t t, MetricKind metric,
                      AttackClass cls, double x) const {
    const Observation a = draw.batch.to_observation(t);
    return greedy_taint(a, model.expected_observation(draw.claims[t], gz),
                        dcfg.nodes_per_group, metric, cls,
                        static_cast<int>(x * a.total()))
        .tainted;
  }

  const DeploymentConfig& dcfg;
  /// config.threads, resolved (0 = default): the width of the g(z) build
  /// and of every run_trials fan-out.
  const int threads;
  const DeploymentModel model;
  const GzTable gz;
  Rng rng;
  const Network net;
};

/// Deployed plus the LAD detector echo, evolve and coop check claims
/// with: `train_samples` benign samples drawn from the continuing root
/// stream, localized by the beaconless MLE, thresholded at tau.
struct TrainedDeployment : Deployed {
  explicit TrainedDeployment(const ScenarioSpec& spec)
      : Deployed(spec.pipeline),
        metric(spec.metrics.front()),
        threshold(train(spec.train_samples, spec.tau)),
        detector(model, gz, metric, threshold) {}

  const MetricKind metric;
  const double threshold;
  const Detector detector;

 private:
  double train(int samples, double tau) {
    const BeaconlessMleLocalizer localizer(model, gz);
    const std::unique_ptr<Metric> scorer = make_metric(metric);
    std::vector<std::size_t> nodes(static_cast<std::size_t>(samples));
    for (std::size_t& node : nodes) {
      node = static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
    }
    ObservationBatch batch;
    net.observe_many(nodes, batch);
    std::vector<double> scores(nodes.size());
    const auto score_sample = [&](std::size_t i) {
      const Observation obs = batch.to_observation(i);
      scores[i] = scorer->score(
          obs, model.expected_observation(localizer.estimate(obs), gz),
          dcfg.nodes_per_group);
    };
    parallel_for_items(nodes.size(), score_sample, threads);
    return train_threshold(metric, scores, tau).threshold;
  }
};

}  // namespace

struct ScenarioRunState {
  ScenarioSpec spec;

  // --- shared deterministic state (lazy; values never depend on which
  //     items run, only the spec).  Latched caches: concurrent work items
  //     (jobs > 1) wanting the same key build it exactly once, and the
  //     sequential run fills them in the exact historical order.
  LatchedCache<Pipeline> pipelines;
  // (pipeline key | localizer) -> the shared benign pass
  LatchedCache<BenignPass> benign;
  // dr-sweep per_group mode: per-(pipeline|localizer|metric) boundary-group
  // fits - invariant across the attack/x/damage axes, so trained once.
  LatchedCache<std::vector<GroupTrainingResult>> group_fits;

  /// One (pipeline, D) attack batch: every planned cell and their pass
  /// (score vectors and victim groups, never the observations or mu).
  struct AttackBatch {
    std::vector<AttackCell> cells;
    AttackPass pass;
  };
  /// One run's attack cells, per (pipeline, D) key: planned from the
  /// shard walk before any item runs, read-only while items run.
  struct AttackPlan {
    std::map<std::string, std::vector<AttackCell>> cells;
    LatchedCache<AttackBatch> batches;
  };
  /// Reset by every ScenarioRunner::run, so a batch never lacks a cell
  /// the current shard owns.
  std::unique_ptr<AttackPlan> attacks = std::make_unique<AttackPlan>();

  explicit ScenarioRunState(const ScenarioSpec& s) : spec(s) {}

  /// A result carrying the kind's declared tables (KindSpec::table_ids),
  /// one column list each, in order.
  ScenarioResult new_result(
      std::vector<std::vector<std::string>> columns) const {
    const std::vector<std::string> ids = kind_spec(spec.kind).table_ids(spec);
    LAD_REQUIRE_MSG(ids.size() == columns.size(),
                    experiment_kind_name(spec.kind)
                        << ": " << columns.size() << " column lists for "
                        << ids.size() << " tables");
    ScenarioResult result{spec.name, {}};
    for (std::size_t i = 0; i < ids.size(); ++i) {
      result.tables.push_back({ids[i], Table(std::move(columns[i])), {}});
    }
    return result;
  }

  /// True when `shard` owns no item at all - the caller returns its
  /// header-only tables without building any shared state.
  bool shard_is_empty(const ShardRange& shard) const {
    return static_cast<long long>(shard.index) >=
           kind_spec(spec.kind).num_items(spec);
  }

  PipelineConfig group_config(DeploymentShape shape, double actual_sigma,
                              double jitter) const {
    PipelineConfig cfg = spec.pipeline;
    cfg.shape = shape;
    cfg.actual_sigma = actual_sigma;
    cfg.deployment_jitter = jitter;
    return cfg;
  }

  static std::string config_key(const PipelineConfig& cfg) {
    std::ostringstream os;
    os << deployment_shape_name(cfg.shape) << "|m="
       << cfg.deploy.nodes_per_group << "|as=" << cfg.actual_sigma
       << "|j=" << cfg.deployment_jitter << "|seed=" << cfg.seed;
    return os.str();
  }

  Pipeline& pipeline_for(const PipelineConfig& cfg) {
    return pipelines.get(config_key(cfg),
                         [&] { return std::make_unique<Pipeline>(cfg); });
  }

  /// The pipeline at every axis's first value (the kinds that do not
  /// sweep the deployment).
  PipelineConfig base_config() const {
    return group_config(spec.shapes.front(), spec.actual_sigmas.front(),
                        spec.jitters.front());
  }
  Pipeline& base_pipeline() { return pipeline_for(base_config()); }

  /// The benign pass for every spec metric under one (pipeline, localizer);
  /// per-metric values are independent of which metrics share the pass.
  const BenignPass& benign_for(Pipeline& pipeline,
                               const std::string& localizer) {
    const std::string key =
        config_key(pipeline.config()) + "|" + localizer;
    return benign.get(key, [&] {
      const LocalizerFactory factory =
          localizer_factory_from_name(localizer, pipeline);
      return std::make_unique<BenignPass>(
          pipeline.benign_scores(factory, spec.metrics));
    });
  }

  /// Boundary-group threshold fits for the per_group mode; a deterministic
  /// function of (pipeline, localizer, metric) given the spec's fp_budget
  /// and floor, so cached under that key.
  const std::vector<GroupTrainingResult>& group_fit_for(
      Pipeline& pipeline, const std::string& localizer, MetricKind metric,
      double global_threshold) {
    const std::string key = config_key(pipeline.config()) + "|" + localizer +
                            "|" + metric_name(metric);
    return group_fits.get(key, [&] {
      const BenignPass& pass = benign_for(pipeline, localizer);
      GroupTrainingOptions options;
      options.groups = boundary_groups(pipeline.model());
      options.min_samples = static_cast<std::size_t>(spec.group_min_samples);
      return std::make_unique<std::vector<GroupTrainingResult>>(
          train_group_thresholds(metric, pass.scores.at(metric),
                                 pass.victim_groups, options,
                                 1.0 - spec.fp_budget, global_threshold));
    });
  }

  /// The attack batch key: the pipeline and D exactly.  Localizer and
  /// group mode stay out, because the attack pass reads neither.
  static std::string attack_key(const PipelineConfig& cfg, double d) {
    std::ostringstream os;
    os << config_key(cfg) << "|D=" << std::hexfloat << d;
    return os.str();
  }

  /// Adds `cell` (once) to the batch at (cfg, D).  Called before the
  /// scheduler runs, never from an item.
  void plan_attack(const PipelineConfig& cfg, double d,
                   const AttackCell& cell) {
    std::vector<AttackCell>& cells = attacks->cells[attack_key(cfg, d)];
    if (std::find(cells.begin(), cells.end(), cell) == cells.end()) {
      cells.push_back(cell);
    }
  }

  /// The (pipeline, D) batch of every planned cell, built on first use.
  const AttackBatch& attack_batch_for(Pipeline& pipeline, double d) {
    const std::string key = attack_key(pipeline.config(), d);
    return attacks->batches.get(key, [&] {
      const auto planned = attacks->cells.find(key);
      LAD_REQUIRE_MSG(planned != attacks->cells.end(),
                      "no attack cells planned at " << key);
      auto batch = std::make_unique<AttackBatch>();
      batch->cells = planned->second;
      batch->pass = pipeline.attack_batch(d, batch->cells);
      return batch;
    });
  }

  /// A planned cell's score vectors, one per scorer.
  const std::vector<std::vector<double>>& attack_for(Pipeline& pipeline,
                                                     double d,
                                                     const AttackCell& cell) {
    const AttackBatch& batch = attack_batch_for(pipeline, d);
    const auto it = std::find(batch.cells.begin(), batch.cells.end(), cell);
    LAD_REQUIRE_MSG(it != batch.cells.end(),
                    "attack cell not planned at D=" << d);
    return batch.pass
        .scores[static_cast<std::size_t>(it - batch.cells.begin())];
  }

  /// A grid cell's one attack cell: the taint minimizes the cell's metric,
  /// which alone scores it.
  static AttackCell attack_cell(const GridCell& c) {
    return {c.metric, c.attack, c.x, {c.metric}};
  }

  /// Starts a row of result table t that already carries the cell's dim
  /// prefix.
  using NewRow = std::function<Table&(std::size_t table)>;
  /// The pipeline a grid cell runs on.
  using CellConfig = std::function<PipelineConfig(const GridCell& cell)>;
  /// A grid kind's body: one work item's rows for its decoded cell, run on
  /// the cell's pipeline.
  using GridBody = std::function<void(const GridCell& cell, Pipeline& pipeline,
                                      const NewRow& new_row)>;

  /// The one shard walk of the grid kinds: result tables whose columns are
  /// the kind's dim columns followed by each table's own `tails`, and one
  /// work item per owned id running `body` on the decoded cell.  The walk
  /// first plans each owned cell's attack cell at its (pipeline, D).
  ScenarioResult run_grid(const ShardRange& shard,
                          const std::vector<std::vector<std::string>>& tails,
                          const CellConfig& config_of, const GridBody& body) {
    const KindSpec& kind = kind_spec(spec.kind);
    const std::vector<std::string> dims = kind.dim_columns(spec);
    std::vector<std::vector<std::string>> columns;
    for (const std::vector<std::string>& tail : tails) {
      columns.push_back(dims);
      columns.back().insert(columns.back().end(), tail.begin(), tail.end());
    }
    ScenarioResult result = new_result(std::move(columns));
    ItemScheduler sched(result, spec.jobs);
    kind.for_each_cell(spec, shard, [&](long long item, const GridCell& cell) {
      plan_attack(config_of(cell), cell.d, attack_cell(cell));
      sched.add(item, [this, &kind, &config_of, &body, cell](ItemSink& sink) {
        body(cell, pipeline_for(config_of(cell)),
             [&](std::size_t table) -> Table& {
               Table& row = sink.row(table);
               kind.add_dims(spec, cell, row);
               return row;
             });
      });
    });
    sched.run();
    return result;
  }

  /// A single-network kind's summary item, and its item for one
  /// (attack, D) cell; each draws from its item's own stream `rng`.
  using SummaryItem = std::function<void(Rng& rng, ItemSink& sink)>;
  using CellItem =
      std::function<void(Rng& rng, AttackClass cls, double d, ItemSink& sink)>;

  /// The one shard walk of the single-network kinds (trial_cells items):
  /// item 0 runs `summary`, items 1... run `cell` over spec.attacks x
  /// spec.damages, D fastest.  Each item's rng is Rng::stream(seed, item):
  /// keyed by item id, not by the (possibly fractional) damage value, so
  /// no two items share a stream, nor an item the network's root stream.
  void run_cells(const ShardRange& shard, ScenarioResult& result,
                 const SummaryItem& summary, const CellItem& cell) {
    const long long total = trial_cells(spec);
    const std::size_t damages = spec.damages.size();
    ItemScheduler sched(result, spec.jobs);
    for (long long item = shard.index; item < total; item += shard.count) {
      sched.add(item, [this, item, damages, &summary, &cell](ItemSink& sink) {
        Rng rng =
            Rng::stream(spec.pipeline.seed, static_cast<std::uint64_t>(item));
        if (item == 0) {
          summary(rng, sink);
        } else {
          const auto k = static_cast<std::size_t>(item - 1);
          cell(rng, spec.attacks[k / damages], spec.damages[k % damages],
               sink);
        }
      });
    }
    sched.run();
  }

  // --- per-kind execution (one per KindSpec row) ------------------------
  ScenarioResult run_roc(const ShardRange& shard);
  ScenarioResult run_dr(const ShardRange& shard);
  ScenarioResult run_density(const ShardRange& shard);
  ScenarioResult run_pdf(const ShardRange& shard);
  ScenarioResult run_gz(const ShardRange& shard);
  ScenarioResult run_correction(const ShardRange& shard);
  ScenarioResult run_echo(const ShardRange& shard);
  ScenarioResult run_fusion(const ShardRange& shard);
  ScenarioResult run_mmse(const ShardRange& shard);
  ScenarioResult run_threshold(const ShardRange& shard);
  ScenarioResult run_evolve(const ShardRange& shard);
  ScenarioResult run_coop(const ShardRange& shard);
};

// --- the kind sections --------------------------------------------------

namespace {

void parse_pdf(const KvConfig::Section& p, ScenarioSpec& spec) {
  spec.pdf_grid = get_positive_int(p, "grid", spec.pdf_grid);
  LAD_REQUIRE_MSG(spec.pdf_grid >= 2, "[pdf] grid must be >= 2");
}

void parse_gz(const KvConfig::Section& g, ScenarioSpec& spec) {
  spec.omegas = g.get_int_list("omegas", spec.omegas);
  LAD_REQUIRE_MSG(!spec.omegas.empty(), "sweep list 'omegas' is empty");
}

void parse_correction(const KvConfig::Section& c, ScenarioSpec& spec) {
  spec.trials = get_positive_int(c, "trials", spec.trials);
}

void parse_echo(const KvConfig::Section& e, ScenarioSpec& spec) {
  spec.trials = get_positive_int(e, "trials", spec.trials);
  spec.echo_grid_x = get_positive_int(e, "grid_x", spec.echo_grid_x);
  spec.echo_grid_y = get_positive_int(e, "grid_y", spec.echo_grid_y);
  spec.echo_range = e.get_double("range", spec.echo_range);
  spec.train_samples =
      get_positive_int(e, "train_samples", spec.train_samples);
}

void parse_mmse(const KvConfig::Section& m, ScenarioSpec& spec) {
  spec.lies = m.get_double_list("lies", spec.lies);
  require_non_empty(spec.lies.size(), "lies");
  spec.trials = get_positive_int(m, "trials", spec.trials);
  spec.dvhop_lies = m.get_double_list("dvhop_lies", spec.dvhop_lies);
  spec.dvhop_trials = get_positive_int(m, "dvhop_trials", spec.dvhop_trials);
}

void parse_threshold(const KvConfig::Section& t, ScenarioSpec& spec) {
  spec.taus = t.get_double_list("taus", spec.taus);
  spec.fudges = t.get_double_list("fudges", spec.fudges);
  LAD_REQUIRE_MSG(!spec.taus.empty() || !spec.fudges.empty(),
                  "threshold-sensitivity needs taus and/or fudges");
  for (double tau : spec.taus) {
    LAD_REQUIRE_MSG(tau > 0 && tau < 1, "[threshold] taus must be in (0,1)");
  }
}

void parse_evolve(const KvConfig::Section& e, ScenarioSpec& spec) {
  spec.trials = get_positive_int(e, "trials", spec.trials);
  spec.evolve_rounds = get_positive_int(e, "rounds", spec.evolve_rounds);
  spec.evolve_step = get_positive_int(e, "step", spec.evolve_step);
  const long long initial = e.get_int("initial", spec.evolve_initial);
  LAD_REQUIRE_MSG(initial >= 0,
                  "[evolve] initial must be >= 0, got " << initial);
  spec.evolve_initial = static_cast<int>(initial);
  spec.train_samples =
      get_positive_int(e, "train_samples", spec.train_samples);
}

void parse_coop(const KvConfig::Section& c, ScenarioSpec& spec) {
  spec.trials = get_positive_int(c, "trials", spec.trials);
  spec.coop_radius = c.get_double("radius", spec.coop_radius);
  LAD_REQUIRE_MSG(spec.coop_radius > 0, "[coop] radius must be > 0, got "
                                            << spec.coop_radius);
  spec.coop_majority = c.get_double("majority", spec.coop_majority);
  LAD_REQUIRE_MSG(spec.coop_majority > 0 && spec.coop_majority <= 1,
                  "[coop] majority must be in (0,1], got "
                      << spec.coop_majority);
  spec.train_samples =
      get_positive_int(c, "train_samples", spec.train_samples);
}

using Ids = std::vector<std::string>;

// --- the [sweep] lists --------------------------------------------------

GroupThresholdMode group_threshold_mode_from_name(const std::string& name) {
  const std::string n = to_lower(name);
  if (n == "global") return GroupThresholdMode::kGlobal;
  if (n == "per_group") return GroupThresholdMode::kPerGroup;
  LAD_REQUIRE_MSG(false, "unknown group-threshold mode '"
                             << name << "' (known: global, per_group)");
  return GroupThresholdMode::kGlobal;  // unreachable
}

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// Reads `spec.*List` from [sweep]: each value through `FromName`, or,
/// for a numeric list (FromName = nullptr), as a number in range.
template <auto List, auto FromName>
void read_list(const SweepList& list, const KvConfig::Section& s,
               ScenarioSpec& spec) {
  auto& values = spec.*List;
  using T = typename std::decay_t<decltype(values)>::value_type;
  values.clear();
  if constexpr (!std::is_null_pointer_v<decltype(FromName)>) {
    for (const std::string& name : s.get_string_list(list.key, {})) {
      values.push_back(FromName(name));
    }
  } else if constexpr (std::is_integral_v<T>) {
    for (long long v : s.get_int_list(list.key, {})) {
      list.require_in_range(static_cast<double>(v), "sweep");
      values.push_back(static_cast<T>(v));
    }
  } else {
    for (double v : s.get_double_list(list.key, {})) {
      list.require_in_range(v, "sweep");
      values.push_back(v);
    }
  }
}

/// Completes `row` as the list `spec.*List`, whose axis value i sets
/// `cell.*Field`.
template <auto List, auto Field, auto FromName = nullptr>
SweepList sweep_row(SweepList row) {
  row.read = read_list<List, FromName>;
  row.size = [](const ScenarioSpec& s) { return (s.*List).size(); };
  row.set = [](const ScenarioSpec& s, std::size_t i, GridCell& c) {
    c.*Field = (s.*List)[i];
  };
  if (!row.names.empty()) row.max_values = static_cast<int>(row.names.size());
  return row;
}

// --- the grid kinds' sweep axes -----------------------------------------

using detail::GridAxis;

/// Whether an axis's column appears always or only while it is swept.
enum Shown { kAlways, kWhenSwept };

/// The axis over [sweep] list `key`: value i sets the list's cell field.
GridAxis list_axis(const char* key, Shown shown) {
  const SweepList& list = sweep_list(key);
  return {list.bit, list.size, list.set, {{&list, shown == kAlways}}};
}

/// The (actual_sigma, jitter) pairs of mismatch_pairs: one axis in either
/// coupling, whose two columns are each gated on their own list.
GridAxis mismatch_axis() {
  return {kMultiActualSigmas | kMultiJitters,
          [](const ScenarioSpec& s) { return mismatch_pairs(s).size(); },
          [](const ScenarioSpec& s, std::size_t i, GridCell& c) {
            std::tie(c.actual_sigma, c.jitter) = mismatch_pairs(s)[i];
          },
          {{&sweep_list("actual_sigmas"), false},
           {&sweep_list("jitters"), false}}};
}

}  // namespace

// --- the tables ---------------------------------------------------------

const std::vector<SweepList>& sweep_lists() {
  using Spec = ScenarioSpec;
  // Row: key, bit, value names or valid [min, max] plus the fuzz domain
  // (lo, hi, decimals, max values), fuzz chance, dim column, printer.  A
  // list a kind requires (densities) is always generated (chance 1).
  static const std::vector<SweepList> lists = {
      sweep_row<&Spec::shapes, &GridCell::shape, deployment_shape_from_name>(
          {.key = "shapes", .bit = kMultiShapes,
           .names = {"grid", "hex", "random"}, .chance = 0.5,
           .column = "shape", .print = [](const GridCell& c, Table& t) {
             t.add(deployment_shape_name(c.shape));
           }}),
      sweep_row<&Spec::localizers, &GridCell::localizer,
                detail::known_localizer>(
          {.key = "localizers", .bit = kMultiLocalizers,
           .names = {"beaconless-mle", "weighted-centroid", "dv-hop",
                     "amorphous", "truth-noise:10"},
           .chance = 0.5, .column = "localizer",
           .print = [](const GridCell& c, Table& t) { t.add(c.localizer); }}),
      sweep_row<&Spec::actual_sigmas, &GridCell::actual_sigma>(
          {.key = "actual_sigmas", .bit = kMultiActualSigmas, .min = 0,
           .max = kUnbounded, .lo = 20, .hi = 80, .max_values = 3,
           .chance = 0.4, .column = "actual_sigma",
           .print = [](const GridCell& c, Table& t) {
             t.add(c.actual_sigma, 1);
           }}),
      sweep_row<&Spec::jitters, &GridCell::jitter>(
          {.key = "jitters", .bit = kMultiJitters, .min = 0, .max = kUnbounded,
           .lo = 0.5, .hi = 10, .decimals = 1, .max_values = 2, .chance = 0.4,
           .column = "jitter",
           .print = [](const GridCell& c, Table& t) { t.add(c.jitter, 1); }}),
      sweep_row<&Spec::metrics, &GridCell::metric, metric_from_name>(
          {.key = "metrics", .bit = kMultiMetrics,
           .names = {"diff", "add-all", "prob"}, .chance = 0.7,
           .column = "metric", .print = [](const GridCell& c, Table& t) {
             t.add(metric_name(c.metric));
           }}),
      sweep_row<&Spec::attacks, &GridCell::attack, attack_class_from_name>(
          {.key = "attacks", .bit = kMultiAttacks,
           .names = {"dec-bounded", "dec-only"}, .chance = 0.7,
           .column = "attack", .print = [](const GridCell& c, Table& t) {
             t.add(attack_class_name(c.attack));
           }}),
      sweep_row<&Spec::damages, &GridCell::d>(
          {.key = "damages", .bit = kMultiDamages, .min = 0, .max = kUnbounded,
           .lo = 40, .hi = 400, .max_values = 4, .chance = 0.8, .column = "D",
           .print = [](const GridCell& c, Table& t) { t.add(c.d, 0); }}),
      sweep_row<&Spec::compromised, &GridCell::x>(
          {.key = "compromised", .bit = kMultiCompromised, .min = 0, .max = 1,
           .lo = 0.05, .hi = 0.4, .decimals = 2, .max_values = 4,
           .chance = 0.7, .column = "x",
           .print = [](const GridCell& c, Table& t) { t.add(c.x, 2); }}),
      sweep_row<&Spec::densities, &GridCell::m>(
          {.key = "densities", .bit = kKeyDensities, .min = 1,
           .max = std::numeric_limits<int>::max(), .lo = 50, .hi = 400,
           .max_values = 3, .chance = 1.0, .column = "m",
           .print = [](const GridCell& c, Table& t) { t.add(c.m); }}),
      sweep_row<&Spec::group_threshold_modes, &GridCell::mode,
                group_threshold_mode_from_name>(
          {.key = "group_thresholds", .bit = kKeyGroupThresholds,
           .names = {"global", "per_group"}, .chance = 0.4,
           .column = "group_mode", .print = [](const GridCell& c, Table& t) {
             t.add(group_threshold_mode_name(c.mode));
           }}),
  };
  return lists;
}

const SweepList& sweep_list(const std::string& key) {
  for (const SweepList& list : sweep_lists()) {
    if (key == list.key) return list;
  }
  LAD_REQUIRE_MSG(false, "unknown [sweep] list '" << key << "'");
  return sweep_lists().front();  // unreachable
}

void SweepList::require_in_range(double v, const char* section) const {
  // 15 digits: an int bound such as densities' prints in full.
  LAD_REQUIRE_MSG(v >= min && v <= max,
                  std::setprecision(15)
                      << "[" << section << "] " << key << " must be in ["
                      << min << "," << max << "], got " << v);
}

const std::vector<KindSpec>& kind_table() {
  using S = ScenarioRunState;
  using Spec = ScenarioSpec;
  // Row: kind, name, own section, accepted, section parser, section keys
  // (fuzz domains: key, lo, hi, decimals, max values, chance), sweep axes
  // (grid kinds) or items (bespoke kinds), table ids, run.  The axis order
  // is the item order and the dim-column order the goldens pin: roc puts D
  // before x, dr-sweep and density-sweep x before D.
  static const std::vector<KindSpec> table = {
      {ExperimentKind::kRoc, "roc", "", 0, nullptr, {},
       {list_axis("metrics", kWhenSwept), list_axis("attacks", kWhenSwept),
        list_axis("damages", kAlways), list_axis("compromised", kWhenSwept)},
       nullptr,
       [](const Spec& s) {
         return s.curve_points > 0 ? Ids{"summary", "curves"}
                                   : Ids{"summary"};
       },
       &S::run_roc},
      {ExperimentKind::kDrSweep, "dr-sweep", "", 0, nullptr, {},
       {list_axis("group_thresholds", kWhenSwept), mismatch_axis(),
        list_axis("shapes", kWhenSwept), list_axis("localizers", kWhenSwept),
        list_axis("metrics", kWhenSwept), list_axis("attacks", kWhenSwept),
        list_axis("compromised", kAlways), list_axis("damages", kAlways)},
       nullptr, [](const Spec&) { return Ids{"dr"}; }, &S::run_dr},
      {ExperimentKind::kDensitySweep, "density-sweep", "", 0, nullptr, {},
       {list_axis("densities", kAlways), list_axis("metrics", kWhenSwept),
        list_axis("attacks", kWhenSwept), list_axis("compromised", kAlways),
        list_axis("damages", kAlways)},
       nullptr, [](const Spec&) { return Ids{"density"}; },
       &S::run_density},
      {ExperimentKind::kDeploymentPdf, "deployment-pdf", "pdf", 0, parse_pdf,
       {{"grid", 2, 12, 0, 1, 1.0}}, {},
       [](const Spec&) { return 2LL; },
       [](const Spec&) { return Ids{"surface", "radial"}; }, &S::run_pdf},
      {ExperimentKind::kGzAccuracy, "gz-accuracy", "gz", 0, parse_gz,
       {{"omegas", 8, 256, 0, 4, 1.0}}, {},
       [](const Spec& s) { return len(s.omegas); },
       [](const Spec&) { return Ids{"gz"}; }, &S::run_gz},
      {ExperimentKind::kCorrection, "correction", "correction",
       kMultiAttacks | kMultiDamages, parse_correction,
       {{"trials", 2, 40, 0, 1, 1.0}}, {}, trial_cells,
       [](const Spec&) { return Ids{"benign_floor", "correction"}; },
       &S::run_correction},
      {ExperimentKind::kEchoComparison, "echo-comparison", "echo",
       kMultiDamages, parse_echo,
       {{"trials", 2, 40, 0, 1, 0.7},
        {"grid_x", 2, 8, 0, 1, 0.5},
        {"grid_y", 2, 8, 0, 1, 0.5},
        {"range", 20, 120, 0, 1, 0.5},
        {"train_samples", 20, 200, 0, 1, 0.5}},
       {}, trial_cells, [](const Spec&) { return Ids{"meta", "echo"}; },
       &S::run_echo},
      {ExperimentKind::kMetricFusion, "metric-fusion", "",
       kMultiMetrics | kKeyBundle, nullptr, {}, {},
       [](const Spec& s) { return 1 + len(s.metrics); },
       [](const Spec&) { return Ids{"benign", "fusion"}; }, &S::run_fusion},
      {ExperimentKind::kMmseVulnerability, "mmse-vulnerability", "mmse", 0,
       parse_mmse,
       {{"lies", 0, 3200, 0, 4, 1.0},
        {"dvhop_lies", 0, 1600, 0, 3, 0.6},
        {"trials", 2, 40, 0, 1, 0.5},
        {"dvhop_trials", 2, 20, 0, 1, 0.5}},
       {}, [](const Spec& s) { return len(s.lies) + len(s.dvhop_lies); },
       [](const Spec&) { return Ids{"mmse", "dvhop"}; }, &S::run_mmse},
      {ExperimentKind::kThresholdSensitivity, "threshold-sensitivity",
       "threshold", kMultiDamages, parse_threshold,
       {{"taus", 0.9, 0.999, 3, 4, 0.8}, {"fudges", 0.5, 2.0, 2, 4, 0.5}},
       {}, [](const Spec& s) { return len(s.taus) + len(s.fudges); },
       [](const Spec&) { return Ids{"tau", "fudge"}; }, &S::run_threshold},
      {ExperimentKind::kTimeEvolving, "time-evolving", "evolve",
       kMultiAttacks | kMultiDamages, parse_evolve,
       {{"trials", 2, 40, 0, 1, 0.7},
        {"rounds", 1, 10, 0, 1, 0.7},
        {"step", 1, 8, 0, 1, 0.5},
        {"initial", 0, 6, 0, 1, 0.5},
        {"train_samples", 20, 200, 0, 1, 0.5}},
       {}, trial_cells, [](const Spec&) { return Ids{"meta", "evolve"}; },
       &S::run_evolve},
      {ExperimentKind::kInNetwork, "in-network", "coop", kMultiDamages,
       parse_coop,
       {{"trials", 2, 40, 0, 1, 0.7},
        {"radius", 40, 200, 0, 1, 0.5},
        {"majority", 0.2, 1.0, 2, 1, 0.5},
        {"train_samples", 20, 200, 0, 1, 0.5}},
       {}, trial_cells, [](const Spec&) { return Ids{"fp", "coop"}; },
       &S::run_coop},
  };
  return table;
}

const KindSpec& kind_spec(ExperimentKind kind) {
  for (const KindSpec& row : kind_table()) {
    if (row.kind == kind) return row;
  }
  LAD_REQUIRE_MSG(false, "invalid experiment kind");
  return kind_table().front();  // unreachable
}

const KindSpec& find_kind(const std::string& name) {
  const std::string n = to_lower(name);
  for (const KindSpec& row : kind_table()) {
    if (n == row.name) return row;
  }
  LAD_REQUIRE_MSG(false, "unknown experiment kind: '" << name << "'");
  return kind_table().front();  // unreachable
}

const char* experiment_kind_name(ExperimentKind kind) {
  return kind_spec(kind).name;
}

bool KindSpec::accepts(KindAccepts bit) const {
  unsigned all = accepted;
  for (const GridAxis& axis : axes) all |= axis.bits;
  return (all & bit) != 0;
}

long long KindSpec::num_items(const ScenarioSpec& spec) const {
  if (items != nullptr) return items(spec);
  long long n = 1;
  for (const GridAxis& axis : axes) {
    n *= static_cast<long long>(axis.size(spec));
  }
  return n;
}

std::vector<std::string> KindSpec::dim_columns(const ScenarioSpec& spec) const {
  std::vector<std::string> dims;
  for (const GridAxis& axis : axes) {
    for (const GridAxis::Column& column : axis.columns) {
      if (column.shown(spec)) dims.push_back(column.list->column);
    }
  }
  return dims;
}

void KindSpec::add_dims(const ScenarioSpec& spec, const GridCell& cell,
                        Table& row) const {
  for (const GridAxis& axis : axes) {
    for (const GridAxis::Column& column : axis.columns) {
      if (column.shown(spec)) column.list->print(cell, row);
    }
  }
}

void KindSpec::for_each_cell(
    const ScenarioSpec& spec, const ShardRange& shard,
    const std::function<void(long long item, const GridCell& cell)>& body)
    const {
  const long long total = num_items(spec);
  for (long long item = shard.index; item < total; item += shard.count) {
    // Mixed-radix decode, the last axis fastest.
    GridCell cell;
    long long rest = item;
    for (auto axis = axes.rbegin(); axis != axes.rend(); ++axis) {
      const auto n = static_cast<long long>(axis->size(spec));
      axis->set(spec, static_cast<std::size_t>(rest % n), cell);
      rest /= n;
    }
    body(item, cell);
  }
}

// --- ScenarioRunner -----------------------------------------------------

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec)
    : state_(std::make_unique<ScenarioRunState>(spec)) {}

ScenarioRunner::~ScenarioRunner() = default;

long long ScenarioRunner::num_items() const {
  return kind_spec(state_->spec.kind).num_items(state_->spec);
}

std::vector<std::string> ScenarioRunner::table_ids() const {
  return kind_spec(state_->spec.kind).table_ids(state_->spec);
}

bool ScenarioRunner::output_complete(const std::string& dir,
                                     const ShardRange& shard,
                                     std::string* reason) const {
  namespace fs = std::filesystem;
  const auto incomplete = [&](const std::string& why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  const long long total = num_items();
  std::set<long long> found;
  for (const std::string& id : table_ids()) {
    const fs::path path =
        fs::path(dir) / (state_->spec.name + "." + id + ".csv");
    std::ifstream is(path);
    if (!is) return incomplete("missing " + path.string());
    std::string line;
    if (!std::getline(is, line)) {
      return incomplete("empty file " + path.string());
    }
    while (std::getline(is, line)) {
      if (line.empty()) continue;
      const std::size_t comma = line.find(',');
      long long item = -1;
      try {
        item = parse_int(
            comma == std::string::npos ? line : line.substr(0, comma));
      } catch (const AssertionError&) {
        return incomplete("malformed row in " + path.string() + ": " + line);
      }
      if (item < 0 || item >= total || !shard.contains(item)) {
        return incomplete(path.string() + " holds rows for work item " +
                          std::to_string(item) +
                          ", which this shard does not own (different "
                          "--shard split?)");
      }
      found.insert(item);
    }
  }
  // Every work item emits at least one tagged row, so a shard is complete
  // exactly when every id it owns shows up somewhere - a header-only CSV
  // from a run killed after the header write therefore reads incomplete.
  for (long long i = shard.index; i < total;
       i += static_cast<long long>(shard.count)) {
    if (!found.count(i)) {
      return incomplete("no rows for work item " + std::to_string(i) +
                        " (run killed between header write and first "
                        "row?)");
    }
  }
  return true;
}

ScenarioResult ScenarioRunner::run(const ShardRange& shard) {
  LAD_REQUIRE_MSG(shard.count >= 1 && shard.index >= 0 &&
                      shard.index < shard.count,
                  "invalid shard range " << shard.index << "/" << shard.count);
  state_->attacks = std::make_unique<ScenarioRunState::AttackPlan>();
  return ((*state_).*kind_spec(state_->spec.kind).run)(shard);
}

// --- the run functions --------------------------------------------------

ScenarioResult ScenarioRunState::run_roc(const ShardRange& shard) {
  std::vector<std::string> summary_cols = {"AUC"};
  for (double fp : spec.fp_grid) summary_cols.push_back(percent_label(fp));
  std::vector<std::vector<std::string>> tails = {summary_cols};
  if (spec.curve_points > 0) tails.push_back({"FP", "DR"});

  const auto config_of = [this](const GridCell&) { return base_config(); };
  return run_grid(shard, tails, config_of, [this](const GridCell& c,
                                                  Pipeline& pipeline,
                                                  const NewRow& new_row) {
    const std::vector<double>& benign_scores =
        benign_for(pipeline, spec.localizers.front()).scores.at(c.metric);
    const RocCurve curve(benign_scores,
                         attack_for(pipeline, c.d, attack_cell(c)).front());

    Table& row = new_row(0);
    row.add(curve.auc(), 4);
    for (double fp : spec.fp_grid) {
      row.add(curve.detection_rate_at_fp(fp), 4);
    }
    if (spec.curve_points > 0) {
      const auto& pts = curve.points();
      const std::size_t stride = std::max<std::size_t>(
          1, pts.size() / static_cast<std::size_t>(spec.curve_points));
      for (std::size_t i = 0; i < pts.size(); i += stride) {
        new_row(1)
            .add(pts[i].false_positive_rate, 5)
            .add(pts[i].detection_rate, 5);
      }
    }
  });
}

ScenarioResult ScenarioRunState::run_dr(const ShardRange& shard) {
  // The boundary/interior split columns appear whenever the per_group mode
  // is in play - the whole point of the sweep is comparing the edge
  // against the (byte-identical) interior.
  const bool split_groups =
      std::find(spec.group_threshold_modes.begin(),
                spec.group_threshold_modes.end(),
                GroupThresholdMode::kPerGroup) !=
      spec.group_threshold_modes.end();

  std::vector<std::string> cols = {"DR", "trained_FP", "threshold"};
  if (split_groups) {
    cols.insert(cols.end(),
                {"DR_interior", "DR_boundary", "FP_interior", "FP_boundary"});
  }
  if (spec.loc_error) cols.push_back("loc_error");

  // fraction of `scores` above its victim-group threshold, restricted to
  // samples whose group passes `keep` (empty selection -> 0).
  const auto rate_where = [](const std::vector<double>& scores,
                             const std::vector<int>& groups,
                             const std::vector<double>& thresholds,
                             const auto& keep) {
    std::size_t n = 0, above = 0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      const int g = groups[i];
      if (!keep(g)) continue;
      ++n;
      if (scores[i] > thresholds[static_cast<std::size_t>(g)]) ++above;
    }
    return n == 0 ? 0.0
                  : static_cast<double>(above) / static_cast<double>(n);
  };

  const auto config_of = [this](const GridCell& c) {
    return group_config(c.shape, c.actual_sigma, c.jitter);
  };
  return run_grid(shard, {cols}, config_of, [this, split_groups, &rate_where](
                                                const GridCell& c,
                                                Pipeline& pipeline,
                                                const NewRow& new_row) {
    const BenignPass& benign_pass = benign_for(pipeline, c.localizer);
    const std::vector<double>& benign_scores = benign_pass.scores.at(c.metric);
    const ThresholdFit fit =
        fit_threshold(c.metric, benign_scores, spec.fp_budget);
    const std::vector<double>& scores =
        attack_for(pipeline, c.d, attack_cell(c)).front();
    const std::vector<int>& attack_groups =
        attack_batch_for(pipeline, c.d).pass.victim_groups;

    // Per-group threshold vector: the pooled fit everywhere, boundary
    // groups re-fitted on their own benign buckets in per_group mode
    // (interior groups always keep the pooled value, which is what keeps
    // their verdicts byte-identical across modes).
    const std::size_t num_groups =
        static_cast<std::size_t>(pipeline.model().num_groups());
    std::vector<double> thresholds(num_groups, fit.threshold());
    std::vector<char> is_boundary(num_groups, 0);
    if (split_groups) {
      const std::vector<GroupTrainingResult>& fits =
          group_fit_for(pipeline, c.localizer, c.metric, fit.threshold());
      for (const GroupTrainingResult& r : fits) {
        is_boundary[static_cast<std::size_t>(r.group)] = 1;
        if (c.mode == GroupThresholdMode::kPerGroup) {
          thresholds[static_cast<std::size_t>(r.group)] = r.training.threshold;
        }
      }
    }

    Table& row = new_row(0);
    const auto dr = [&](const auto& keep) {
      return rate_where(scores, attack_groups, thresholds, keep);
    };
    const auto fp = [&](const auto& keep) {
      return rate_where(benign_scores, benign_pass.victim_groups, thresholds,
                        keep);
    };
    const auto all = [](int) { return true; };
    if (c.mode == GroupThresholdMode::kPerGroup) {
      row.add(dr(all), 4).add(fp(all), 4);
    } else {
      row.add(fraction_above(scores, fit.threshold()), 4)
          .add(fit.realized_fp, 4);
    }
    row.add(fit.threshold(), 2);
    if (split_groups) {
      const auto interior = [&](int g) {
        return is_boundary[static_cast<std::size_t>(g)] == 0;
      };
      const auto boundary = [&](int g) {
        return is_boundary[static_cast<std::size_t>(g)] != 0;
      };
      row.add(dr(interior), 4)
          .add(dr(boundary), 4)
          .add(fp(interior), 4)
          .add(fp(boundary), 4);
    }
    if (spec.loc_error) row.add(benign_pass.mean_localization_error, 2);
  });
}

ScenarioResult ScenarioRunState::run_density(const ShardRange& shard) {
  // Each density re-deploys with its decorrelated per-m seed
  // (density_pipeline_config).
  const auto config_of = [this](const GridCell& c) {
    return density_pipeline_config(spec.pipeline, c.m);
  };
  return run_grid(
      shard, {{"DR", "mle_loc_error", "threshold"}}, config_of,
      [this](const GridCell& c, Pipeline& pipeline, const NewRow& new_row) {
        const BenignPass& benign_pass =
            benign_for(pipeline, spec.localizers.front());
        const ThresholdFit fit = fit_threshold(
            c.metric, benign_pass.scores.at(c.metric), spec.fp_budget);
        const std::vector<double>& scores =
            attack_for(pipeline, c.d, attack_cell(c)).front();
        new_row(0)
            .add(fraction_above(scores, fit.threshold()), 4)
            .add(benign_pass.mean_localization_error, 2)
            .add(fit.threshold(), 2);
      });
}

ScenarioResult ScenarioRunState::run_pdf(const ShardRange& shard) {
  ScenarioResult result =
      new_result({{"x", "y", "pdf"},
                  {"distance_from_deployment_point", "pdf",
                   "fraction_within_distance"}});

  const double sigma = spec.pipeline.deploy.sigma;
  const Vec2 dp{150.0, 150.0};  // the paper's Figure 2 group

  ItemScheduler sched(result, spec.jobs);
  if (shard.contains(0)) {
    sched.add(0, [this, sigma, dp](ItemSink& sink) {
      const int grid = spec.pdf_grid;
      for (int i = 0; i < grid; ++i) {
        for (int j = 0; j < grid; ++j) {
          const Vec2 p{300.0 * i / (grid - 1), 300.0 * j / (grid - 1)};
          sink.row(0)
              .add(p.x, 1)
              .add(p.y, 1)
              .add(gaussian2d_pdf_radial(distance(p, dp), sigma), 9);
        }
      }
    });
  }
  if (shard.contains(1)) {
    sched.add(1, [sigma](ItemSink& sink) {
      for (double r = 0.0; r <= 250.0; r += 25.0) {
        sink.row(1)
            .add(r, 0)
            .add(gaussian2d_pdf_radial(r, sigma), 9)
            .add(rayleigh_cdf(r, sigma), 6);
      }
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunState::run_gz(const ShardRange& shard) {
  ScenarioResult result = new_result(
      {{"omega", "max_abs_error", "max_mu_error_nodes", "table_bytes"}});
  const GzParams params{spec.pipeline.deploy.radio_range,
                        spec.pipeline.deploy.sigma};
  const int m = spec.pipeline.deploy.nodes_per_group;
  const int threads = resolve_threads(spec.pipeline.threads);
  ItemScheduler sched(result, spec.jobs);
  for (std::size_t i = 0; i < spec.omegas.size(); ++i) {
    const long long item = static_cast<long long>(i);
    if (!shard.contains(item)) continue;
    const int omega = static_cast<int>(spec.omegas[i]);
    sched.add(item, [params, m, omega, threads](ItemSink& sink) {
      const GzTable table(params, omega, threads);
      const double err = table.max_abs_error(2000, threads);
      sink.row(0)
          .add(omega)
          .add(err, 8)
          .add(err * m, 5)
          .add(static_cast<long long>((omega + 1) * sizeof(double)));
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunState::run_correction(const ShardRange& shard) {
  ScenarioResult result =
      new_result({{"mean_err", "max_err", "trials"},
                  {"attack", "D", "err_accepting_Le", "err_corrected_mean",
                   "err_corrected_p90", "recovered_frac"}});
  if (shard_is_empty(shard)) return result;

  const double x = spec.compromised.front();
  const MetricKind target = spec.metrics.front();
  const int trials = spec.trials;

  const Deployed dep(spec.pipeline);
  const LocationCorrector corrector(dep.model, dep.gz);
  // Trial t's distance from its victim's true position after correcting
  // the observation `obs`.
  const auto error = [&](const Deployed::Trials& draw, std::size_t t,
                         const Observation& obs) {
    return distance(corrector.correct(obs).corrected,
                    dep.net.position(draw.nodes[t]));
  };

  run_cells(
      shard, result,
      [&](Rng&, ItemSink& sink) {
        // The benign floor continues the network's root stream from its
        // post-construction state instead of its item stream.
        Rng floor_rng = dep.rng;
        RunningStats floor;
        for (double e : dep.run_trials(
                 floor_rng, trials, -1.0,
                 [&](const Deployed::Trials& draw, std::size_t t) {
                   return error(draw, t, draw.batch.to_observation(t));
                 })) {
          floor.add(e);
        }
        sink.row(0).add(floor.mean(), 1).add(floor.max(), 1).add(trials);
      },
      [&](Rng& rng, AttackClass cls, double d, ItemSink& sink) {
        std::vector<double> errs = dep.run_trials(
            rng, trials, d, [&](const Deployed::Trials& draw, std::size_t t) {
              return error(draw, t, dep.tainted(draw, t, target, cls, x));
            });
        double mean = 0.0;
        int recovered = 0;
        for (double e : errs) {
          mean += e;
          if (e < d / 2.0) ++recovered;  // "recovered": below half the damage
        }
        mean /= static_cast<double>(errs.size());
        std::sort(errs.begin(), errs.end());
        const double p90 =
            errs[static_cast<std::size_t>(
                0.9 * static_cast<double>(errs.size() - 1))];
        sink.row(1)
            .add(attack_class_name(cls))
            .add(d, 0)
            .add(d, 0)
            .add(mean, 1)
            .add(p90, 1)
            .add(static_cast<double>(recovered) / trials, 3);
      });
  return result;
}

ScenarioResult ScenarioRunState::run_echo(const ShardRange& shard) {
  ScenarioResult result =
      new_result({{"echo_coverage", "lad_threshold"},
                  {"D", "echo_rejected", "echo_accepted", "echo_uncovered",
                   "echo_DR", "lad_DR"}});
  if (shard_is_empty(shard)) return result;

  const double x = spec.compromised.front();
  const TrainedDeployment dep(spec);
  const EchoProtocol echo = EchoProtocol::grid(
      dep.dcfg.field(), spec.echo_grid_x, spec.echo_grid_y, spec.echo_range);

  run_cells(
      shard, result,
      [&](Rng&, ItemSink& sink) {
        sink.row(0)
            .add(echo.coverage(dep.dcfg.field()), 3)
            .add(dep.threshold, 2);
      },
      [&](Rng& rng, AttackClass cls, double d, ItemSink& sink) {
        struct Trial {
          int verdict;  ///< echo: 1 accepted, 0 uncovered, -1 rejected
          bool lad_detected;
        };
        const std::vector<Trial> out = dep.run_trials(
            rng, spec.trials, d,
            [&](const Deployed::Trials& draw, std::size_t t) {
              const Vec2 la = dep.net.position(draw.nodes[t]);
              const Vec2 claimed = draw.claims[t];
              // The attacker may stretch the echo (delay >= 0) but never
              // shrink it; testing the honest echo plus one large delay
              // covers the attacker's whole strategy space.
              int verdict = echo.verify(claimed, la, 0.0);
              if (verdict == -1) {
                verdict = echo.verify(claimed, la, 10.0) == 1 ? 1 : -1;
              }
              const Observation o = dep.tainted(draw, t, dep.metric, cls, x);
              return Trial{verdict, dep.detector.check(o, claimed).anomaly};
            });
        int rejected = 0, accepted = 0, uncovered = 0, lad_detected = 0;
        for (const Trial& trial : out) {
          if (trial.verdict == 0) ++uncovered;
          else if (trial.verdict == 1) ++accepted;
          else ++rejected;
          if (trial.lad_detected) ++lad_detected;
        }
        sink.row(1)
            .add(d, 0)
            .add(rejected)
            .add(accepted)
            .add(uncovered)
            .add(static_cast<double>(rejected) / spec.trials, 3)
            .add(static_cast<double>(lad_detected) / spec.trials, 3);
      });
  return result;
}

ScenarioResult ScenarioRunState::run_fusion(const ShardRange& shard) {
  std::vector<std::string> cols = {"attacker_targets"};
  for (MetricKind k : spec.metrics) {
    cols.push_back(std::string("DR_") + metric_name(k));
  }
  cols.push_back("DR_fusion");

  ScenarioResult result = new_result({{"fused_FP", "tau"}, cols});
  if (shard_is_empty(shard)) return result;

  Pipeline& pipeline = base_pipeline();
  const auto& benign_scores =
      benign_for(pipeline, spec.localizers.front()).scores;

  // Thresholds always travel through a DetectorBundle - the unit the CLI
  // ships to sensors - either loaded from the spec's saved artifact
  // ([detector] bundle = path) or captured in memory from the same
  // training the historical inline path ran.  Either way the ablation
  // exercises the deployment surface, not a parallel code path.
  DetectorBundle bundle;
  if (!spec.bundle.empty()) {
    bundle = load_bundle_file(spec.bundle);
    // The artifact's thresholds are only meaningful against the score
    // distribution of the deployment they were trained on; a mismatched
    // bundle would silently skew every FP/DR column (fail-fast contract).
    LAD_REQUIRE_MSG(
        bundle.config == pipeline.model().config() &&
            bundle.deployment_points == pipeline.model().deployment_points() &&
            bundle.gz_omega == pipeline.config().gz_omega,
        "bundle '" << spec.bundle
                   << "' was trained on a different deployment than this "
                      "scenario's [pipeline]");
  } else {
    std::vector<DetectorSpec> sections;
    sections.reserve(spec.metrics.size());
    for (MetricKind k : spec.metrics) {
      sections.push_back(detector_spec_from_training(
          {train_threshold(k, benign_scores.at(k), spec.tau)}, spec.tau));
    }
    bundle =
        make_bundle(pipeline.model(), pipeline.config().gz_omega,
                    std::move(sections));
  }
  std::map<MetricKind, double> thresholds;
  for (MetricKind k : spec.metrics) {
    const DetectorSpec* section = find_detector(bundle, k);
    LAD_REQUIRE_MSG(section != nullptr,
                    "bundle '" << spec.bundle
                               << "' has no [detector] section for metric '"
                               << metric_name(k) << "'");
    thresholds[k] = section->threshold;
  }
  const double d = spec.damages.front();
  const double x = spec.compromised.front();

  ItemScheduler sched(result, spec.jobs);
  if (shard.contains(0)) {
    sched.add(0, [this, &benign_scores, &thresholds](ItemSink& sink) {
      const std::size_t n = benign_scores.begin()->second.size();
      int fused_fp = 0;
      for (std::size_t i = 0; i < n; ++i) {
        bool any = false;
        for (MetricKind k : spec.metrics) {
          if (benign_scores.at(k)[i] > thresholds.at(k)) any = true;
        }
        if (any) ++fused_fp;
      }
      sink.row(0)
          .add(static_cast<double>(fused_fp) / static_cast<double>(n), 4)
          .add(spec.tau, 3);
    });
  }

  // One attack batch at (base pipeline, D): each owned item's target
  // metric is a cell, scored by every spec metric.
  long long item = 0;
  for (MetricKind target : spec.metrics) {
    ++item;
    if (!shard.contains(item)) continue;
    const AttackCell cell{target, spec.attacks.front(), x, spec.metrics};
    plan_attack(pipeline.config(), d, cell);
    sched.add(item, [this, target, cell, d, &pipeline,
                     &thresholds](ItemSink& sink) {
      const std::vector<std::vector<double>>& cross =
          attack_for(pipeline, d, cell);

      Table& row = sink.row(1).add(metric_name(target));
      std::vector<char> fused_hit(cross.front().size(), 0);
      for (std::size_t si = 0; si < spec.metrics.size(); ++si) {
        const MetricKind scorer = spec.metrics[si];
        const std::vector<double>& scores = cross[si];
        row.add(fraction_above(scores, thresholds.at(scorer)), 4);
        for (std::size_t i = 0; i < scores.size(); ++i) {
          if (scores[i] > thresholds.at(scorer)) fused_hit[i] = 1;
        }
      }
      int hits = 0;
      for (char h : fused_hit) hits += h;
      row.add(
          static_cast<double>(hits) / static_cast<double>(fused_hit.size()),
          4);
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunState::run_mmse(const ShardRange& shard) {
  ScenarioResult result = new_result({{"lie_m", "mmse_mean_err", "mmse_max_err"},
                                      {"lie_m", "dvhop_mean_err"}});

  const std::uint64_t seed = spec.pipeline.seed;

  ItemScheduler sched(result, spec.jobs);
  long long item = -1;
  for (double lie : spec.lies) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [this, item, lie, seed](ItemSink& sink) {
      // Per-item keyed stream: shard placement cannot perturb the draws.
      Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(item));
      RunningStats err;
      for (int trial = 0; trial < spec.trials; ++trial) {
        const Vec2 truth{rng.uniform(100, 900), rng.uniform(100, 900)};
        std::vector<Vec2> refs = {
            {100, 100}, {900, 100}, {100, 900}, {900, 900}};
        std::vector<double> dists;
        for (const Vec2& r : refs) dists.push_back(distance(truth, r));
        const double theta = rng.uniform(0.0, 2 * M_PI);
        refs[0] = polar_offset(refs[0], lie, theta);
        const auto res = mmse_multilaterate(refs, dists);
        if (res) err.add(distance(res->position, truth));
      }
      sink.row(0).add(lie, 0).add(err.mean(), 2).add(err.max(), 2);
    });
  }

  // DV-Hop end-to-end on one deployed network (deterministic shared state).
  const DeploymentModel model(spec.pipeline.deploy);
  // lad-lint: allow(rng-construct) -- historical seed+1 stream of the
  // shared DV-Hop network; re-keying would change the golden CSV.
  Rng net_rng(seed + 1);
  const Network net(model, net_rng);
  for (double lie : spec.dvhop_lies) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [this, lie, seed, &net](ItemSink& sink) {
      // Each item owns its DvHopLocalizer (prepare/compromise mutate it)
      // and re-rolls the same victim picks from seed + 2, exactly like the
      // historical per-lie loop.
      DvHopLocalizer dvhop(3, 3);
      dvhop.prepare(net);
      if (lie > 0) {
        dvhop.compromise_anchor(0, polar_offset({167, 167}, lie, 0.7));
      }
      RunningStats err;
      // lad-lint: allow(rng-construct) -- historical per-lie victim
      // stream (seed + 2); re-keying would change the golden CSV.
      Rng pick(seed + 2);
      for (int trial = 0; trial < spec.dvhop_trials; ++trial) {
        const std::size_t node =
            static_cast<std::size_t>(pick.uniform_int(net.num_nodes()));
        err.add(distance(dvhop.localize(net, node), net.position(node)));
      }
      sink.row(1).add(lie, 0).add(err.mean(), 2);
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunState::run_threshold(const ShardRange& shard) {
  std::vector<std::string> cols = {"threshold", "FP"};
  for (double d : spec.damages) cols.push_back(dr_at_damage_label(d));
  std::vector<std::string> tau_cols = {"tau"};
  tau_cols.insert(tau_cols.end(), cols.begin(), cols.end());
  std::vector<std::string> fudge_cols = {"fudge"};
  fudge_cols.insert(fudge_cols.end(), cols.begin(), cols.end());

  ScenarioResult result = new_result({tau_cols, fudge_cols});
  if (shard_is_empty(shard)) return result;

  Pipeline& pipeline = base_pipeline();
  const MetricKind metric = spec.metrics.front();
  const std::vector<double>& benign_scores =
      benign_for(pipeline, spec.localizers.front()).scores.at(metric);

  // Every item reads the one attack cell at every D.
  const AttackCell cell{metric, spec.attacks.front(), spec.compromised.front(),
                        {metric}};
  for (double d : spec.damages) plan_attack(pipeline.config(), d, cell);
  auto emit = [&](Table& row, double threshold) {
    row.add(threshold, 2).add(fraction_above(benign_scores, threshold), 4);
    for (double d : spec.damages) {
      row.add(fraction_above(attack_for(pipeline, d, cell).front(), threshold),
              4);
    }
  };

  ItemScheduler sched(result, spec.jobs);
  long long item = -1;
  for (double tau : spec.taus) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [tau, metric, &benign_scores, &emit](ItemSink& sink) {
      const TrainingResult r = train_threshold(metric, benign_scores, tau);
      emit(sink.row(0).add(tau, 3), r.threshold);
    });
  }
  const double base =
      spec.fudges.empty()
          ? 0.0
          : train_threshold(metric, benign_scores, spec.tau).threshold;
  for (double fudge : spec.fudges) {
    ++item;
    if (!shard.contains(item)) continue;
    sched.add(item, [fudge, base, &emit](ItemSink& sink) {
      emit(sink.row(1).add(fudge, 2), base * fudge);
    });
  }
  sched.run();
  return result;
}

ScenarioResult ScenarioRunState::run_evolve(const ShardRange& shard) {
  ScenarioResult result =
      new_result({{"lad_threshold", "rounds", "trials"},
                  {"attack", "D", "round", "corrupted", "DR"}});
  if (shard_is_empty(shard)) return result;

  // The threshold stays fixed across rounds - only the attacker evolves.
  const TrainedDeployment dep(spec);

  run_cells(
      shard, result,
      [&](Rng&, ItemSink& sink) {
        sink.row(0)
            .add(dep.threshold, 2)
            .add(spec.evolve_rounds)
            .add(spec.trials);
      },
      [&](Rng& rng, AttackClass cls, double d, ItemSink& sink) {
        // Round r: the same victims re-assert the same claim, but the
        // attacker has corrupted `initial + r * step` beacons by now.  The
        // budgets ascend, so one greedy walk per trial visits every
        // round's taint (round r+1's taint extends round r's).
        const auto rounds = static_cast<std::size_t>(spec.evolve_rounds);
        std::vector<int> corrupted(rounds);
        for (std::size_t round = 0; round < rounds; ++round) {
          corrupted[round] =
              spec.evolve_initial + static_cast<int>(round) * spec.evolve_step;
        }
        // Each trial's verdict at every round.
        const std::vector<std::vector<char>> anomaly = dep.run_trials(
            rng, spec.trials, d,
            [&](const Deployed::Trials& draw, std::size_t t) {
              std::vector<char> verdicts(rounds, 0);
              greedy_taint_ladder(
                  draw.batch.to_observation(t),
                  dep.model.expected_observation(draw.claims[t], dep.gz),
                  dep.dcfg.nodes_per_group, dep.metric, cls, corrupted,
                  [&](std::size_t round, const Observation& tainted, int) {
                    verdicts[round] =
                        dep.detector.check(tainted, draw.claims[t]).anomaly;
                  });
              return verdicts;
            });
        std::vector<int> detected(rounds, 0);
        for (const std::vector<char>& verdicts : anomaly) {
          for (std::size_t round = 0; round < rounds; ++round) {
            detected[round] += verdicts[round];
          }
        }
        for (std::size_t round = 0; round < rounds; ++round) {
          sink.row(1)
              .add(attack_class_name(cls))
              .add(d, 0)
              .add(static_cast<int>(round))
              .add(corrupted[round])
              .add(static_cast<double>(detected[round]) / spec.trials, 3);
        }
      });
  return result;
}

ScenarioResult ScenarioRunState::run_coop(const ShardRange& shard) {
  ScenarioResult result =
      new_result({{"solo_FP", "node_FP", "coop_FP", "mean_voters"},
                  {"D", "solo_DR", "node_DR", "coop_DR", "mean_voters"}});
  if (shard_is_empty(shard)) return result;

  const AttackClass cls = spec.attacks.front();
  const double x = spec.compromised.front();
  const TrainedDeployment dep(spec);

  // One trial batch per item, benign (the summary) or attacked: draw the
  // victims, observe, then vote.  `d < 0` means benign (claim = truth,
  // untainted observation).  Nodes within coop_radius of the CLAIMED
  // location vote, but only those with radio standing: a node expects to
  // hear the claimer when the claim is within the claimer's tx range
  // (receiver-perspective unit disk, deploy/network.h), and actually
  // hears it when the true position is.  Expectation != reality is an
  // anomalous vote; a node with neither (outside both disks) has no
  // evidence and abstains.  An honest claim makes the two disks coincide,
  // so the vote-level FP rate is exactly zero by construction, while a
  // displaced claim leaves both disks' occupants testifying against it.
  const auto vote = [&](Rng& rng, double d, Table& row) {
    const Network& net = dep.net;
    struct Trial {
      bool solo;           ///< the LAD detector flags the claim
      long long standing;  ///< voters with radio evidence
      long long bad;       ///< of those, anomalous votes
    };
    const std::vector<Trial> out = dep.run_trials(
        rng, spec.trials, d, [&](const Deployed::Trials& draw, std::size_t t) {
          const std::size_t node = draw.nodes[t];
          const Vec2 claim = draw.claims[t];
          Trial trial{};
          trial.solo =
              dep.detector
                  .check(d < 0 ? draw.batch.to_observation(t)
                               : dep.tainted(draw, t, dep.metric, cls, x),
                         claim)
                  .anomaly;
          const std::vector<std::size_t> nearby =
              net.nodes_within(claim, spec.coop_radius, node);
          for (std::size_t v : nearby) {
            const double range = net.tx_range(node);
            const bool expected = distance(net.position(v), claim) <= range;
            const bool actual =
                distance(net.position(v), net.position(node)) <= range;
            if (!expected && !actual) continue;  // no evidence either way
            ++trial.standing;
            if (expected != actual) ++trial.bad;
          }
          return trial;
        });

    int solo = 0, coop = 0;
    long long votes = 0, anomalous_votes = 0;
    for (const Trial& trial : out) {
      if (trial.solo) ++solo;
      votes += trial.standing;
      anomalous_votes += trial.bad;
      if (trial.standing > 0 &&
          static_cast<double>(trial.bad) >=
              spec.coop_majority * static_cast<double>(trial.standing)) {
        ++coop;
      }
    }
    const double trials = static_cast<double>(spec.trials);
    if (d >= 0) row.add(d, 0);
    row.add(solo / trials, 3)
        .add(votes == 0 ? 0.0
                        : static_cast<double>(anomalous_votes) /
                              static_cast<double>(votes),
             3)
        .add(coop / trials, 3)
        .add(static_cast<double>(votes) / trials, 1);
  };

  run_cells(
      shard, result,
      [&](Rng& rng, ItemSink& sink) { vote(rng, -1.0, sink.row(0)); },
      [&](Rng& rng, AttackClass, double d, ItemSink& sink) {
        vote(rng, d, sink.row(1));
      });
  return result;
}

}  // namespace lad
