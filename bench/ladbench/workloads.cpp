#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

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
#include "geom/aabb.h"
#include "geom/vec2.h"
#include "loc/beaconless_mle.h"
#include "loc/truth_noise.h"
#include "measure.h"
#include "rng/rng.h"
#include "sim/parallel.h"
#include "sim/pipeline.h"
#include "sim/scenario.h"
#include "trace.h"
#include "util/assert.h"
#include "util/csv.h"

namespace lad::bench {
namespace {

// Sub-stream keys for the benchmark's own draws (traced replays, operation
// inputs, the detect stream); distinct from each other so no two draw
// sequences alias.
constexpr std::uint64_t kStreamNetworks = 0x424e4554ull;  // "BNET"
constexpr std::uint64_t kStreamBenign = 0x4242454eull;    // "BBEN"
constexpr std::uint64_t kStreamAttack = 0x42415454ull;    // "BATT"
constexpr std::uint64_t kStreamOps = 0x424f5053ull;       // "BOPS"
constexpr std::uint64_t kStreamClaims = 0x42434c4dull;    // "BCLM"

/// A ScenarioSpec with every sweep axis at its single default; callers
/// fill in the axes their workload sweeps.
ScenarioSpec base_spec(const std::string& name, ExperimentKind kind,
                       std::uint64_t seed, int networks, int victims) {
  ScenarioSpec spec;
  spec.name = name;
  spec.kind = kind;
  spec.pipeline.networks = networks;
  spec.pipeline.victims_per_network = victims;
  spec.pipeline.seed = seed;
  spec.shapes = {DeploymentShape::kGrid};
  spec.actual_sigmas = {0.0};
  spec.jitters = {0.0};
  spec.jobs = 1;
  return spec;
}

/// Digest of every table's CSV bytes and row item tags.
std::uint64_t digest_of(const ScenarioResult& result) {
  Digest d;
  for (const ResultTable& t : result.tables) {
    std::ostringstream os;
    t.table.print_csv(os);
    d.add(t.id);
    d.add(os.str());
    for (const long long item : t.row_items) d.add_value(item);
  }
  return d.value();
}

/// Column index of `name` in `table`; throws when absent.
std::size_t column(const Table& table, const std::string& name) {
  const auto& cols = table.columns();
  const auto it = std::find(cols.begin(), cols.end(), name);
  LAD_REQUIRE_MSG(it != cols.end(), "result table has no column " << name);
  return static_cast<std::size_t>(it - cols.begin());
}

/// The first table with id `id`; throws when absent.
const Table& table_of(const ScenarioResult& result, const std::string& id) {
  for (const ResultTable& t : result.tables) {
    if (t.id == id) return t.table;
  }
  LAD_REQUIRE_MSG(false, "scenario result has no table " << id);
  return result.tables.front().table;  // unreachable
}

/// A uniformly drawn node that sits inside the deployment field (the
/// Pipeline's victims_in_field_only rule).
std::size_t draw_in_field(const Network& net, Rng& rng) {
  const Aabb field = net.model().config().field();
  std::size_t node = 0;
  do {
    node = static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
  } while (!field.contains(net.position(node)));
  return node;
}

// --- traced steps --------------------------------------------------------
// One library call each, wrapped in a span named after its layer.  With a
// disabled tracer they are plain calls, which the operation loops time.

struct Deployment {
  std::unique_ptr<DeploymentModel> model;
  std::unique_ptr<GzTable> gz;
  std::vector<std::unique_ptr<Network>> networks;
  int m = 0;
};

Deployment build_deployment(Tracer& tr, const DeploymentConfig& cfg,
                            int gz_omega, std::uint64_t seed, int networks) {
  Deployment d;
  d.m = cfg.nodes_per_group;
  d.model = traced(tr, "deploy.build",
                   [&] { return std::make_unique<DeploymentModel>(cfg); });
  d.gz = traced(tr, "deploy.build", [&] {
    return std::make_unique<GzTable>(GzParams{cfg.radio_range, cfg.sigma},
                                     gz_omega);
  });
  tr.add("deploy.gz_builds", 1);
  for (int i = 0; i < networks; ++i) {
    Rng rng = Rng::stream(seed ^ kStreamNetworks, static_cast<std::uint64_t>(i));
    d.networks.push_back(traced(tr, "deploy.build", [&] {
      return std::make_unique<Network>(*d.model, rng);
    }));
    tr.add("deploy.network_builds", 1);
  }
  return d;
}

Observation observe_step(Tracer& tr, const Network& net, std::size_t node) {
  return traced(tr, "deploy.observe", [&] { return net.observe(node); });
}

ExpectedObservation expected_step(Tracer& tr, const Deployment& d, Vec2 le) {
  return traced(tr, "deploy.expected_obs",
                [&] { return d.model->expected_observation(le, *d.gz); });
}

double score_step(Tracer& tr, const Metric& metric, const Observation& o,
                  const ExpectedObservation& mu, int m) {
  return traced(tr, "core.score", [&] { return metric.score(o, mu, m); });
}

Vec2 displace_step(Tracer& tr, const Network& net, std::size_t node,
                   double damage, Rng& rng) {
  return traced(tr, "attack.displace", [&] {
    return displaced_location(net.position(node), damage,
                              net.model().config().field(), rng);
  });
}

TaintResult taint_step(Tracer& tr, const Observation& a,
                       const ExpectedObservation& mu, int m, MetricKind target,
                       AttackClass cls, int budget) {
  TaintResult taint = traced(tr, "attack.taint", [&] {
    return greedy_taint(a, mu, m, target, cls, budget);
  });
  tr.add("attack.budget", budget);
  tr.add("attack.spent", taint.budget_spent);
  return taint;
}

/// One attacked sample as Pipeline::attack_scores scores it: observe the
/// victim, craft the taint toward the planted location, score it.
double attack_sample(Tracer& tr, const Deployment& d, const Metric& metric,
                     AttackClass cls, double x, const Network& net,
                     std::size_t node, Vec2 le) {
  const Observation a = observe_step(tr, net, node);
  const ExpectedObservation mu = expected_step(tr, d, le);
  const int budget = static_cast<int>(std::lround(x * a.total()));
  const TaintResult taint =
      taint_step(tr, a, mu, d.m, metric.kind(), cls, budget);
  return score_step(tr, metric, taint.tainted, mu, d.m);
}

/// A localization scheme as (observation, network, node) -> estimate.
using Locate =
    std::function<Vec2(const Observation&, const Network&, std::size_t)>;

/// One benign sample as Pipeline::benign_scores scores it: observe the
/// victim, localize, score against the expected observation at the
/// estimate with every metric.
std::vector<double> benign_sample(
    Tracer& tr, const Deployment& d,
    const std::vector<std::unique_ptr<Metric>>& metrics, const Network& net,
    std::size_t node, const Locate& locate) {
  const Observation o = observe_step(tr, net, node);
  const Vec2 le = locate(o, net, node);
  const ExpectedObservation mu = expected_step(tr, d, le);
  std::vector<double> scores;
  for (const auto& metric : metrics) {
    scores.push_back(score_step(tr, *metric, o, mu, d.m));
  }
  return scores;
}

/// The ScenarioSpec localizer `name` as a Locate, with its calls traced on
/// `tr`: the beaconless MLE as loc.estimate, truth+noise as loc.localize.
/// The replay knows only these two schemes and throws for any other.
Locate make_locate(const std::string& name, const Deployment& d,
                   std::uint64_t seed, Tracer& tr) {
  if (name == "beaconless-mle") {
    auto mle = std::make_shared<BeaconlessMleLocalizer>(*d.model, *d.gz);
    return [mle, &tr](const Observation& o, const Network&, std::size_t) {
      return traced(tr, "loc.estimate", [&] { return mle->estimate(o); });
    };
  }
  const std::string prefix = "truth-noise:";
  LAD_REQUIRE_MSG(name.compare(0, prefix.size(), prefix) == 0,
                  "the traced replay has no localizer '" << name << "'");
  auto noise = std::make_shared<TruthNoiseLocalizer>(
      std::stod(name.substr(prefix.size())), seed);
  return [noise, &tr](const Observation&, const Network& net,
                      std::size_t node) {
    return traced(tr, "loc.localize", [&] { return noise->localize(net, node); });
  };
}

// --- dr-sweep workloads (train-mle, attack-grid) ---------------------------

class DrSweepWorkload : public Workload {
 public:
  DrSweepWorkload(ScenarioSpec spec, std::size_t ops_pool)
      : spec_(std::move(spec)), ops_pool_(ops_pool) {}

  long long samples() const override { return per_pass() * (1 + passes()); }
  const char* sample_unit() const override { return "samples"; }

  void setup(int threads) override {
    PipelineConfig cfg = spec_.pipeline;
    cfg.threads = threads;
    const Pipeline pipeline(cfg);
  }

  std::uint64_t run(int threads) override {
    ScenarioSpec spec = spec_;
    spec.pipeline.threads = threads;
    ScenarioRunner runner(spec);
    last_ = runner.run();
    return digest_of(last_);
  }

  void check_output(Checks& checks) const override {
    const Table& dr = table_of(last_, "dr");
    const std::size_t fp_col = column(dr, "trained_FP");
    bool fp_ok = true;
    for (std::size_t r = 0; r < dr.num_rows(); ++r) {
      fp_ok = fp_ok && std::stod(dr.cell(r, fp_col)) <= spec_.fp_budget;
    }
    checks.expect(fp_ok, "realized training FP exceeds fp_budget");
    checks.expect(static_cast<long long>(dr.num_rows()) == passes(),
                  "dr table row count differs from the sweep size");
  }

  void traced_run(Tracer& tr) override {
    Scope run_span(tr, "sim.run");
    const PipelineConfig& cfg = spec_.pipeline;
    const Deployment d = build_deployment(tr, cfg.deploy, cfg.gz_omega,
                                          cfg.seed, cfg.networks);
    const std::size_t k = static_cast<std::size_t>(cfg.victims_per_network);
    const std::vector<std::unique_ptr<Metric>> metrics = make_metrics();
    // The spec's one localizer; a second would show in check_trace as
    // dr rows the replay did not run.
    const std::string& localizer = spec_.localizers.front();

    // Benign pass: one localizer per network, scored by every metric.
    std::vector<std::vector<double>> benign(metrics.size());
    {
      Scope pass(tr, "sim.pass");
      for (std::size_t ni = 0; ni < d.networks.size(); ++ni) {
        const Network& net = *d.networks[ni];
        Rng rng = Rng::stream(cfg.seed ^ kStreamBenign, ni);
        const Locate locate = make_locate(localizer, d, rng.bits(), tr);
        for (std::size_t v = 0; v < k; ++v) {
          const std::vector<double> scores = benign_sample(
              tr, d, metrics, net, draw_in_field(net, rng), locate);
          for (std::size_t mi = 0; mi < metrics.size(); ++mi) {
            benign[mi].push_back(scores[mi]);
          }
        }
      }
    }
    for (std::size_t mi = 0; mi < metrics.size(); ++mi) {
      traced(tr, "core.train", [&] {
        return train_threshold(metrics[mi]->kind(), benign[mi],
                               1.0 - spec_.fp_budget);
      });
      for (const AttackClass cls : spec_.attacks) {
        for (const double x : spec_.compromised) {
          for (const double damage : spec_.damages) {
            Scope pass(tr, "sim.pass");
            for (std::size_t ni = 0; ni < d.networks.size(); ++ni) {
              const Network& net = *d.networks[ni];
              Rng rng = Rng::stream(cfg.seed ^ kStreamAttack, ni);
              for (std::size_t v = 0; v < k; ++v) {
                const std::size_t node = draw_in_field(net, rng);
                const Vec2 le = displace_step(tr, net, node, damage, rng);
                attack_sample(tr, d, *metrics[mi], cls, x, net, node, le);
              }
            }
          }
        }
      }
    }
  }

  void prepare_ops() override {
    Tracer off(false);
    const PipelineConfig& cfg = spec_.pipeline;
    ops_deployment_ = build_deployment(off, cfg.deploy, cfg.gz_omega, cfg.seed,
                                       cfg.networks);
    ops_.clear();
    for (std::size_t i = 0; i < ops_pool_; ++i) {
      const std::size_t ni = i % ops_deployment_.networks.size();
      const Network& net = *ops_deployment_.networks[ni];
      Rng rng = Rng::stream(cfg.seed ^ kStreamOps, i);
      const std::size_t node = draw_in_field(net, rng);
      ops_.push_back({ni, node,
                      displaced_location(net.position(node),
                                         spec_.damages.back(),
                                         net.model().config().field(), rng)});
    }
    ops_metrics_ = make_metrics();
    ops_locate_ = make_locate(spec_.localizers.front(), ops_deployment_,
                              cfg.seed, ops_tracer_);
  }
  std::size_t op_count() const override { return ops_pool_; }

  /// The replay's counts against the end-to-end run's result: one attack
  /// sample per dr row and network victim, and one MLE estimate per
  /// network victim when the spec localizes with the beaconless MLE.
  void check_trace(const Tracer& tr, Checks& checks) const override {
    const long long rows =
        static_cast<long long>(table_of(last_, "dr").num_rows());
    const long long taints = tr.calls("attack.taint");
    checks.expect(taints == rows * per_pass(),
                  "attack.taint_calls " + std::to_string(taints) +
                      " differs from dr rows x networks x victims " +
                      std::to_string(rows * per_pass()));
    const long long mle_passes =
        spec_.localizers.front() == "beaconless-mle" ? 1 : 0;
    const long long estimates = tr.calls("loc.estimate");
    checks.expect(estimates == mle_passes * per_pass(),
                  "loc.estimate_calls " + std::to_string(estimates) +
                      " differs from MLE passes x networks x victims " +
                      std::to_string(mle_passes * per_pass()));
  }

 protected:
  /// One operation's input: a victim of network `net` and a planted
  /// location at the sweep's largest D.
  struct OpInput {
    std::size_t net;
    std::size_t node;
    Vec2 le;
  };

  std::vector<std::unique_ptr<Metric>> make_metrics() const {
    std::vector<std::unique_ptr<Metric>> out;
    for (const MetricKind kind : spec_.metrics) out.push_back(make_metric(kind));
    return out;
  }

  /// Samples in one pass (benign or attack).
  long long per_pass() const {
    return static_cast<long long>(spec_.pipeline.networks) *
           spec_.pipeline.victims_per_network;
  }

  long long passes() const {
    return static_cast<long long>(spec_.metrics.size() * spec_.attacks.size() *
                                  spec_.compromised.size() *
                                  spec_.damages.size());
  }

  ScenarioSpec spec_;
  std::size_t ops_pool_;
  ScenarioResult last_;
  Deployment ops_deployment_;
  std::vector<OpInput> ops_;
  std::vector<std::unique_ptr<Metric>> ops_metrics_;
  Locate ops_locate_;
  Tracer ops_tracer_{false};
};

/// Fig. 7/8 shape with the beaconless MLE: the paper's core loop, where
/// `loc` dominates the single-thread time.
class TrainMle final : public DrSweepWorkload {
 public:
  explicit TrainMle(std::uint64_t seed)
      : DrSweepWorkload(make_spec(seed), 1000) {}  // p99, ~0.3 s a round

  static ScenarioSpec make_spec(std::uint64_t seed) {
    ScenarioSpec spec = base_spec("bench_train_mle", ExperimentKind::kDrSweep,
                                  seed, 4, 50);
    spec.localizers = {"beaconless-mle"};
    spec.metrics = {MetricKind::kDiff};
    spec.attacks = {AttackClass::kDecBounded};
    spec.damages = {40, 60, 80, 100, 120, 140, 160};
    spec.compromised = {0.1, 0.2, 0.3, 0.4, 0.5};
    spec.fp_budget = 0.01;
    return spec;
  }

  void check_output(Checks& checks) const override {
    DrSweepWorkload::check_output(checks);
    const Table& dr = table_of(last_, "dr");
    const std::size_t x_col = column(dr, "x");
    const std::size_t d_col = column(dr, "D");
    const std::size_t dr_col = column(dr, "DR");
    double rate = -1.0;
    for (std::size_t r = 0; r < dr.num_rows(); ++r) {
      if (dr.cell(r, x_col) == "0.10" && dr.cell(r, d_col) == "160") {
        rate = std::stod(dr.cell(r, dr_col));
      }
    }
    checks.note("DR at D=160, x=0.1: " + std::to_string(rate) +
                " (limit 0.99)");
    checks.expect(rate >= 0.99, "DR at D=160, x=0.1 is " +
                                    std::to_string(rate) + ", below 0.99");
  }

  void op(std::size_t i) override {
    const OpInput& in = ops_[i];
    benign_sample(ops_tracer_, ops_deployment_, ops_metrics_,
                  *ops_deployment_.networks[in.net], in.node, ops_locate_);
  }
};

/// Every metric x both attack classes x a wide D/x grid with the cheap
/// truth+noise localizer: bypasses the MLE entirely.
class AttackGrid final : public DrSweepWorkload {
 public:
  explicit AttackGrid(std::uint64_t seed)
      : DrSweepWorkload(make_spec(seed), 6000) {}  // p99, ~0.02 s a round

  static ScenarioSpec make_spec(std::uint64_t seed) {
    ScenarioSpec spec = base_spec("bench_attack_grid", ExperimentKind::kDrSweep,
                                  seed, 4, 25);
    spec.localizers = {"truth-noise:10"};
    spec.metrics = {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb};
    spec.attacks = {AttackClass::kDecBounded, AttackClass::kDecOnly};
    spec.damages = {40, 80, 120, 160, 200, 240};
    spec.compromised = {0.05, 0.1, 0.2, 0.3, 0.5};
    spec.fp_budget = 0.01;
    return spec;
  }

  void op(std::size_t i) override {
    // Cycle the (metric, class) cells at the largest D, x = 0.1.
    const std::size_t cells = ops_metrics_.size() * spec_.attacks.size();
    const Metric& metric = *ops_metrics_[i % cells % ops_metrics_.size()];
    const AttackClass cls = spec_.attacks[i % cells / ops_metrics_.size()];
    const OpInput& in = ops_[i];
    attack_sample(ops_tracer_, ops_deployment_, metric, cls, 0.1,
                  *ops_deployment_.networks[in.net], in.node, in.le);
  }

  void check_trace(const Tracer& tr, Checks& checks) const override {
    DrSweepWorkload::check_trace(tr, checks);
    // The replay localizes with the scheme the spec names, so an MLE in
    // this sweep would show here.
    checks.expect(tr.calls("loc.estimate") == 0,
                  "attack-grid called the MLE localizer");
  }
};

// --- correct ---------------------------------------------------------------

/// The tab_correction shape: trimmed-ML correction of tainted observations,
/// run one trial after another.
class Correct final : public Workload {
 public:
  explicit Correct(std::uint64_t seed) : spec_(make_spec(seed)) {}

  static ScenarioSpec make_spec(std::uint64_t seed) {
    ScenarioSpec spec =
        base_spec("bench_correct", ExperimentKind::kCorrection, seed, 1, 1);
    spec.metrics = {MetricKind::kDiff};
    spec.attacks = {AttackClass::kDecOnly, AttackClass::kDecBounded};
    spec.damages = {80, 120, 160, 240};
    spec.compromised = {0.10};
    spec.trials = kTrials;
    return spec;
  }

  long long samples() const override { return trial_count(); }
  const char* sample_unit() const override { return "corrections"; }

  void setup(int /*threads*/) override {
    // What run_correction builds before its first trial: the knowledge
    // model, the g(z) table, the deployed network and the corrector.
    const DeploymentConfig& cfg = spec_.pipeline.deploy;
    const DeploymentModel model(cfg);
    const GzTable gz({cfg.radio_range, cfg.sigma});
    Rng rng = Rng::stream(spec_.pipeline.seed, 0);
    const Network net(model, rng);
    const LocationCorrector corrector(model, gz);
  }

  std::uint64_t run(int threads) override {
    ScenarioSpec spec = spec_;
    spec.pipeline.threads = threads;
    ScenarioRunner runner(spec);
    last_ = runner.run();
    return digest_of(last_);
  }

  void check_output(Checks& checks) const override {
    const Table& floor = table_of(last_, "benign_floor");
    const Table& corr = table_of(last_, "correction");
    checks.expect(floor.num_rows() == 1 &&
                      corr.num_rows() == spec_.attacks.size() *
                                             spec_.damages.size(),
                  "correction tables have the wrong row count");
  }

  void traced_run(Tracer& tr) override {
    Scope run_span(tr, "sim.run");
    const DeploymentConfig& cfg = spec_.pipeline.deploy;
    const std::uint64_t seed = spec_.pipeline.seed;
    const Deployment d = build_deployment(tr, cfg, 256, seed, 1);
    const Network& net = *d.networks.front();
    const LocationCorrector corrector(*d.model, *d.gz);
    {
      Scope pass(tr, "sim.pass");
      Rng rng = Rng::stream(seed ^ kStreamBenign, 0);
      for (int t = 0; t < spec_.trials; ++t) {
        const Observation o = observe_step(tr, net, draw_in_field(net, rng));
        traced(tr, "core.correct", [&] { return corrector.correct(o); });
      }
    }
    std::uint64_t cell = 0;
    for (const AttackClass cls : spec_.attacks) {
      for (const double damage : spec_.damages) {
        Scope pass(tr, "sim.pass");
        Rng rng = Rng::stream(seed ^ kStreamAttack, cell++);
        for (int t = 0; t < spec_.trials; ++t) {
          const std::size_t node = draw_in_field(net, rng);
          const Vec2 le = displace_step(tr, net, node, damage, rng);
          const Observation a = observe_step(tr, net, node);
          const ExpectedObservation mu = expected_step(tr, d, le);
          const TaintResult taint =
              taint_step(tr, a, mu, d.m, spec_.metrics.front(), cls,
                         static_cast<int>(spec_.compromised.front() * a.total()));
          traced(tr, "core.correct",
                 [&] { return corrector.correct(taint.tainted); });
        }
      }
    }
  }

  /// The replay's corrections against the end-to-end run's result: the
  /// benign floor's trials plus spec.trials per correction row.
  void check_trace(const Tracer& tr, Checks& checks) const override {
    const Table& floor = table_of(last_, "benign_floor");
    const Table& corr = table_of(last_, "correction");
    const long long expected =
        std::stoll(floor.cell(0, column(floor, "trials"))) +
        static_cast<long long>(corr.num_rows()) * spec_.trials;
    const long long calls = tr.calls("core.correct");
    checks.expect(calls == expected,
                  "core.correct_calls " + std::to_string(calls) +
                      " differs from the result's trial count " +
                      std::to_string(expected));
  }

  void prepare_ops() override {
    Tracer off(false);
    const DeploymentConfig& cfg = spec_.pipeline.deploy;
    ops_deployment_ = build_deployment(off, cfg, 256, spec_.pipeline.seed, 1);
    ops_corrector_ = std::make_unique<LocationCorrector>(*ops_deployment_.model,
                                                         *ops_deployment_.gz);
    const Network& net = *ops_deployment_.networks.front();
    Rng rng = Rng::stream(spec_.pipeline.seed ^ kStreamOps, 0);
    ops_obs_.clear();
    for (std::size_t i = 0; i < kOpsPool; ++i) {
      const AttackClass cls = spec_.attacks[i % spec_.attacks.size()];
      const double damage = spec_.damages[i % spec_.damages.size()];
      const std::size_t node = draw_in_field(net, rng);
      const Vec2 le = displaced_location(net.position(node), damage,
                                         cfg.field(), rng);
      const Observation a = net.observe(node);
      const ExpectedObservation mu =
          ops_deployment_.model->expected_observation(le, *ops_deployment_.gz);
      ops_obs_.push_back(
          greedy_taint(a, mu, ops_deployment_.m, spec_.metrics.front(), cls,
                       static_cast<int>(spec_.compromised.front() * a.total()))
              .tainted);
    }
  }
  std::size_t op_count() const override { return kOpsPool; }
  void op(std::size_t i) override { ops_corrector_->correct(ops_obs_[i]); }

 private:
  static constexpr int kTrials = 3;
  static constexpr std::size_t kOpsPool = 100;  // p90, ~0.3 s a round

  long long trial_count() const {
    return static_cast<long long>(1 + spec_.attacks.size() * spec_.damages.size()) *
           kTrials;
  }

  ScenarioSpec spec_;
  ScenarioResult last_;
  Deployment ops_deployment_;
  std::unique_ptr<LocationCorrector> ops_corrector_;
  std::vector<Observation> ops_obs_;
};

// --- detect ----------------------------------------------------------------

/// The deployed read path: a trained fused bundle, loaded and asked for
/// verdicts on a seeded stream of benign and attacked claims.
class Detect final : public Workload {
 public:
  Detect(std::uint64_t seed, int threads) { generate(seed, threads); }

  long long samples() const override {
    return static_cast<long long>(claims_.size());
  }
  const char* sample_unit() const override { return "claims"; }

  void setup(int /*threads*/) override { load(); }

  std::uint64_t run(int threads) override {
    load();
    verdicts_.assign(claims_.size(), Verdict{});
    // `threads` callers take the stream a block at a time, so a caller on
    // a core that runs slow for a while checks fewer claims.
    const std::size_t n = claims_.size();
    const std::size_t blocks = (n + kBlock - 1) / kBlock;
    parallel_for_items(
        blocks,
        [&](std::size_t b) {
          for (std::size_t i = b * kBlock; i < std::min(n, (b + 1) * kBlock);
               ++i) {
            const Claim& claim = claims_[i];
            verdicts_[i] = detector_->check_for_group(claim.obs, claim.le,
                                                      claim.group);
          }
        },
        threads);
    return digest_verdicts(verdicts_);
  }

  void check_output(Checks& checks) const override {
    double benign = 0, benign_alarms = 0, attacked = 0, attacked_alarms = 0;
    for (std::size_t i = 0; i < claims_.size(); ++i) {
      const bool alarm = verdicts_[i].anomaly;
      if (claims_[i].attacked) {
        attacked += 1;
        attacked_alarms += alarm ? 1 : 0;
      } else {
        benign += 1;
        benign_alarms += alarm ? 1 : 0;
      }
    }
    const double fp = benign_alarms / benign;
    const double dr = attacked_alarms / attacked;
    checks.note("benign alarm rate " + std::to_string(fp) + " (limit " +
                std::to_string(1.0 - kTau + kBenignSlack) +
                "), attacked alarm rate " + std::to_string(dr) +
                " (limit 0.99)");
    checks.expect(fp <= (1.0 - kTau) + kBenignSlack,
                  "benign alarm rate " + std::to_string(fp) +
                      " exceeds 1 - tau + slack");
    checks.expect(dr >= 0.99,
                  "attacked alarm rate " + std::to_string(dr) +
                      " is below 0.99");
  }

  void traced_run(Tracer& tr) override {
    Scope run_span(tr, "sim.run");
    const DetectorBundle bundle = traced(tr, "core.bundle_load", [&] {
      std::istringstream is(bundle_bytes_);
      return load_bundle(is);
    });
    // RuntimeDetector's construction, one layer call at a time.
    Deployment d;
    d.m = bundle.config.nodes_per_group;
    d.model = traced(tr, "deploy.build", [&] {
      return std::make_unique<DeploymentModel>(bundle.config,
                                               bundle.deployment_points);
    });
    d.gz = traced(tr, "deploy.build", [&] {
      return std::make_unique<GzTable>(
          GzParams{bundle.config.radio_range, bundle.config.sigma},
          bundle.gz_omega);
    });
    tr.add("deploy.gz_builds", 1);
    std::vector<std::unique_ptr<Metric>> metrics;
    for (const DetectorSpec& spec : bundle.detectors) {
      metrics.push_back(make_metric(spec.metric));
      for (const GroupThreshold& g : spec.group_overrides) {
        tr.add("core.group_fallbacks",
               g.source == GroupOverrideSource::kFallback ? 1 : 0);
      }
    }
    std::vector<Verdict> verdicts;
    verdicts.reserve(claims_.size());
    for (const Claim& claim : claims_) {
      // RuntimeDetector::check_for_group: the largest score / threshold
      // ratio over the sections, alarming above 1.
      Scope check(tr, "core.check");
      const ExpectedObservation mu = expected_step(tr, d, claim.le);
      double fused = 0.0;
      for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double s = score_step(tr, *metrics[i], claim.obs, mu, d.m);
        const double r =
            s / bundle.detectors[i].threshold_for_group(claim.group);
        fused = i == 0 ? r : std::max(fused, r);
      }
      verdicts.push_back({fused > 1.0, fused, 1.0});
    }
    traced_digest_ = digest_verdicts(verdicts);
  }

  void check_trace(const Tracer&, Checks& checks) const override {
    checks.expect(traced_digest_ == digest_verdicts(verdicts_),
                  "traced verdicts differ from RuntimeDetector's");
  }

  // setup() and run() load the detector op() uses, and each measurement
  // round runs before its operations.
  void prepare_ops() override {}
  std::size_t op_count() const override { return claims_.size(); }
  void op(std::size_t i) override {
    const Claim& claim = claims_[i];
    detector_->check_for_group(claim.obs, claim.le, claim.group);
  }

 private:
  static constexpr double kTau = 0.99;
  /// The fused verdict is the union of three sections, each alarming on
  /// about 1 - tau of benign claims, and boundary groups use thresholds
  /// fitted on their own finite buckets; together these put the benign
  /// alarm rate near 3.5% at tau = 0.99.  The slack therefore only catches
  /// gross breakage, such as a wrong threshold lookup.
  static constexpr double kBenignSlack = 0.05;
  static constexpr std::size_t kClaims = 20000;
  static constexpr std::size_t kBlock = 250;  ///< claims a caller takes at once
  /// Benign claims are the true position plus this much Gaussian error
  /// (m); the bundle is trained with the same truth+noise localizer, so
  /// its thresholds absorb exactly that error.
  static constexpr double kClaimNoise = 5.0;

  struct Claim {
    Observation obs;
    Vec2 le;
    int group = 0;
    bool attacked = false;
  };

  void generate(std::uint64_t seed, int threads) {
    PipelineConfig cfg;
    cfg.networks = 4;
    cfg.victims_per_network = 25000;  // ~1000 benign samples per boundary group
    cfg.seed = seed;
    cfg.threads = threads;
    Pipeline pipeline(cfg);
    GroupTrainingSpec grouped;
    grouped.per_group = true;
    grouped.min_samples = 100;
    const DetectorBundle bundle = pipeline.train_bundle(
        localizer_factory_from_name("truth-noise:5", pipeline),
        {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}, {kTau},
        kTau, grouped);
    std::ostringstream os;
    save_bundle(os, bundle);
    bundle_bytes_ = os.str();

    const DeploymentModel& model = pipeline.model();
    const GzTable& gz = pipeline.gz();
    Rng rng = Rng::stream(seed ^ kStreamClaims, 0);
    const Network net(model, rng);
    const int m = cfg.deploy.nodes_per_group;
    claims_.clear();
    for (std::size_t i = 0; i < kClaims; ++i) {
      Claim c;
      const std::size_t node = draw_in_field(net, rng);
      const Vec2 la = net.position(node);
      c.group = net.group_of(node);
      c.attacked = rng.bernoulli(0.5);
      const Observation a = net.observe(node);
      if (c.attacked) {
        c.le = displaced_location(la, 160.0, cfg.deploy.field(), rng);
        c.obs = greedy_taint(a, model.expected_observation(c.le, gz), m,
                             MetricKind::kDiff, AttackClass::kDecBounded,
                             static_cast<int>(std::lround(0.1 * a.total())))
                    .tainted;
      } else {
        c.le = {la.x + rng.normal(0.0, kClaimNoise),
                la.y + rng.normal(0.0, kClaimNoise)};
        c.obs = a;
      }
      claims_.push_back(std::move(c));
    }
  }

  /// Drops the previous detector first, so no run holds two at once.
  void load() {
    detector_.reset();
    std::istringstream is(bundle_bytes_);
    detector_ = std::make_unique<RuntimeDetector>(load_bundle(is));
  }

  static std::uint64_t digest_verdicts(const std::vector<Verdict>& verdicts) {
    Digest d;
    for (const Verdict& v : verdicts) {
      d.add_value(v.anomaly);
      d.add_value(v.score);
    }
    return d.value();
  }

  std::string bundle_bytes_;
  std::vector<Claim> claims_;
  std::unique_ptr<RuntimeDetector> detector_;
  std::vector<Verdict> verdicts_;
  std::uint64_t traced_digest_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"train-mle", "attack-grid",
                                                 "correct", "detect"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int threads) {
  if (name == "train-mle") return std::make_unique<TrainMle>(seed);
  if (name == "attack-grid") return std::make_unique<AttackGrid>(seed);
  if (name == "correct") return std::make_unique<Correct>(seed);
  if (name == "detect") return std::make_unique<Detect>(seed, threads);
  LAD_REQUIRE_MSG(false, "unknown workload '" << name << "'");
  return nullptr;  // unreachable
}

}  // namespace lad::bench
