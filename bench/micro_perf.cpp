// Micro-benchmarks (google-benchmark) for the performance claims that
// matter on sensor-class hardware:
//   * Section 3.3: the g(z) table lookup is constant-time and cheap,
//     versus the "quite complicated" exact integral; the table build
//     itself, serial and on four threads (BM_GzTableBuild);
//   * metric evaluation cost per detection decision;
//   * the Section 7.1 greedy taint per metric and attack class;
//   * expected-observation computation (n table lookups);
//   * neighbor-query throughput of the spatial index, single
//     (BM_NeighborQuery) and batched (BM_ObserveMany/BM_ObserveGrid) —
//     the docs/PERFORMANCE.md before/after surface;
//   * end-to-end Detector::check, MLE localization and location
//     correction of Dec-Bounded / Dec-Only tainted observations (the one
//     likelihood search, GroupLikelihood::maximize);
//   * one victim's five x budgets as five greedy_taint calls against one
//     ladder walk (BM_GreedyTaintLadder);
//   * the attack pass per (victim, cell), one pass per cell against one
//     batch per D (BM_AttackPass, the docs/PERFORMANCE.md attack table).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "attack/adversary.h"
#include "attack/greedy.h"
#include "core/corrector.h"
#include "core/detector.h"
#include "core/metric.h"
#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "geom/vec2.h"
#include "loc/beaconless_mle.h"
#include "rng/rng.h"
#include "sim/pipeline.h"

namespace lad {
namespace {

const DeploymentConfig& bench_config() {
  static const DeploymentConfig cfg = [] {
    DeploymentConfig c;  // paper defaults: 10x10 grid, m=300, sigma=50, R=50
    return c;
  }();
  return cfg;
}

const DeploymentModel& bench_model() {
  static const DeploymentModel model(bench_config());
  return model;
}

const GzTable& bench_gz() {
  static const GzTable gz(
      {bench_config().radio_range, bench_config().sigma}, 256);
  return gz;
}

const Network& bench_network() {
  static const Network* net = [] {
    Rng rng(42);
    return new Network(bench_model(), rng);
  }();
  return *net;
}

void BM_GzExactIntegral(benchmark::State& state) {
  const GzParams params{50.0, 50.0};
  double z = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gz_exact(z, params));
    z += 1.7;
    if (z > 400.0) z = 0.0;
  }
}
BENCHMARK(BM_GzExactIntegral);

void BM_GzTableLookup(benchmark::State& state) {
  const GzTable& gz = bench_gz();
  double z = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gz(z));
    z += 1.7;
    if (z > 400.0) z = 0.0;
  }
}
BENCHMARK(BM_GzTableLookup);

/// The Section 3.3 table build at the paper's parameters (R = sigma = 50,
/// omega = 256): omega + 1 exact integrals, sampled on `threads` threads
/// of the shared pool.  The "g(z) table build" stage of a pipeline.
void BM_GzTableBuild(benchmark::State& state) {
  const GzParams params{bench_config().radio_range, bench_config().sigma};
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const GzTable gz(params, 256, threads);
    benchmark::DoNotOptimize(gz.values().data());
  }
}
BENCHMARK(BM_GzTableBuild)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ExpectedObservation(benchmark::State& state) {
  const DeploymentModel& model = bench_model();
  const GzTable& gz = bench_gz();
  Rng rng(7);
  for (auto _ : state) {
    const Vec2 le{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    benchmark::DoNotOptimize(model.expected_observation(le, gz));
  }
}
BENCHMARK(BM_ExpectedObservation);

void BM_NeighborQuery(benchmark::State& state) {
  const Network& net = bench_network();
  Rng rng(8);
  for (auto _ : state) {
    const std::size_t node =
        static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
    benchmark::DoNotOptimize(net.observe(node));
  }
}
BENCHMARK(BM_NeighborQuery);

/// Batched observation kernel over a reused ObservationBatch.  The Time/CPU
/// columns are per *batch* (one observe_many call); items_per_second is the
/// per-observation rate — invert it to compare against BM_NeighborQuery.
void BM_ObserveMany(benchmark::State& state) {
  const Network& net = bench_network();
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<std::size_t> nodes(batch_size);
  for (std::size_t& n : nodes) {
    n = static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
  }
  ObservationBatch batch;
  for (auto _ : state) {
    net.observe_many(nodes, batch);
    benchmark::DoNotOptimize(batch.row(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_ObserveMany)->Arg(64)->Arg(256);

/// Batched observe_at over a probe grid (the sampling-path analogue).
void BM_ObserveGrid(benchmark::State& state) {
  const Network& net = bench_network();
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<Vec2> points(batch_size);
  for (Vec2& p : points) {
    p = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
  }
  ObservationBatch batch;
  for (auto _ : state) {
    net.observe_grid(points, batch);
    benchmark::DoNotOptimize(batch.row(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_ObserveGrid)->Arg(256);

void BM_MetricScore(benchmark::State& state) {
  const DeploymentModel& model = bench_model();
  const GzTable& gz = bench_gz();
  const Network& net = bench_network();
  const MetricKind kind = static_cast<MetricKind>(state.range(0));
  const auto metric = make_metric(kind);
  const Observation obs = net.observe(1234);
  const ExpectedObservation mu =
      model.expected_observation(net.position(1234), gz);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metric->score(obs, mu, bench_config().nodes_per_group));
  }
}
BENCHMARK(BM_MetricScore)->Arg(0)->Arg(1)->Arg(2);  // Diff, Add-all, Prob

/// Pre-sampled (observation, location) pairs so the timed region contains
/// only the operation under test (Pause/ResumeTiming costs more than the
/// detector check itself).
struct SampledInputs {
  std::vector<Observation> observations;
  std::vector<Vec2> locations;
};

const SampledInputs& bench_inputs() {
  static const SampledInputs inputs = [] {
    SampledInputs in;
    const Network& net = bench_network();
    Rng rng(9);
    for (int i = 0; i < 256; ++i) {
      const std::size_t node =
          static_cast<std::size_t>(rng.uniform_int(net.num_nodes()));
      in.observations.push_back(net.observe(node));
      in.locations.push_back(net.position(node));
    }
    return in;
  }();
  return inputs;
}

void BM_DetectorCheck(benchmark::State& state) {
  const Detector detector(bench_model(), bench_gz(), MetricKind::kDiff, 100.0);
  const SampledInputs& in = bench_inputs();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.check(in.observations[i], in.locations[i]));
    i = (i + 1) % in.observations.size();
  }
}
BENCHMARK(BM_DetectorCheck);

/// One greedy taint (Section 7.1) per iteration over the sampled victims,
/// each claiming a location displaced by D = 120 (so the taint has work to
/// do), with budget round(x |a|) as the scoring passes compute it.  Args:
/// metric (Diff, Add-all, Prob), class (Dec-Bounded, Dec-Only), x in %.
void BM_GreedyTaint(benchmark::State& state) {
  const MetricKind metric = static_cast<MetricKind>(state.range(0));
  const AttackClass cls = static_cast<AttackClass>(state.range(1));
  const double x = static_cast<double>(state.range(2)) / 100.0;
  const SampledInputs& in = bench_inputs();
  std::vector<ExpectedObservation> mus;
  std::vector<int> budgets;
  for (std::size_t i = 0; i < in.observations.size(); ++i) {
    mus.push_back(bench_model().expected_observation(
        in.locations[i] + Vec2{120.0, 0.0}, bench_gz()));
    budgets.push_back(static_cast<int>(
        std::lround(x * in.observations[i].total())));
  }
  const int m = bench_config().nodes_per_group;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_taint(in.observations[i], mus[i], m,
                                          metric, cls, budgets[i]));
    i = (i + 1) % in.observations.size();
  }
}
BENCHMARK(BM_GreedyTaint)
    ->ArgNames({"metric", "class", "x_pct"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {10, 50}});

/// The five budgets of attack-grid's x sweep (5, 10, 20, 30, 50%) for one
/// victim, as five greedy_taint calls (ladder = 0) or as one
/// greedy_taint_ladder walk (ladder = 1).  Same victims and claims as
/// BM_GreedyTaint; time is per victim, all five budgets.
void BM_GreedyTaintLadder(benchmark::State& state) {
  const MetricKind metric = static_cast<MetricKind>(state.range(0));
  const AttackClass cls = static_cast<AttackClass>(state.range(1));
  const SampledInputs& in = bench_inputs();
  std::vector<ExpectedObservation> mus;
  std::vector<std::vector<int>> budgets;
  for (std::size_t i = 0; i < in.observations.size(); ++i) {
    mus.push_back(bench_model().expected_observation(
        in.locations[i] + Vec2{120.0, 0.0}, bench_gz()));
    budgets.emplace_back();
    for (double x : {0.05, 0.1, 0.2, 0.3, 0.5}) {
      budgets.back().push_back(static_cast<int>(
          std::lround(x * in.observations[i].total())));
    }
  }
  const int m = bench_config().nodes_per_group;
  std::size_t i = 0;
  for (auto _ : state) {
    if (state.range(2) == 0) {
      for (int x : budgets[i]) {
        benchmark::DoNotOptimize(
            greedy_taint(in.observations[i], mus[i], m, metric, cls, x));
      }
    } else {
      greedy_taint_ladder(in.observations[i], mus[i], m, metric, cls,
                          budgets[i],
                          [](std::size_t, const Observation& o, int) {
                            benchmark::DoNotOptimize(o.counts.data());
                          });
    }
    i = (i + 1) % in.observations.size();
  }
}
BENCHMARK(BM_GreedyTaintLadder)
    ->ArgNames({"metric", "class", "ladder"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {0, 1}});

void BM_MleLocalize(benchmark::State& state) {
  const BeaconlessMleLocalizer mle(bench_model(), bench_gz());
  const SampledInputs& in = bench_inputs();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mle.estimate(in.observations[i]));
    i = (i + 1) % in.observations.size();
  }
}
BENCHMARK(BM_MleLocalize);

/// One LocationCorrector::correct per iteration over the sampled victims'
/// observations, greedy-tainted (Diff, x = 20%) toward a claim displaced
/// by D = 120, as tab_correction corrects them.  Arg: class (Dec-Bounded,
/// Dec-Only).
void BM_CorrectorCorrect(benchmark::State& state) {
  const AttackClass cls = static_cast<AttackClass>(state.range(0));
  const SampledInputs& in = bench_inputs();
  const int m = bench_config().nodes_per_group;
  std::vector<Observation> tainted;
  for (std::size_t i = 0; i < in.observations.size(); ++i) {
    const Observation& a = in.observations[i];
    tainted.push_back(
        greedy_taint(a,
                     bench_model().expected_observation(
                         in.locations[i] + Vec2{120.0, 0.0}, bench_gz()),
                     m, MetricKind::kDiff, cls,
                     static_cast<int>(std::lround(0.2 * a.total())))
            .tainted);
  }
  const LocationCorrector corrector(bench_model(), bench_gz());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(corrector.correct(tainted[i]));
    i = (i + 1) % tainted.size();
  }
}
BENCHMARK(BM_CorrectorCorrect)->ArgName("class")->Arg(0)->Arg(1);

void BM_NetworkDeployment(benchmark::State& state) {
  const DeploymentModel& model = bench_model();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    const Network net(model, rng);
    benchmark::DoNotOptimize(net.num_nodes());
  }
}
BENCHMARK(BM_NetworkDeployment)->Unit(benchmark::kMillisecond);

/// The attack samples of one pipeline at one D, in the attack-grid shape
/// of bench/ladbench: paper deployment, 4 networks x 25 victims, 3 metrics
/// x 2 classes x 5 values of x = 30 cells at D = 120.  Args: mode (0 = one
/// single-cell attack_batch per cell, 1 = one attack_batch over all cells)
/// and threads.  `per_victim_cell` is the time per (victim, cell).
void BM_AttackPass(benchmark::State& state) {
  PipelineConfig cfg;
  cfg.networks = 4;
  cfg.victims_per_network = 25;
  cfg.threads = static_cast<int>(state.range(1));
  Pipeline pipeline(cfg);
  std::vector<AttackCell> cells;
  for (MetricKind metric :
       {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}) {
    for (AttackClass cls : {AttackClass::kDecBounded, AttackClass::kDecOnly}) {
      for (double x : {0.05, 0.1, 0.2, 0.3, 0.5}) {
        cells.push_back({metric, cls, x, {metric}});
      }
    }
  }
  constexpr double kDamage = 120.0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      for (const AttackCell& cell : cells) {
        benchmark::DoNotOptimize(pipeline.attack_batch(kDamage, {cell}));
      }
    } else {
      benchmark::DoNotOptimize(pipeline.attack_batch(kDamage, cells));
    }
  }
  state.counters["per_victim_cell"] = benchmark::Counter(
      static_cast<double>(cells.size() * 100),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_AttackPass)
    ->ArgNames({"batch", "threads"})
    ->ArgsProduct({{0, 1}, {1, 2, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lad

BENCHMARK_MAIN();
