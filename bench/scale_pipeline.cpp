// Scaling bench for the scoring passes and the scenario work-item
// scheduler: times the benign/attack Monte-Carlo passes per thread count
// (the flat per-victim fan-out), then a Figure-7-shaped dr-sweep scenario
// across threads x jobs combinations (concurrent work items on top of the
// per-pass fan-out, sharing one process-wide pool).  Results are
// byte-identical at every combination by construction, so the sweep
// measures scheduling only.
//
// Every run writes BENCH_scale_pipeline.json (see util/bench_json.h) so
// the perf trajectory is trackable across PRs:
//
//   bench/scale_pipeline                   # full sweep, JSON in cwd
//   bench/scale_pipeline --quick           # CI smoke: tiny sizes, 1 rep
//   bench/scale_pipeline --threads 1,8 --jobs 1,4 --out bench
//
// The "threads" JSON header field records the largest thread count the
// sweep touched; each result row carries its own t<threads>_j<jobs> tag.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/deployment_model.h"
#include "sim/pipeline.h"
#include "sim/scenario.h"
#include "util/assert.h"
#include "util/bench_json.h"
#include "util/flags.h"

namespace lad::bench {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Best-of-reps wall time for fn(), in ns.
template <class Fn>
double best_ns(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    const double ns = elapsed_ns(t0, t1);
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

void add_result(BenchReport& report, const std::string& name,
                long long size, double ns_per_op, long long ops) {
  report.results.push_back({name, size, ns_per_op, ops});
  std::printf("  %-28s %14.1f ns/op  (%lld ops)\n", name.c_str(), ns_per_op,
              ops);
}

/// The Figure 7 workload (DR vs damage at three compromise fractions) on
/// the bench's pipeline sizes - the shape whose wall time the jobs knob
/// is meant to cut.
ScenarioSpec fig07_shaped_spec(const PipelineConfig& pipeline, bool quick) {
  ScenarioSpec spec;
  spec.name = "scale_pipeline_fig07";
  spec.kind = ExperimentKind::kDrSweep;
  spec.pipeline = pipeline;
  spec.shapes = {DeploymentShape::kGrid};
  spec.localizers = {"beaconless-mle"};
  spec.metrics = {MetricKind::kDiff};
  spec.attacks = {AttackClass::kDecBounded};
  spec.actual_sigmas = {0.0};
  spec.jitters = {0.0};
  spec.compromised = quick ? std::vector<double>{0.10, 0.30}
                           : std::vector<double>{0.10, 0.20, 0.30};
  spec.damages.clear();
  for (double d = 40.0; d <= 160.0; d += quick ? 60.0 : 20.0) {
    spec.damages.push_back(d);
  }
  spec.fp_budget = 0.01;
  return spec;
}

}  // namespace
}  // namespace lad::bench

namespace {

int run(int argc, char** argv) {
  using namespace lad;
  using namespace lad::bench;

  const Flags flags = Flags::parse(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const std::vector<long long> thread_counts = flags.get_int_list(
      "threads", quick ? std::vector<long long>{1, 2}
                       : std::vector<long long>{1, 2, 4, 8});
  const std::vector<long long> job_counts = flags.get_int_list(
      "jobs", quick ? std::vector<long long>{1, 2}
                    : std::vector<long long>{1, 2, 4});
  const int reps = static_cast<int>(flags.get_int("reps", quick ? 1 : 3));
  const int networks =
      static_cast<int>(flags.get_int("networks", quick ? 4 : 10));
  const int victims =
      static_cast<int>(flags.get_int("victims", quick ? 50 : 200));
  const std::string out_dir = flags.get_string("out", "");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 20050404));
  const std::vector<std::string> leftovers = flags.unused();
  if (!leftovers.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", leftovers.front().c_str());
    return 2;
  }
  // Before any timing: an unusable --out must not cost a whole run.
  prepare_bench_out_dir(out_dir);

  PipelineConfig cfg;
  cfg.networks = networks;
  cfg.victims_per_network = victims;
  cfg.seed = seed;

  BenchReport report;
  report.name = "scale_pipeline";
  report.threads = static_cast<int>(
      *std::max_element(thread_counts.begin(), thread_counts.end()));
  fill_bench_environment(report);

  const long long samples =
      static_cast<long long>(networks) * victims;
  std::printf("scale_pipeline: networks=%d victims=%d reps=%d\n", networks,
              victims, reps);

  // --- per-pass thread fan-out (one pipeline, repeated passes) ----------
  for (const long long t : thread_counts) {
    cfg.threads = static_cast<int>(t);
    Pipeline pipeline(cfg);
    const LocalizerFactory factory =
        beaconless_mle_factory(pipeline.model(), pipeline.gz());
    const std::vector<MetricKind> metrics = {MetricKind::kDiff};

    const double benign_ns = best_ns(reps, [&] {
      pipeline.benign_scores(factory, metrics);
    });
    add_result(report, "benign_scores/t" + std::to_string(t), samples,
               benign_ns / static_cast<double>(samples), samples);

    AttackSpec attack;  // defaults: Diff / Dec-Bounded / D=120 / x=0.1
    const double attack_ns = best_ns(reps, [&] {
      pipeline.attack_scores(attack);
    });
    add_result(report, "attack_scores/t" + std::to_string(t), samples,
               attack_ns / static_cast<double>(samples), samples);
  }

  // --- scenario work items: threads x jobs ------------------------------
  // Fresh runner per rep so the shared-state caches (pipelines, benign
  // passes, group fits) are rebuilt - the timed quantity is a cold
  // end-to-end scenario run, which is what the CLI user experiences.
  for (const long long t : thread_counts) {
    for (const long long j : job_counts) {
      ScenarioSpec spec = fig07_shaped_spec(cfg, quick);
      spec.pipeline.threads = static_cast<int>(t);
      spec.jobs = static_cast<int>(j);
      const long long items = ScenarioRunner(spec).num_items();
      const double run_ns = best_ns(reps, [&] {
        ScenarioRunner runner(spec);
        runner.run();
      });
      add_result(report,
                 "dr_sweep/t" + std::to_string(t) + "_j" + std::to_string(j),
                 items, run_ns / static_cast<double>(items), items);
    }
  }

  const std::string path = write_bench_json(report, out_dir);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const lad::AssertionError& e) {
    std::fprintf(stderr, "scale_pipeline: %s\n", e.what());
    return 2;
  }
}
