// Scaling bench for the observation kernels: 10^4 -> 10^6 nodes through
// the batched observe_many / observe_grid paths, per compiled-in kernel
// variant (scalar reference vs AVX2), single-threaded and fanned out
// over victim chunks with parallel_for_items.  Also times the deployment
// and GridIndex build paths, which dominate setup cost at scale.
//
// Density is held at the paper's default (m = 300 nodes per 100 m grid
// square) by growing the field with the node count, so per-observation
// cost reflects kernel throughput, not a denser radio neighborhood.
//
// Every run writes BENCH_scale_observe.json (see util/bench_json.h) so
// the perf trajectory is trackable across PRs:
//
//   bench/scale_observe                  # full sweep, JSON in cwd
//   bench/scale_observe --quick          # CI smoke: small sizes, 1 rep
//   bench/scale_observe --nodes 1000000 --threads 4 --out bench
//
// Pin thread counts reproducibly with --threads or the LAD_THREADS
// environment override (both reject garbage by name).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/network.h"
#include "deploy/observation.h"
#include "deploy/observe_kernel.h"
#include "geom/grid_index.h"
#include "geom/vec2.h"
#include "rng/rng.h"
#include "sim/parallel.h"
#include "util/assert.h"
#include "util/bench_json.h"
#include "util/flags.h"

namespace lad::bench {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Paper-density config scaled to roughly `target_nodes` total nodes.
DeploymentConfig scaled_config(long long target_nodes) {
  DeploymentConfig cfg;  // paper defaults: 100 m grid, m=300, sigma=R=50
  const int side = std::max(
      1, static_cast<int>(std::lround(std::sqrt(
             static_cast<double>(target_nodes) / cfg.nodes_per_group))));
  cfg.grid_nx = cfg.grid_ny = side;
  cfg.field_side = side * 100.0;
  cfg.nodes_per_group = static_cast<int>(
      target_nodes / (static_cast<long long>(side) * side));
  return cfg;
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
                long long nodes, double ns_per_op, long long ops) {
  report.results.push_back({name, nodes, ns_per_op, ops});
  std::printf("  %-28s %12.1f ns/op  (%lld ops)\n", name.c_str(), ns_per_op,
              ops);
}

}  // namespace
}  // namespace lad::bench

namespace {

int run(int argc, char** argv) {
  using namespace lad;
  using namespace lad::bench;

  const Flags flags = Flags::parse(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const std::vector<long long> default_nodes =
      quick ? std::vector<long long>{10000, 30000}
            : std::vector<long long>{10000, 30000, 100000, 300000, 1000000};
  const std::vector<long long> node_counts =
      flags.get_int_list("nodes", default_nodes);
  const long long victims_flag =
      flags.get_int("victims", quick ? 2000 : 20000);
  const int reps = static_cast<int>(flags.get_int("reps", quick ? 1 : 3));
  const int threads_flag = static_cast<int>(flags.get_int("threads", 0));
  const std::string out_dir = flags.get_string("out", "");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 20050404));
  const std::string only_kernel = flags.get_string("kernel", "");
  const std::vector<std::string> leftovers = flags.unused();
  if (!leftovers.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", leftovers.front().c_str());
    return 2;
  }
  // Before any timing: an unusable --out must not cost a whole run.
  prepare_bench_out_dir(out_dir);

  const int threads = threads_flag > 0 ? threads_flag : default_parallelism();
  BenchReport report;
  report.name = "scale_observe";
  report.threads = threads;
  fill_bench_environment(report);

  std::printf("scale_observe: dispatch=%s threads=%d reps=%d\n",
              observe_kernel_name(), threads, reps);

  for (const long long target : node_counts) {
    const DeploymentConfig cfg = scaled_config(target);
    const DeploymentModel model(cfg);
    Rng rng(seed);

    const auto d0 = Clock::now();
    const Network net(model, rng);
    const auto d1 = Clock::now();
    const long long n = static_cast<long long>(net.num_nodes());
    std::printf("nodes=%lld (field %.0f m, %d groups x m=%d)\n", n,
                cfg.field_side, cfg.num_groups(), cfg.nodes_per_group);
    add_result(report, "deploy", n, elapsed_ns(d0, d1), 1);

    const double grid_ns = best_ns(reps, [&] {
      GridIndex rebuild(net.positions(), cfg.field(), cfg.radio_range / 2.0);
    });
    add_result(report, "grid_build", n, grid_ns, 1);

    // Victim list + probe grid, fixed per node count so every kernel and
    // thread configuration times identical work.
    const std::size_t nv = static_cast<std::size_t>(
        std::min<long long>(victims_flag, n));
    std::vector<std::size_t> victims(nv);
    std::vector<Vec2> probes(nv);
    Rng pick(seed + 1);
    for (std::size_t j = 0; j < nv; ++j) {
      victims[j] = static_cast<std::size_t>(
          pick.uniform(0, static_cast<double>(n - 1)));
      probes[j] = {pick.uniform(0, cfg.field_side),
                   pick.uniform(0, cfg.field_side)};
    }

    for (const ObserveKernelInfo& kernel : observe_kernels()) {
      if (!kernel.runtime_ok) continue;
      if (!only_kernel.empty() && only_kernel != kernel.name) continue;
      LAD_REQUIRE_MSG(force_observe_kernel(kernel.name),
                      "cannot force kernel " << kernel.name);
      ObservationBatch batch;
      net.observe_many(victims, batch);  // warm caches + batch buffer
      const double many_ns = best_ns(reps, [&] {
        net.observe_many(victims, batch);
      });
      add_result(report, std::string("observe_many/") + kernel.name, n,
                 many_ns / static_cast<double>(nv),
                 static_cast<long long>(nv));

      const double grid_obs_ns = best_ns(reps, [&] {
        net.observe_grid(probes, batch);
      });
      add_result(report, std::string("observe_grid/") + kernel.name, n,
                 grid_obs_ns / static_cast<double>(nv),
                 static_cast<long long>(nv));

      // Thread fan-out over victim chunks (the embarrassingly parallel
      // shape the Pipeline passes use): each chunk owns its batch, so
      // results are schedule-independent by construction.
      if (threads > 1) {
        const std::size_t nchunks = static_cast<std::size_t>(threads) * 4;
        const std::size_t chunk = (nv + nchunks - 1) / nchunks;
        std::vector<ObservationBatch> batches(nchunks);
        const double fan_ns = best_ns(reps, [&] {
          parallel_for_items(
              nchunks,
              [&](std::size_t c) {
                const std::size_t lo = c * chunk;
                const std::size_t hi = std::min(nv, lo + chunk);
                if (lo >= hi) return;
                net.observe_many(
                    std::span<const std::size_t>(victims.data() + lo, hi - lo),
                    batches[c]);
              },
              threads);
        });
        add_result(report,
                   std::string("observe_many/") + kernel.name + "/t" +
                       std::to_string(threads),
                   n, fan_ns / static_cast<double>(nv),
                   static_cast<long long>(nv));
      }
    }
    force_observe_kernel(nullptr);
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
    std::fprintf(stderr, "scale_observe: %s\n", e.what());
    return 2;
  }
}
