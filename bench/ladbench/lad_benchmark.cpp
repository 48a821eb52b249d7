// The LAD end-to-end benchmark.
//
//   lad_benchmark --workload <train-mle|attack-grid|correct|detect>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--threads <n>] [--out <dir>]
//
// One run generates the workload's inputs from the seed, then measures for
// about --seconds in rounds: set-ups, whole runs at `threads = min(nproc,
// 4)` and at one thread, and one closed-loop caller timing each operation
// of a pool.  Each timed piece of work keeps its least time over the
// rounds, the time the host's other tenants disturbed least (RATIONALE.md
// says why); the operations' percentiles are taken over those per-operation
// times, and set-up time is the median of a round's set-ups.  Every output
// is checked (byte-identical tables across repetitions and thread counts,
// plus each workload's own properties).  With --trace 1 a further
// single-thread run replays the workload through the layers' public
// functions under spans and reports the per-layer metrics instead.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics with their units.  Exit 0 when every check passed, 1
// when one failed, 2 on a bad argument (before any work is done).
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "deploy/observe_kernel.h"
#include "measure.h"
#include "self_test.h"
#include "trace.h"
#include "util/bench_json.h"
#include "util/flags.h"
#include "workloads.h"

namespace lad::bench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
  std::string out;
};

int usage_error(const std::string& message) {
  std::fprintf(stderr, "lad_benchmark: %s\n", message.c_str());
  return 2;
}

/// Parses and validates every argument; returns 0 or the exit code of a
/// usage error (2), which is reported before any work starts.
int parse_options(int argc, char** argv, Options& opt) {
  const int nproc = online_cpus();
  try {
    const Flags flags = Flags::parse(argc, argv);
    opt.workload = flags.get_string("workload", "");
    const long long seed = flags.get_int("seed", 1);
    opt.seconds = flags.get_double("seconds", 10.0);
    const long long trace = flags.get_int("trace", 0);
    const long long threads = flags.get_int("threads", std::min(nproc, 4));
    opt.out = flags.get_string("out", "");
    if (!flags.unused().empty()) {
      return usage_error("unknown flag --" + flags.unused().front());
    }
    if (!flags.positional().empty()) {
      return usage_error("unexpected argument '" + flags.positional().front() +
                         "'");
    }
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
      std::string known;
      for (const std::string& n : names) known += (known.empty() ? "" : ", ") + n;
      return usage_error("unknown workload '" + opt.workload +
                         "' (known: " + known + ")");
    }
    if (seed < 0) return usage_error("--seed must be >= 0");
    opt.seed = static_cast<std::uint64_t>(seed);
    if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0)) {
      return usage_error("--seconds must be in [1, 600]");
    }
    if (trace != 0 && trace != 1) return usage_error("--trace must be 0 or 1");
    opt.trace = trace == 1;
    if (threads < 1 || threads > nproc) {
      return usage_error("--threads " + std::to_string(threads) +
                         " is outside [1, nproc=" + std::to_string(nproc) +
                         "]");
    }
    opt.threads = static_cast<int>(threads);
  } catch (const std::exception& e) {
    return usage_error(e.what());
  }
  if (!opt.out.empty()) {
    // Prove the output directory writable now, not after the run.
    std::error_code ec;
    std::filesystem::create_directories(opt.out, ec);
    const std::filesystem::path probe =
        std::filesystem::path(opt.out) / ".write_probe";
    bool ok = !ec && std::ofstream(probe).good();
    ok = ok && std::filesystem::remove(probe, ec);
    if (!ok) return usage_error("output directory '" + opt.out +
                                "' is not writable");
  }
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs `fn` and records a failed check when it throws.
bool guarded(Checks& checks, const char* where, const std::function<void()>& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    checks.exception(where, e.what());
  }
  return false;
}

constexpr int kSetupsPerRound = 5;

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

/// Pins the calling thread to one CPU for its lifetime, then restores the
/// thread's previous CPU set.  A failed pin leaves the thread unpinned.
class PinnedTo {
 public:
  explicit PinnedTo(int cpu) {
    CPU_ZERO(&saved_);
    pinned_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    if (pinned_) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    }
  }
  ~PinnedTo() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Seconds one call of fn() takes.
double timed(const std::function<void()>& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return seconds_since(t0);
}

/// True while fewer than `min_reps` of `done` ran, or `deadline_s` into
/// the run has not passed yet and fewer than `max_reps` ran.
bool more(std::size_t done, std::int64_t start, double deadline_s,
          std::size_t min_reps, std::size_t max_reps) {
  return done < min_reps || (done < max_reps && seconds_since(start) < deadline_s);
}

void print_metric(const MetricValue& m, const std::string& note) {
  std::printf("  %-26s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

/// The per-layer metrics of a traced run.
std::vector<MetricValue> layer_metrics(const Tracer& tr, double traced_wall,
                                       double wall, double wall_t1,
                                       int threads) {
  const auto calls = [&](const char* span) {
    return static_cast<double>(tr.calls(span));
  };
  const double budget = tr.counter("attack.budget");
  const double values[] = {
      tr.total_seconds("deploy.build"),
      tr.counter("deploy.network_builds"),
      tr.counter("deploy.gz_builds"),
      calls("deploy.observe"),
      tr.total_seconds("deploy.observe"),
      calls("deploy.expected_obs"),
      tr.total_seconds("deploy.expected_obs"),
      calls("loc.estimate"),
      tr.total_seconds("loc.estimate"),
      median(tr.durations("loc.estimate")) * 1e6,
      calls("attack.displace"),
      tr.total_seconds("attack.displace"),
      calls("attack.taint"),
      tr.total_seconds("attack.taint"),
      budget > 0 ? tr.counter("attack.spent") / budget : 0.0,
      calls("core.score"),
      tr.total_seconds("core.score"),
      tr.total_seconds("core.train"),
      calls("core.correct"),
      tr.total_seconds("core.correct"),
      calls("core.check"),
      tr.total_seconds("core.check"),
      tr.total_seconds("core.bundle_load"),
      tr.counter("core.group_fallbacks"),
      wall_t1 - tr.layer_busy_seconds(),
      wall_t1 / (threads * wall),
      traced_wall,
      traced_wall / wall_t1,
  };
  const auto& specs = per_layer_metrics();
  std::vector<MetricValue> out;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out.push_back({specs[i].name, values[i], specs[i].unit});
  }
  return out;
}

int run(const Options& opt) {
  Checks checks;
  run_self_tests(checks, read_file("BENCHMARK.json"));

  Provenance prov;
  {
    BenchReport env;
    fill_bench_environment(env);
    prov.git_rev = env.git_rev;
    prov.host = env.host;
    prov.date = env.date;
  }
  prov.workload = opt.workload;
  prov.seed = opt.seed;
  prov.kernel = observe_kernel_name();
  prov.threads = opt.threads;
  prov.jobs = 1;
  prov.nproc = online_cpus();
  prov.cpu = cpu_model();
  std::printf("lad_benchmark %s\n", prov.to_json().c_str());

  const std::int64_t start = now_ns();
  const double s = opt.seconds;
  std::unique_ptr<Workload> wl;
  guarded(checks, "input generation",
          [&] { wl = make_workload(opt.workload, opt.seed, opt.threads); });

  std::vector<double> wall_times, wall_t1_times, run_rss;
  // Per set-up of a round and per operation: its least timing over the
  // rounds (operations in us).
  std::vector<double> setup_best, op_best;
  double tail = 0.0;
  std::vector<MetricValue> metrics;
  std::vector<BenchResult> rows;
  if (wl) {
    // Measurement rounds until the deadline: each round sets up, runs the
    // whole workload at `threads` and at one thread, and times every
    // closed-loop operation once.  Spreading every metric over the whole
    // window keeps a burst of host load from landing on one metric only.
    std::vector<std::uint64_t> digests;
    std::uint64_t digest = 0;
    const bool ran = guarded(checks, "measurement", [&] {
      wl->prepare_ops();
      // The resident set of the inputs alone: a run's peak memory is
      // reported above it.
      const double inputs_rss = begin_rss_window();
      constexpr double kNone = std::numeric_limits<double>::infinity();
      setup_best.assign(kSetupsPerRound, kNone);
      op_best.assign(wl->op_count(), kNone);
      tail = tail_level(op_best.size());
      const std::vector<int> cpus = allowed_cpus();
      while (more(wall_t1_times.size(), start, 0.9 * s, 3, 1000)) {
        const bool window = begin_rss_window() >= 0 && inputs_rss >= 0;
        wall_times.push_back(timed([&] { digest = wl->run(opt.threads); }));
        digests.push_back(digest);
        if (window) run_rss.push_back(rss_high_water_mb() - inputs_rss);
        // The single-caller work of round r runs on CPU r (mod the allowed
        // set): on a shared host one core can be slower than the others
        // for seconds at a time, and rotating spreads that over the rounds
        // the way the threaded run spreads it over its threads.
        const PinnedTo pin(cpus[wall_t1_times.size() % cpus.size()]);
        for (double& t : setup_best) {
          t = std::min(t, timed([&] { wl->setup(opt.threads); }));
        }
        wall_t1_times.push_back(timed([&] { digest = wl->run(1); }));
        digests.push_back(digest);
        for (std::size_t i = 0; i < op_best.size(); ++i) {
          op_best[i] = std::min(op_best[i], timed([&] { wl->op(i); }) * 1e6);
        }
      }
    });
    for (std::size_t i = 1; i < digests.size(); ++i) {
      checks.expect(digests[i] == digests[0],
                    "output of run " + std::to_string(i) + " (" +
                        std::to_string(i % 2 == 0 ? opt.threads : 1) +
                        " threads) differs from run 0 (" +
                        std::to_string(opt.threads) + " threads)");
    }
    if (!ran) {
      // Partial rounds leave untimed entries; report nothing from them.
      setup_best.clear();
      op_best.clear();
    }
    if (ran) {
      guarded(checks, "output check", [&] { wl->check_output(checks); });
      checks.expect(!run_rss.empty(),
                    "cannot reset the resident high-water mark "
                    "(/proc/self/clear_refs)");
    }
  }

  const double wall = least(wall_times);
  const double wall_t1 = least(wall_t1_times);
  const double op_p50 = median(op_best);
  const long long samples = wl ? wl->samples() : 0;
  const std::string sample_note =
      wl ? std::to_string(samples) + " " + wl->sample_unit() : "";
  const std::string ops_note =
      std::to_string(op_best.size()) +
      " closed-loop ops, each the least of " +
      std::to_string(wall_t1_times.size()) + " rounds' timings";
  checks.expect(!wl || tail > 0.0, "too few operations for a tail percentile");
  // In end_to_end_metrics() order, each with the note printed beside it.
  const std::pair<double, std::string> measured[] = {
      {wall, "least of " + std::to_string(wall_times.size()) + " runs at " +
                 std::to_string(opt.threads) + " threads, " + sample_note},
      {wall_t1, "least of " + std::to_string(wall_t1_times.size()) +
                    " runs at 1 thread, " + sample_note},
      {median(setup_best),
       "median of " + std::to_string(kSetupsPerRound) +
           " set-ups a round, each the least of " +
           std::to_string(wall_t1_times.size()) + " rounds' timings"},
      {median(run_rss), "median of " + std::to_string(run_rss.size()) +
                            " runs at " + std::to_string(opt.threads) +
                            " threads: peak resident set above the inputs'"},
      {op_p50, "p50 of " + ops_note},
      {percentile(op_best, tail > 0 ? tail : 0.5),
       percentile_label(tail) + " of " + ops_note},
  };
  std::vector<std::pair<MetricValue, std::string>> e2e;
  for (std::size_t i = 0; i < end_to_end_metrics().size(); ++i) {
    const MetricSpec& spec = end_to_end_metrics()[i];
    e2e.push_back({{spec.name, measured[i].first, spec.unit}, measured[i].second});
  }
  rows.push_back({opt.workload + "/wall", samples,
                  samples > 0 ? wall * 1e9 / static_cast<double>(samples) : 0,
                  samples});
  rows.push_back({opt.workload + "/wall_t1", samples,
                  samples > 0 ? wall_t1 * 1e9 / static_cast<double>(samples) : 0,
                  samples});
  rows.push_back({opt.workload + "/op_p50", samples, op_p50 * 1e3,
                  static_cast<long long>(op_best.size())});

  std::vector<MetricValue> layers;
  Tracer tracer(true);
  if (opt.trace && wl) {
    // The replay repeats until --seconds has passed (at least three times)
    // and the quickest one is reported, as the untraced times are least
    // times too.
    double traced_wall = 0.0;
    if (guarded(checks, "traced run", [&] {
          for (std::size_t n = 0; more(n, start, s, 3, 1000); ++n) {
            Tracer replay(true);
            const double t = timed([&] { wl->traced_run(replay); });
            if (n == 0 || t < traced_wall) {
              tracer = std::move(replay);
              traced_wall = t;
            }
          }
        })) {
      guarded(checks, "trace accounting",
              [&] { wl->check_trace(tracer, checks); });
    }
    layers = layer_metrics(tracer, traced_wall, wall, wall_t1, opt.threads);
  }

  if (!opt.out.empty()) {
    std::vector<MetricValue> all;
    for (const auto& e : e2e) all.push_back(e.first);
    all.insert(all.end(), layers.begin(), layers.end());
    const std::string doc = result_document(prov, rows, checks, all);
    checks.expect(validate_bench_json(doc).empty(),
                  "result document fails validate_bench_json");
    const std::filesystem::path dir(opt.out);
    std::ofstream(dir / ("BENCH_ladbench_" + opt.workload + ".json")) << doc;
    if (opt.trace) {
      std::ofstream(dir / ("trace_" + opt.workload + ".json"))
          << tracer.to_json(prov.to_json());
    }
  }

  std::printf("workload %s: %lld checks, %lld failed\n", opt.workload.c_str(),
              checks.attempted(), checks.failed());
  for (const std::string& n : checks.notes()) std::printf("  %s\n", n.c_str());
  for (const std::string& f : checks.failures()) {
    std::printf("  FAILED: %s\n", f.c_str());
  }
  std::printf("end-to-end (tracing off):\n");
  for (const auto& [m, note] : e2e) {
    print_metric(m, note);
    metrics.push_back(m);
  }
  const double fail_rate =
      static_cast<double>(checks.failed()) /
      static_cast<double>(std::max(1LL, checks.attempted()));
  print_metric({"fail_rate", fail_rate, "ratio"},
               std::to_string(checks.failed()) + " of " +
                   std::to_string(checks.attempted()) + " checks failed");
  if (opt.trace) {
    std::printf("per-layer (traced run, 1 thread):\n");
    for (const MetricValue& m : layers) print_metric(m, "");
    double base = 0.0;
    for (const MetricValue& m : layers) {
      if (m.name == "trace.wall_s") base = m.value;
    }
    for (const char* name : {"loc.estimate_s", "core.correct_s",
                             "attack.taint_s", "core.check_s"}) {
      for (const MetricValue& m : layers) {
        if (m.name == name && base > 0 && m.value > 0) {
          std::printf("  share: %s = %.4g s is %.1f%% of the traced wall "
                      "%.4g s\n",
                      name, m.value, 100.0 * m.value / base, base);
        }
      }
    }
  }

  const std::vector<MetricValue>& reported = opt.trace ? layers : metrics;
  std::ostringstream js;
  js << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << checks.attempted()
     << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    js << (i ? ", " : "") << '"' << reported[i].name
       << "\": {\"value\": " << format_number(reported[i].value)
       << ", \"unit\": \"" << reported[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lad::bench

int main(int argc, char** argv) {
  lad::bench::Options opt;
  if (const int code = lad::bench::parse_options(argc, argv, opt)) return code;
  return lad::bench::run(opt);
}
