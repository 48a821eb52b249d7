// The benchmark's own arithmetic and bookkeeping: clock, order statistics,
// the tail-percentile rule, peak memory, output digests, correctness-check
// tallies, metric-name grammar and provenance.  Everything here is covered
// by the self-tests in self_test.cpp, which every run executes first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bench_json.h"

namespace lad::bench {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t now_ns();

/// Seconds elapsed since `start_ns`.
double seconds_since(std::int64_t start_ns);

/// Median (mean of the two middle values for an even count).  Empty input
/// gives 0.
double median(std::vector<double> values);

/// The least value: for repeated timings of the same work, the one host
/// load disturbed least.  Empty input gives 0.
double least(const std::vector<double>& values);

/// Nearest-rank percentile of `values` at `level` in (0, 1).
double percentile(std::vector<double> values, double level);

/// The highest percentile on the ladder 50, 90, 99, 99.9, 99.99 that has at
/// least ten of `n` samples beyond it; 0 when even the median has fewer.
double tail_level(std::size_t n);

/// "p99", "p99.9", ... for a tail_level() result.
std::string percentile_label(double level);

/// Opens a peak-memory window: returns freed heap pages to the system and
/// resets the kernel's resident high-water mark to the current resident
/// set (/proc/self/clear_refs).  Returns that resident set in MiB, or a
/// negative value when the mark cannot be reset.
double begin_rss_window();

/// The resident high-water mark (VmHWM) in MiB: the peak since the last
/// begin_rss_window(), or since the process started.
double rss_high_water_mb();

/// Metric and workload names: 1 to 64 of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(const std::string& name);

/// JSON number with round-trip precision ("%.17g").
std::string format_number(double v);

/// 64-bit FNV-1a over output bytes: equal digests stand for byte-identical
/// outputs.
class Digest {
 public:
  void add(const void* data, std::size_t size);
  void add(const std::string& s) { add(s.data(), s.size()); }
  template <class T>
  void add_value(const T& v) {
    add(&v, sizeof v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Tally of output checks: attempted, failed and a line per failure.
class Checks {
 public:
  /// Records one check; returns `ok`.
  bool expect(bool ok, const std::string& what);
  /// Records a check that threw.
  void exception(const std::string& where, const std::string& what);
  /// Records an informational line (a measured value a check bounds).
  void note(const std::string& line) { notes_.push_back(line); }

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

/// What produced a run: recorded in every output.
struct Provenance {
  std::string workload;
  std::uint64_t seed = 0;
  std::string git_rev;
  std::string kernel;  ///< observe_kernel_name()
  int threads = 1;
  int jobs = 1;
  int nproc = 1;
  std::string cpu;
  std::string host;
  std::string date;

  std::string to_json() const;
};

/// One reported metric.
struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A metric the benchmark reports: its name and unit, as BENCHMARK.json
/// lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with tracing off (`--trace 0`).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by the traced run (`--trace 1`).
const std::vector<MetricSpec>& per_layer_metrics();

/// The run's result document: a lad-bench-1 report with `rows` as its
/// result rows, plus "provenance", "checks" and "metrics" keys.
/// validate_bench_json accepts it.
std::string result_document(const Provenance& provenance,
                            const std::vector<BenchResult>& rows,
                            const Checks& checks,
                            const std::vector<MetricValue>& metrics);

/// The names BENCHMARK.json text declares ("name" keys, in file order).
std::vector<std::string> declared_names(const std::string& benchmark_json);

/// The "model name" line of /proc/cpuinfo, or "unknown".
std::string cpu_model();

/// Online processors.
int online_cpus();

}  // namespace lad::bench
