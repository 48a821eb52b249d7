#include "measure.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/bench_json.h"

namespace lad::bench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double least(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

namespace {

/// 1-based nearest rank of `level` among n samples; the epsilon keeps
/// 0.99 * 1000 (which rounds to 990.0000000000001) at rank 990.
std::size_t nearest_rank(double level, std::size_t n) {
  const double rank = std::ceil(level * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? 1 : std::min(n, static_cast<std::size_t>(rank));
}

}  // namespace

double percentile(std::vector<double> values, double level) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(level, values.size()) - 1];
}

double tail_level(std::size_t n) {
  double best = 0.0;
  for (const double level : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (n >= 1 && n - nearest_rank(level, n) >= 10) best = level;
  }
  return best;
}

std::string percentile_label(double level) {
  std::ostringstream os;
  os << 'p' << level * 100.0;
  return os.str();
}

namespace {

/// A "<key>:  <n> kB" line of /proc/self/status, in MiB; -1 when absent.
double status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace

double begin_rss_window() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream reset("/proc/self/clear_refs");
  reset << "5";
  reset.flush();
  if (!reset.good()) return -1.0;
  return status_mb("VmRSS");
}

double rss_high_water_mb() { return status_mb("VmHWM"); }

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (i == 0 ? !alnum : !(alnum || c == '_' || c == '.' || c == '-')) {
      return false;
    }
  }
  return true;
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Digest::add(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  return ok;
}

void Checks::exception(const std::string& where, const std::string& what) {
  expect(false, where + " threw: " + what);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Provenance::to_json() const {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
     << ", \"git_rev\": " << json_string(git_rev)
     << ", \"kernel\": " << json_string(kernel) << ", \"threads\": " << threads
     << ", \"jobs\": " << jobs << ", \"nproc\": " << nproc
     << ", \"cpu\": " << json_string(cpu) << ", \"host\": " << json_string(host)
     << ", \"date\": " << json_string(date) << "}";
  return os.str();
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"wall_s", "s"},          {"wall_s_t1", "s"},   {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},   {"op_p50_us", "us"},  {"op_tail_us", "us"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"deploy.build_s", "s"},
      {"deploy.network_builds", "count"},
      {"deploy.gz_builds", "count"},
      {"deploy.observe_calls", "count"},
      {"deploy.observe_s", "s"},
      {"deploy.expected_obs_calls", "count"},
      {"deploy.expected_obs_s", "s"},
      {"loc.estimate_calls", "count"},
      {"loc.estimate_s", "s"},
      {"loc.estimate_p50_us", "us"},
      {"attack.displace_calls", "count"},
      {"attack.displace_s", "s"},
      {"attack.taint_calls", "count"},
      {"attack.taint_s", "s"},
      {"attack.budget_use", "ratio"},
      {"core.score_calls", "count"},
      {"core.score_s", "s"},
      {"core.train_s", "s"},
      {"core.correct_calls", "count"},
      {"core.correct_s", "s"},
      {"core.check_calls", "count"},
      {"core.check_s", "s"},
      {"core.bundle_load_s", "s"},
      {"core.group_fallbacks", "count"},
      {"sim.self_s", "s"},
      {"sim.scaling_eff", "ratio"},
      {"trace.wall_s", "s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return specs;
}

std::string result_document(const Provenance& provenance,
                            const std::vector<BenchResult>& rows,
                            const Checks& checks,
                            const std::vector<MetricValue>& metrics) {
  BenchReport report;
  report.name = "ladbench_" + provenance.workload;
  report.threads = provenance.threads;
  report.git_rev = provenance.git_rev;
  report.host = provenance.host;
  report.date = provenance.date;
  report.results = rows;
  std::string doc = bench_json(report);
  std::ostringstream extra;
  extra << ",\n  \"provenance\": " << provenance.to_json()
        << ",\n  \"checks\": {\"attempted\": " << checks.attempted()
        << ", \"failed\": " << checks.failed() << "},\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    extra << (i ? ", " : "") << json_string(metrics[i].name)
          << ": {\"value\": " << format_number(metrics[i].value)
          << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  extra << "}\n";
  // Splice the extra keys in before the document's closing brace.
  const std::size_t close = doc.rfind('}');
  std::size_t end = close;
  while (end > 0 && (doc[end - 1] == '\n' || doc[end - 1] == ' ')) --end;
  return doc.substr(0, end) + extra.str() + doc.substr(close);
}

std::vector<std::string> declared_names(const std::string& benchmark_json) {
  std::vector<std::string> names;
  const std::string key = "\"name\"";
  for (std::size_t pos = benchmark_json.find(key); pos != std::string::npos;
       pos = benchmark_json.find(key, pos + key.size())) {
    const std::size_t open = benchmark_json.find('"', pos + key.size());
    const std::size_t close = open == std::string::npos
                                  ? std::string::npos
                                  : benchmark_json.find('"', open + 1);
    if (close == std::string::npos) break;
    names.push_back(benchmark_json.substr(open + 1, close - open - 1));
  }
  return names;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "unknown" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

}  // namespace lad::bench
