#include "self_test.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"
#include "util/bench_json.h"
#include "workloads.h"

namespace lad::bench {
namespace {

void percentile_rule(Checks& checks) {
  // The highest ladder percentile with at least ten samples beyond it.
  checks.expect(tail_level(1000) == 0.99, "tail_level(1000) != p99");
  checks.expect(tail_level(999) == 0.9, "tail_level(999) != p90");
  checks.expect(tail_level(200) == 0.9, "tail_level(200) != p90");
  checks.expect(tail_level(20000) == 0.999, "tail_level(20000) != p99.9");
  checks.expect(tail_level(99) == 0.5, "tail_level(99) != p50");
  checks.expect(tail_level(19) == 0.0, "tail_level(19) != none");
  checks.expect(percentile_label(0.999) == "p99.9", "label of 0.999");

  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  std::reverse(v.begin(), v.end());
  checks.expect(percentile(v, 0.99) == 990.0, "p99 of 1..1000 != 990");
  checks.expect(percentile(v, 0.5) == 500.0, "p50 of 1..1000 != 500");
  checks.expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of 4 values");
  checks.expect(least({3.0, 1.0, 2.0}) == 1.0, "least of 3 values");
  checks.expect(least({}) == 0.0, "least of no values");
}

void span_self_time(Checks& checks) {
  // Parent [0, 100) with overlapping children [10, 30) and [20, 50), a
  // grandchild inside the first (which must not count against the
  // parent), and a child running past the parent's end.
  std::vector<Span> spans(5);
  spans[0] = {"sim.pass", -1, 0, 100};
  spans[1] = {"deploy.observe", 0, 10, 30};
  spans[2] = {"loc.estimate", 0, 20, 50};
  spans[3] = {"core.score", 1, 12, 14};
  spans[4] = {"core.score", 0, 90, 120};
  const std::vector<double> self = self_seconds(spans);
  // Union of the children inside the parent: [10, 50) + [90, 100) = 50 ns;
  // the sum of their durations would be 80.
  checks.expect(std::abs(self[0] - 50e-9) < 1e-15,
                "self time is not parent minus the union of its children");
  checks.expect(std::abs(self[1] - 18e-9) < 1e-15, "self time of a child");
  checks.expect(covered_ns({{5, 8}, {1, 3}, {2, 6}}, 0, 10) == 7,
                "union of overlapping intervals");
  checks.expect(covered_ns({{5, 8}}, 6, 7) == 1, "union clipped to a window");
}

void metric_names(Checks& checks) {
  for (const char* ok : {"wall_s", "deploy.build_s", "op_p50_us", "a-b.c_9"}) {
    checks.expect(valid_metric_name(ok), std::string("rejects ") + ok);
  }
  for (const char* bad : {"", "_x", ".x", "a b", "a/b", "a\"b"}) {
    checks.expect(!valid_metric_name(bad),
                  std::string("accepts '") + bad + "'");
  }
  checks.expect(!valid_metric_name(std::string(65, 'a')), "accepts 65 chars");
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *list) {
      checks.expect(valid_metric_name(m.name),
                    std::string("metric name ") + m.name);
    }
  }
}

void result_json(Checks& checks) {
  Provenance p;
  p.workload = "detect";
  p.git_rev = "unknown";
  p.host = "host \"quoted\"";
  p.date = "2026-01-01";
  p.cpu = "cpu";
  p.kernel = "scalar";
  Checks tally;
  tally.expect(true, "");
  const std::string doc =
      result_document(p, {{"detect/wall", 20000, 1234.5, 20000}}, tally,
                      {{"wall_s", 0.25, "s"}, {"op_p50_us", 4.5, "us"}});
  const std::string problem = validate_bench_json(doc);
  checks.expect(problem.empty(), "result JSON fails validate_bench_json: " +
                                     problem);
  checks.expect(doc.find("\"provenance\"") != std::string::npos &&
                    doc.find("\"metrics\"") != std::string::npos,
                "result JSON lacks provenance or metrics");
}

void manifest(Checks& checks, const std::string& benchmark_json) {
  std::vector<std::string> want = workload_names();
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *list) want.emplace_back(m.name);
  }
  std::vector<std::string> got = declared_names(benchmark_json);
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  checks.expect(got == want,
                "BENCHMARK.json does not name exactly the benchmark's "
                "workloads and metrics");
}

}  // namespace

void run_self_tests(Checks& checks, const std::string& benchmark_json) {
  percentile_rule(checks);
  span_self_time(checks);
  metric_names(checks);
  result_json(checks);
  if (!benchmark_json.empty()) manifest(checks, benchmark_json);
}

}  // namespace lad::bench
