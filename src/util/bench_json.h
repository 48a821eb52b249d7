// Machine-readable bench results: the BENCH_*.json surface.
//
// Every bench that measures anything emits one JSON document per run so
// the perf trajectory is trackable across PRs (schema "lad-bench-1"):
//
//   {
//     "schema": "lad-bench-1",
//     "name": "scale_observe",
//     "threads": 1,
//     "git_rev": "4690bd0",
//     "host": "Linux 6.18.5 x86_64 / 1 core(s)",
//     "date": "2026-08-07",
//     "results": [
//       {"name": "observe_many/avx2", "nodes": 30000,
//        "ns_per_op": 612.4, "ops": 20000}
//     ]
//   }
//
// The writer and the validator live together so the schema cannot drift:
// validate_bench_json() accepts exactly the documents the writer (or the
// shell benches that mirror it, e.g. tools/bench_baseline.sh) produce,
// plus unknown extra keys for forward compatibility.  CI smoke-checks
// every emitted file through tools/bench_json_check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lad {

/// One measured row of a bench run.
struct BenchResult {
  std::string name;        ///< e.g. "observe_many/avx2"
  std::int64_t nodes = 0;  ///< problem size the row was measured at
  double ns_per_op = 0;    ///< nanoseconds per operation (median/best)
  std::int64_t ops = 0;    ///< operations timed to produce ns_per_op
};

/// One bench run: provenance metadata plus its result rows.
struct BenchReport {
  std::string name;     ///< bench id; file becomes BENCH_<name>.json
  int threads = 1;      ///< thread count the run was pinned to
  std::string git_rev;  ///< short commit id, "unknown" outside a checkout
  std::string host;     ///< kernel/arch/core-count description
  std::string date;     ///< UTC YYYY-MM-DD of the run
  std::vector<BenchResult> results;
};

/// Fills git_rev (git rev-parse, overridable via LAD_GIT_REV, "unknown"
/// on failure), host, and date from the environment.
void fill_bench_environment(BenchReport& report);

/// Serializes the report as a lad-bench-1 JSON document.
std::string bench_json(const BenchReport& report);

/// Creates the output directory `dir` ("" = cwd) if missing, so a bad
/// --out fails before a bench spends any time measuring.  Throws
/// lad::AssertionError naming the directory when it cannot be created.
void prepare_bench_out_dir(const std::string& dir);

/// Writes bench_json(report) to <dir>/BENCH_<name>.json ("" = cwd) and
/// returns the path written.  Throws lad::AssertionError on I/O failure
/// or an empty report name.
std::string write_bench_json(const BenchReport& report,
                             const std::string& dir = "");

/// Tiny schema checker: returns "" when `text` is valid JSON carrying
/// every lad-bench-1 required key with the right type (extra keys are
/// allowed), else a one-line description of the first problem found.
std::string validate_bench_json(const std::string& text);

}  // namespace lad
