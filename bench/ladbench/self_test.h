// Self-tests of the benchmark's own arithmetic.  Every run executes them
// before measuring.
#pragma once

#include "measure.h"

namespace lad::bench {

/// Records one check per property into `checks`.  `benchmark_json` is the
/// text of BENCHMARK.json, or empty when the file is not at hand (the
/// manifest check is then skipped).
void run_self_tests(Checks& checks, const std::string& benchmark_json);

}  // namespace lad::bench
