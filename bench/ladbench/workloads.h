// The benchmark's four workloads.  Each one generates its inputs from the
// seed, runs end to end through the library's user-facing entry points
// (ScenarioRunner for the Monte-Carlo sweeps, RuntimeDetector for the
// deployed read path), checks its own outputs, and replays the same steps
// through the layers' public functions under a Tracer for the per-layer
// breakdown.  RATIONALE.md says why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"

namespace lad::bench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Stated input size of one run, and what it counts.
  virtual long long samples() const = 0;
  virtual const char* sample_unit() const = 0;

  /// Builds what the first sample needs (timed by the caller as setup_s).
  virtual void setup(int threads) = 0;

  /// One cold end-to-end run at `threads`; returns the digest of its
  /// output tables (byte-identical across thread counts by contract).
  virtual std::uint64_t run(int threads) = 0;

  /// Workload-specific checks on the outputs of the last run().
  virtual void check_output(Checks& checks) const = 0;

  /// The closed-loop operation behind op_p50_us / op_tail_us: one sample
  /// through the workload's per-sample path.  prepare_ops() builds a pool
  /// of op_count() operation inputs (untimed); op(i) runs operation i.
  /// Each measurement round times every operation of the pool once.
  virtual void prepare_ops() = 0;
  virtual std::size_t op_count() const = 0;
  virtual void op(std::size_t i) = 0;

  /// Replays one run at one thread, span by span.
  virtual void traced_run(Tracer& tracer) = 0;

  /// Accounting checks on the traced run's spans and counters.
  virtual void check_trace(const Tracer& tracer, Checks& checks) const = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds workload `name` with inputs generated from `seed`; the generator
/// may use `threads` (detect trains its bundle here).  Throws
/// lad::AssertionError for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int threads);

}  // namespace lad::bench
