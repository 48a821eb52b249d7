// In-memory span tracer for the benchmark's traced run.
//
// The traced run calls each layer's public functions itself and wraps every
// call in a span: name, start, end and the span open around it (its
// parent).  Spans stay in memory until the run ends, then reduce to the
// per-layer metrics and are written out as one JSON file.  A disabled
// tracer records nothing and reads no clock, so the same step functions
// serve the untraced per-operation latency loop.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lad::bench {

struct Span {
  const char* name = "";  ///< "<layer>.<what>", a string literal
  int parent = -1;        ///< index of the enclosing span, -1 at top level
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Half-open interval [lo, hi) in nanoseconds.
using Interval = std::pair<std::int64_t, std::int64_t>;

/// Total length covered by the union of `intervals`, counting only the part
/// inside [lo, hi).  Overlapping intervals are counted once.
std::int64_t covered_ns(std::vector<Interval> intervals, std::int64_t lo,
                        std::int64_t hi);

/// A span's self time: its duration minus the part of it that the union of
/// its direct children covers (not the sum of the children's durations).
std::vector<double> self_seconds(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its id, or -1 when
  /// tracing is off.
  int open(const char* name);
  void close(int id);
  /// Adds `value` to a named counter (counters exist only when enabled).
  void add(const std::string& counter, double value);

  const std::vector<Span>& spans() const { return spans_; }
  double counter(const std::string& name) const;

  /// Number of spans named `name`, and the sum of their durations.
  long long calls(const char* name) const;
  double total_seconds(const char* name) const;
  /// Durations of every span named `name`, in seconds.
  std::vector<double> durations(const char* name) const;
  /// Time covered by spans whose layer prefix is not "sim." (the union, so
  /// nested layer spans count once).
  double layer_busy_seconds() const;

  /// The spans as JSON: {"provenance": ..., "counters": {...}, "summary":
  /// {name: {calls, total_s, self_s}}, "spans": [[name, parent, start_ns,
  /// end_ns], ...]}.
  std::string to_json(const std::string& provenance_json) const;

 private:
  bool enabled_;
  int current_ = -1;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, double>> counters_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Calls fn() inside a span named `name` and returns its result.
template <class Fn>
auto traced(Tracer& tracer, const char* name, Fn&& fn) {
  Scope scope(tracer, name);
  return fn();
}

}  // namespace lad::bench
