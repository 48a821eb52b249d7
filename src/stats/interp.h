// Uniform-grid linear interpolation table.
//
// Section 3.3: "we divide the range of z into omega equal-size sub-ranges,
// and store the g(z) values for these omega+1 dividing points into a table
// ... then it uses the interpolation".  This class is that table, reused
// for any sampled 1-D function.
#pragma once

#include <functional>
#include <vector>

namespace lad {

class InterpTable {
 public:
  /// Samples f at omega+1 equally spaced points on [lo, hi], on up to
  /// `threads` threads of the shared pool (f must then be safe to call
  /// concurrently).  Each point is f(lo + step * i) whatever the thread
  /// count, so the values are bit-identical; threads = 1 samples inline.
  InterpTable(const std::function<double(double)>& f, double lo, double hi,
              int omega, int threads = 1);

  /// Builds from precomputed values (values.size() == omega + 1).
  InterpTable(std::vector<double> values, double lo, double hi);

  /// Piecewise-linear evaluation; clamps outside [lo, hi] to the endpoint
  /// values (g(z) tables saturate at the tails by construction).
  double operator()(double x) const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int omega() const { return static_cast<int>(values_.size()) - 1; }
  const std::vector<double>& values() const { return values_; }

  /// Maximum absolute error against f over `probes` midpoint samples, on
  /// up to `threads` threads of the shared pool (f must then be safe to
  /// call concurrently); the result is the same at every thread count.
  double max_abs_error(const std::function<double(double)>& f,
                       int probes = 1000, int threads = 1) const;

 private:
  double lo_, hi_, inv_step_;
  std::vector<double> values_;
};

}  // namespace lad
