#include "stats/interp.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/assert.h"
#include "util/thread_pool.h"

namespace lad {

InterpTable::InterpTable(const std::function<double(double)>& f, double lo,
                         double hi, int omega, int threads)
    : lo_(lo), hi_(hi) {
  LAD_REQUIRE_MSG(hi > lo, "interpolation range is empty");
  LAD_REQUIRE_MSG(omega >= 1, "need at least one sub-range");
  LAD_REQUIRE_MSG(threads >= 1, "need at least one thread, got " << threads);
  values_.resize(static_cast<std::size_t>(omega) + 1);
  const double step = (hi - lo) / omega;
  parallel_for_shared(
      values_.size(),
      [&](std::size_t i) {
        values_[i] = f(lo + step * static_cast<double>(i));
      },
      static_cast<std::size_t>(threads));
  inv_step_ = omega / (hi - lo);
}

InterpTable::InterpTable(std::vector<double> values, double lo, double hi)
    : lo_(lo), hi_(hi), values_(std::move(values)) {
  LAD_REQUIRE_MSG(hi > lo, "interpolation range is empty");
  LAD_REQUIRE_MSG(values_.size() >= 2, "need at least two sample points");
  inv_step_ = static_cast<double>(values_.size() - 1) / (hi - lo);
}

double InterpTable::operator()(double x) const {
  if (x <= lo_) return values_.front();
  if (x >= hi_) return values_.back();
  const double pos = (x - lo_) * inv_step_;
  std::size_t i = static_cast<std::size_t>(pos);
  i = std::min(i, values_.size() - 2);
  const double frac = pos - static_cast<double>(i);
  return values_[i] + frac * (values_[i + 1] - values_[i]);
}

double InterpTable::max_abs_error(const std::function<double(double)>& f,
                                  int probes, int threads) const {
  LAD_REQUIRE_MSG(probes > 0, "need at least one probe");
  LAD_REQUIRE_MSG(threads >= 1, "need at least one thread, got " << threads);
  std::vector<double> errors(static_cast<std::size_t>(probes));
  parallel_for_shared(
      errors.size(),
      [&](std::size_t i) {
        const double x =
            lo_ + (hi_ - lo_) * (static_cast<double>(i) + 0.5) / probes;
        errors[i] = std::abs((*this)(x) - f(x));
      },
      static_cast<std::size_t>(threads));
  double worst = 0.0;
  for (double e : errors) worst = std::max(worst, e);
  return worst;
}

}  // namespace lad
