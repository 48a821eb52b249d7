#include "stats/special.h"

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/assert.h"

namespace lad {

// std::lgamma writes the process-global `signgam`, which is a data race
// once the scoring passes evaluate the Probability metric from multiple
// threads.  The reentrant variant returns the same bits and keeps the
// sign in a local.  Declared by hand because <cmath> hides it under
// strict -std=c++20 (CMAKE_CXX_EXTENSIONS OFF).
#if defined(__GLIBC__) || defined(__APPLE__)
extern "C" double lgamma_r(double, int*);
#define LAD_HAVE_LGAMMA_R 1
#endif

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double lgamma_threadsafe(double x) {
#ifdef LAD_HAVE_LGAMMA_R
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  // lad-lint: allow(ban-lgamma) -- fallback for libcs without lgamma_r;
  // single-threaded use only (the PR 7 signgam race is a glibc concern).
  return std::lgamma(x);
#endif
}
}  // namespace

double log_factorial(int n) {
  LAD_REQUIRE_MSG(n >= 0, "factorial of a negative number");
  // log n! for n < kTableSize (8 KiB), filled once by the very lgamma call
  // the fallback makes, so a table read is bit-identical to it.  This
  // takes lgamma off every log_binomial_pmf with m < kTableSize.
  constexpr int kTableSize = 1024;
  static const std::array<double, kTableSize> table = [] {
    std::array<double, kTableSize> t{};
    for (int i = 0; i < kTableSize; ++i) {
      t[static_cast<std::size_t>(i)] =
          lgamma_threadsafe(static_cast<double>(i) + 1.0);
    }
    return t;
  }();
  if (n < kTableSize) return table[static_cast<std::size_t>(n)];
  return lgamma_threadsafe(static_cast<double>(n) + 1.0);
}

double log_binomial_coefficient(int n, int k) {
  LAD_REQUIRE_MSG(k >= 0 && k <= n, "C(n,k) requires 0 <= k <= n");
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double log_binomial_pmf(int k, int n, double p) {
  LAD_REQUIRE_MSG(n >= 0, "binomial n must be non-negative");
  LAD_REQUIRE_MSG(p >= 0.0 && p <= 1.0, "binomial p must be in [0,1]");
  if (k < 0 || k > n) return kNegInf;
  if (p == 0.0) return k == 0 ? 0.0 : kNegInf;
  if (p == 1.0) return k == n ? 0.0 : kNegInf;
  return log_binomial_coefficient(n, k) + k * std::log(p) +
         (n - k) * std::log1p(-p);
}

double binomial_pmf(int k, int n, double p) {
  const double lp = log_binomial_pmf(k, n, p);
  return lp == kNegInf ? 0.0 : std::exp(lp);
}

double binomial_cdf(int k, int n, double p) {
  if (k < 0) return 0.0;
  if (k >= n) return 1.0;
  double cdf = 0.0;
  for (int i = 0; i <= k; ++i) cdf += binomial_pmf(i, n, p);
  return std::min(cdf, 1.0);
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_pdf(double x) {
  static const double kInvSqrt2Pi = 1.0 / std::sqrt(2.0 * M_PI);
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double gaussian2d_pdf_radial(double r, double sigma) {
  LAD_REQUIRE_MSG(sigma > 0, "sigma must be positive");
  return std::exp(-r * r / (2.0 * sigma * sigma)) /
         (2.0 * M_PI * sigma * sigma);
}

double rayleigh_cdf(double r, double sigma) {
  LAD_REQUIRE_MSG(sigma > 0, "sigma must be positive");
  if (r <= 0) return 0.0;
  return -std::expm1(-r * r / (2.0 * sigma * sigma));
}

}  // namespace lad
