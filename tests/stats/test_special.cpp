#include "stats/special.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/assert.h"

// The reentrant lgamma that log_factorial is specified against, declared
// by hand as in special.cpp (strict -std=c++20 hides it in <cmath>).
#if defined(__GLIBC__) || defined(__APPLE__)
extern "C" double lgamma_r(double, int*);
#define LAD_HAVE_LGAMMA_R 1
#endif

namespace lad {
namespace {

TEST(LogFactorial, SmallValuesExact) {
  EXPECT_DOUBLE_EQ(log_factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(log_factorial(1), 0.0);
  EXPECT_NEAR(log_factorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(log_factorial(10), std::log(3628800.0), 1e-10);
  EXPECT_THROW(log_factorial(-1), AssertionError);
}

#ifdef LAD_HAVE_LGAMMA_R

/// The reference log_factorial evaluates per call: lgamma_r(n + 1).
double reference_log_factorial(int n) {
  int sign = 0;
  return lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The table is the reference's values, not an approximation of them: every
// entry, the two past its end and the large-n fallback match bit for bit.
TEST(LogFactorial, BitEqualToTheLgammaReference) {
  for (int n = 0; n <= 1026; ++n) {
    ASSERT_EQ(bits(log_factorial(n)), bits(reference_log_factorial(n)))
        << "n = " << n;
  }
  for (const int n : {2047, 4096, 100000, 1 << 30}) {
    EXPECT_EQ(bits(log_factorial(n)), bits(reference_log_factorial(n)))
        << "n = " << n;
  }
}

// ctest runs each case in its own process, so these threads make the
// table's first call together; the TSan build checks its initialisation.
TEST(LogFactorial, ConcurrentFirstCallsSeeOneTable) {
  constexpr int kThreads = 4;
  constexpr int kN = 1027;
  std::vector<std::vector<double>> seen(kThreads);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, &arrived, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      for (int n = 0; n < kN; ++n) {
        seen[static_cast<std::size_t>(t)].push_back(log_factorial(n));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int n = 0; n < kN; ++n) {
    const std::uint64_t want = bits(reference_log_factorial(n));
    for (const std::vector<double>& values : seen) {
      ASSERT_EQ(bits(values[static_cast<std::size_t>(n)]), want)
          << "n = " << n;
    }
  }
}
#endif

TEST(LogBinomialCoefficient, KnownValues) {
  EXPECT_NEAR(log_binomial_coefficient(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(log_binomial_coefficient(10, 5), std::log(252.0), 1e-10);
  EXPECT_DOUBLE_EQ(log_binomial_coefficient(7, 0), 0.0);
  EXPECT_DOUBLE_EQ(log_binomial_coefficient(7, 7), 0.0);
  EXPECT_THROW(log_binomial_coefficient(3, 4), AssertionError);
  EXPECT_THROW(log_binomial_coefficient(3, -1), AssertionError);
}

TEST(BinomialPmf, MatchesDirectComputation) {
  // Binom(2; 4, 0.5) = 6/16.
  EXPECT_NEAR(binomial_pmf(2, 4, 0.5), 0.375, 1e-12);
  // Binom(0; 3, 0.2) = 0.8^3.
  EXPECT_NEAR(binomial_pmf(0, 3, 0.2), 0.512, 1e-12);
  EXPECT_DOUBLE_EQ(binomial_pmf(-1, 3, 0.2), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 3, 0.2), 0.0);
}

TEST(BinomialPmf, BoundaryProbabilities) {
  EXPECT_DOUBLE_EQ(binomial_pmf(0, 5, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(1, 5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 5, 1.0), 0.0);
  EXPECT_TRUE(std::isinf(log_binomial_pmf(1, 5, 0.0)));
  EXPECT_DOUBLE_EQ(log_binomial_pmf(0, 5, 0.0), 0.0);
}

TEST(BinomialPmf, SumsToOne) {
  for (double p : {0.1, 0.37, 0.9}) {
    double total = 0.0;
    for (int k = 0; k <= 30; ++k) total += binomial_pmf(k, 30, p);
    EXPECT_NEAR(total, 1.0, 1e-12) << "p=" << p;
  }
}

TEST(BinomialPmf, LargeNDoesNotUnderflowInLogSpace) {
  // m = 1000, p = 0.3, k = 999: linear pmf underflows to ~1e-520, the log
  // form must stay finite and sane.
  const double lp = log_binomial_pmf(999, 1000, 0.3);
  EXPECT_TRUE(std::isfinite(lp));
  EXPECT_LT(lp, -1000.0);
}

TEST(BinomialCdf, MatchesPmfSums) {
  double acc = 0.0;
  for (int k = 0; k <= 7; ++k) {
    acc += binomial_pmf(k, 20, 0.35);
    EXPECT_NEAR(binomial_cdf(k, 20, 0.35), acc, 1e-12);
  }
  EXPECT_DOUBLE_EQ(binomial_cdf(-1, 20, 0.35), 0.0);
  EXPECT_DOUBLE_EQ(binomial_cdf(20, 20, 0.35), 1.0);
  EXPECT_DOUBLE_EQ(binomial_cdf(25, 20, 0.35), 1.0);
}

TEST(NormalCdf, StandardValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963984540054), 0.025, 1e-9);
  EXPECT_NEAR(normal_cdf(8.0), 1.0, 1e-12);
}

TEST(NormalPdf, SymmetricAndPeaked) {
  EXPECT_NEAR(normal_pdf(0.0), 1.0 / std::sqrt(2 * M_PI), 1e-12);
  EXPECT_DOUBLE_EQ(normal_pdf(1.3), normal_pdf(-1.3));
}

TEST(Gaussian2dPdfRadial, MatchesPaperFormula) {
  const double sigma = 50.0;
  // At r = 0 the density is 1 / (2 pi sigma^2).
  EXPECT_NEAR(gaussian2d_pdf_radial(0.0, sigma), 1.0 / (2 * M_PI * 2500.0),
              1e-15);
  // Figure 2's peak value is ~6.4e-5 for sigma = 50.
  EXPECT_NEAR(gaussian2d_pdf_radial(0.0, sigma), 6.366e-5, 1e-7);
  EXPECT_THROW(gaussian2d_pdf_radial(1.0, 0.0), AssertionError);
}

TEST(RayleighCdf, KnownValuesAndMonotonicity) {
  const double sigma = 50.0;
  EXPECT_DOUBLE_EQ(rayleigh_cdf(0.0, sigma), 0.0);
  EXPECT_DOUBLE_EQ(rayleigh_cdf(-3.0, sigma), 0.0);
  // P(|X| <= sigma) = 1 - e^{-1/2}.
  EXPECT_NEAR(rayleigh_cdf(sigma, sigma), 1.0 - std::exp(-0.5), 1e-12);
  double prev = 0.0;
  for (double r = 0.0; r < 300.0; r += 10.0) {
    const double c = rayleigh_cdf(r, sigma);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(rayleigh_cdf(1000.0, sigma), 1.0, 1e-12);
}

TEST(RayleighCdf, IsTheGaussian2dDiskIntegral) {
  // Cross-check: integrating the radial 2-D Gaussian over a disk of radius
  // r0 equals the Rayleigh CDF at r0.
  const double sigma = 13.0, r0 = 20.0;
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double r = (i + 0.5) * r0 / n;
    sum += gaussian2d_pdf_radial(r, sigma) * 2 * M_PI * r * (r0 / n);
  }
  EXPECT_NEAR(sum, rayleigh_cdf(r0, sigma), 1e-6);
}

}  // namespace
}  // namespace lad
