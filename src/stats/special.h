// Special functions: log-space binomial pmf/cdf (the Probability metric of
// Section 5.4 evaluates Binom(oi; m, gi(Le)) where m can be 1000 and the pmf
// underflows double range), normal cdf, and log-gamma helpers.
#pragma once

namespace lad {

/// log(n!) via lgamma; exact for the integers we use.  Read from a table
/// (filled by the same lgamma calls, so bit-identical) for n < 1024.
double log_factorial(int n);

/// log C(n, k); requires 0 <= k <= n.
double log_binomial_coefficient(int n, int k);

/// log Binom(k; n, p).  Exact conventions at the boundary:
///   p == 0:  log pmf = 0 if k == 0 else -inf
///   p == 1:  log pmf = 0 if k == n else -inf
double log_binomial_pmf(int k, int n, double p);

/// Binom(k; n, p) in linear space (may underflow to 0 for extreme tails).
double binomial_pmf(int k, int n, double p);

/// P(X <= k) for X ~ Binom(n, p); direct summation in log space.
double binomial_cdf(int k, int n, double p);

/// Standard normal CDF.
double normal_cdf(double x);

/// Standard normal pdf.
double normal_pdf(double x);

/// 2-D isotropic Gaussian pdf with std sigma, evaluated at distance r from
/// the mean: (1 / (2 pi sigma^2)) exp(-r^2 / (2 sigma^2)).  This is the
/// paper's deployment pdf f(x, y) written radially.
double gaussian2d_pdf_radial(double r, double sigma);

/// Rayleigh CDF: P(|X| <= r) for the 2-D isotropic Gaussian above; equals
/// 1 - exp(-r^2 / (2 sigma^2)).  This is the first (z < R) term of Theorem 1.
double rayleigh_cdf(double r, double sigma);

}  // namespace lad
