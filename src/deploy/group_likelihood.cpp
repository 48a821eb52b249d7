#include "deploy/group_likelihood.h"

#include <cmath>
#include <limits>

#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "stats/special.h"
#include "util/assert.h"

namespace lad {

namespace {

/// The least d2 with sqrt(d2) >= r.  sqrt is correctly rounded, hence
/// monotone, so that set is a ray and one nextafter walk from r*r finds
/// its end.
double least_square_reaching(double r) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double d2 = r * r;
  while (std::sqrt(d2) < r) d2 = std::nextafter(d2, kInf);
  while (d2 > 0.0 && std::sqrt(std::nextafter(d2, 0.0)) >= r) {
    d2 = std::nextafter(d2, 0.0);
  }
  return d2;
}

}  // namespace

GroupLikelihood::GroupLikelihood(const DeploymentModel& model,
                                 const GzTable& gz)
    : model_(&model),
      gz_(&gz),
      m_(model.config().nodes_per_group),
      far_d2_(least_square_reaching(gz.support_radius())) {
  LAD_REQUIRE_MSG(m_ >= 0, "binomial n must be non-negative");
  log_choose_.resize(static_cast<std::size_t>(m_) + 1);
  far_.resize(log_choose_.size());
  for (int k = 0; k <= m_; ++k) {
    log_choose_[static_cast<std::size_t>(k)] = log_binomial_coefficient(m_, k);
    far_[static_cast<std::size_t>(k)] = log_binomial_pmf(k, m_, kPFloor);
  }
}

// log_binomial_pmf's body for a floored p (so p > 0), with log C(m, k)
// read from the table.  The k == 0 and k == m shortcuts drop a product
// that is -0.0 there (0 times the negative log(p) or log1p(-p) of a
// p in (0, 1)), and x + -0.0 == x for every x, so the bits are unchanged.
double GroupLikelihood::near_term(int k, double d2) const {
  double p = (*gz_)(std::sqrt(d2));
  if (p < kPFloor) p = kPFloor;
  LAD_REQUIRE_MSG(p >= 0.0 && p <= 1.0, "binomial p must be in [0,1]");
  if (p == 1.0) {
    return k == m_ ? 0.0 : -std::numeric_limits<double>::infinity();
  }
  const double log_choose = log_choose_[static_cast<std::size_t>(k)];
  if (k == 0) return log_choose + m_ * std::log1p(-p);
  if (k == m_) return log_choose + k * std::log(p);
  return log_choose + k * std::log(p) + (m_ - k) * std::log1p(-p);
}

}  // namespace lad
