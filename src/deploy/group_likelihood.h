// One group's term of the beaconless log-likelihood (ref. [8]):
//
//   log Binom(o_i; m, max(g_i(theta), kPFloor)).
//
// Section 3.3 tabulates g(z) so each lookup "takes only constant time";
// this class extends that to the rest of the term.  It is the one place
// the beaconless MLE and the location corrector evaluate it, and it
// returns bit-for-bit what log_binomial_pmf (the retained scalar
// reference) returns for the floored g:
//  * log C(m, k) comes from a table filled by log_binomial_coefficient,
//    so no lgamma runs per term;
//  * a group whose deployment point lies at or beyond the g(z) support
//    radius has g == 0, floored to kPFloor, so its term depends on k
//    alone: one distance2 and one read of a table filled by
//    log_binomial_pmf(k, m, kPFloor).  The squared threshold is the least
//    d2 whose sqrt reaches the radius, so `d2 >= far_d2()` is exactly
//    GzTable's own `z >= support_radius()` test;
//  * a nearer group pays sqrt, the interpolation, log and log1p, through
//    every branch of log_binomial_pmf.
#pragma once

#include <limits>
#include <vector>

#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "geom/vec2.h"

namespace lad {

class GroupLikelihood {
 public:
  /// Floor on g_i: observing a node from a group whose probability at
  /// theta is (numerically) zero must make theta very unlikely, but not
  /// -inf - tainted observations would otherwise flatten the whole field
  /// to -inf and strand the search.  With the floor, locations explaining
  /// more of the observation still compare as strictly better.
  static constexpr double kPFloor = 1e-300;

  /// The model and gz table must outlive this object.
  GroupLikelihood(const DeploymentModel& model, const GzTable& gz);

  /// log_binomial_pmf(k, m, max(gz.at(theta, dp_group), kPFloor)).
  /// `group` must index a deployment point (unchecked).
  double term(int k, Vec2 theta, int group) const {
    const std::vector<Vec2>& points = model_->deployment_points();
    return term_at_d2(
        k, distance2(theta, points[static_cast<std::size_t>(group)]));
  }

  /// The same term for a group whose deployment point lies at squared
  /// distance d2 from theta.
  double term_at_d2(int k, double d2) const {
    if (k < 0 || k > m_) return -std::numeric_limits<double>::infinity();
    if (d2 >= far_d2_) return far_[static_cast<std::size_t>(k)];
    return near_term(k, d2);
  }

  /// Least squared distance at which g is past the table's support.
  double far_d2() const { return far_d2_; }

 private:
  double near_term(int k, double d2) const;

  const DeploymentModel* model_;
  const GzTable* gz_;
  int m_;
  double far_d2_;
  std::vector<double> log_choose_;  ///< log C(m, k), k = 0..m
  std::vector<double> far_;         ///< log Binom(k; m, kPFloor)
};

}  // namespace lad
