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
//
// It also holds the one likelihood search both estimators run (maximize):
// the beaconless MLE over the plain term, the corrector over the capped
// one.  Every term is <= 0 (log C(m, 0) = log C(m, m) = 0 exactly, every
// other pmf is < 1, and a cap floor is negative), which is what lets the
// search abandon a hopeless sum without changing a single result.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <vector>

#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/aabb.h"
#include "geom/vec2.h"

namespace lad {

/// The best point a likelihood search found and its log-likelihood.
struct LikelihoodPeak {
  Vec2 point;
  double ll;
};

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

  /// log_binomial_pmf(k, m, max(gz.at(theta, dp_group), kPFloor)) for a
  /// group whose deployment point lies at squared distance d2 from theta.
  double term_at_d2(int k, double d2) const {
    if (k < 0 || k > m_) return -std::numeric_limits<double>::infinity();
    if (d2 >= far_d2_) return far_[static_cast<std::size_t>(k)];
    return near_term(k, d2);
  }

  /// Least squared distance at which g is past the table's support.
  double far_d2() const { return far_d2_; }

  /// sum_g term(g, obs.counts[g], d2_g) at theta, in group order, where
  /// d2_g is theta's squared distance to deployment point g and `term` is
  /// <= 0 and never NaN.  The sum stops as soon as it is <= `floor`, and
  /// then returns that partial sum: the rest could only lower it further.
  template <class Term>
  double sum(const Observation& obs, Vec2 theta, const Term& term,
             double floor = -std::numeric_limits<double>::infinity()) const {
    const std::vector<Vec2>& points = model_->deployment_points();
    double ll = 0.0;
    for (std::size_t g = 0; g < obs.num_groups(); ++g) {
      ll += term(g, obs.counts[g], distance2(theta, points[g]));
      if (ll <= floor) break;
    }
    return ll;
  }

  /// Maximizes sum(obs, theta, term) over the field by pattern search:
  /// from `seed`, try the 8-neighbourhood stencil at the current pitch,
  /// move to every strict improvement, halve the pitch after a round
  /// without one, and stop once it drops below `tol_meters`.  The pitch
  /// starts at half a grid cell so the seed can escape a wrong cell.
  /// Exact shortcuts over evaluating every stencil point in full:
  ///  * a candidate equal to a point already evaluated in this search is
  ///    skipped - that point was rejected (ll <= best then) or accepted
  ///    (best only grew since), so it cannot strictly improve now;
  ///  * a candidate's sum stops once it is <= the best (see sum), so only
  ///    an accepted candidate completes, with the very bits of a full sum.
  template <class Term>
  LikelihoodPeak maximize(const Observation& obs, Vec2 seed,
                          double tol_meters, const Term& term) const {
    const DeploymentConfig& cfg = model_->config();
    const Aabb field = cfg.field();
    static constexpr std::array<Vec2, 8> kDirs = {
        Vec2{1, 0},  Vec2{-1, 0}, Vec2{0, 1},  Vec2{0, -1},
        Vec2{1, 1},  Vec2{1, -1}, Vec2{-1, 1}, Vec2{-1, -1}};
    LikelihoodPeak best{seed, sum(obs, seed, term)};
    std::vector<Vec2> visited{seed};
    double pitch =
        cfg.field_side / (2.0 * std::max(cfg.grid_nx, cfg.grid_ny));
    while (pitch >= tol_meters) {
      bool improved = false;
      for (const Vec2& d : kDirs) {
        const Vec2 cand = field.clamp(best.point + d * pitch);
        if (std::find(visited.begin(), visited.end(), cand) !=
            visited.end()) {
          continue;
        }
        visited.push_back(cand);
        const double ll = sum(obs, cand, term, best.ll);
        if (ll > best.ll) {
          best = {cand, ll};
          improved = true;
        }
      }
      if (!improved) pitch /= 2.0;
    }
    return best;
  }

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
