// The three anomaly-detection metrics of Section 5.
//
// All metrics are exposed through one convention: score(o, mu, m) returns a
// real number where HIGHER means MORE ANOMALOUS.  This lets the detector,
// trainer, ROC builder and greedy attack procedures treat metrics
// uniformly.
//
//  * Diff    (5.2):  DM = sum_i |o_i - mu_i|                (higher = worse)
//  * Add-all (5.3):  AM = sum_i max(o_i, mu_i)              (higher = worse)
//  * Prob    (5.4):  PM = min_i Binom(o_i; m, g_i(Le)); the paper alarms
//                    when PM < threshold, so the score is -log PM
//                    (higher = worse), computed in log space because the
//                    pmf underflows for m = 1000.
//
// A Prob term needs p_i = clamp(mu_i / m, 0, 1), log p_i and log1p(-p_i).
// ProbTable computes them once per (mu, m), so the greedy taint and every
// scorer at one (victim, Le) read them instead of recomputing two logs per
// term; its term() is bit-identical to prob_metric_group_score because both
// evaluate the one expression in detail::prob_group_term.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "deploy/observation.h"
#include "stats/special.h"
#include "util/assert.h"

namespace lad {

enum class MetricKind { kDiff, kAddAll, kProb };

const char* metric_name(MetricKind kind);
MetricKind metric_from_name(const std::string& name);

class Metric {
 public:
  virtual ~Metric() = default;

  virtual MetricKind kind() const = 0;
  std::string name() const { return metric_name(kind()); }

  /// Anomaly score of actual observation `o` against expected observation
  /// `mu` (Eq. 2) with `m` nodes per group.  Higher = more anomalous.
  virtual double score(const Observation& o, const ExpectedObservation& mu,
                       int m) const = 0;
};

class DiffMetric final : public Metric {
 public:
  MetricKind kind() const override { return MetricKind::kDiff; }
  double score(const Observation& o, const ExpectedObservation& mu,
               int m) const override;
};

class AddAllMetric final : public Metric {
 public:
  MetricKind kind() const override { return MetricKind::kAddAll; }
  double score(const Observation& o, const ExpectedObservation& mu,
               int m) const override;
};

class ProbMetric final : public Metric {
 public:
  MetricKind kind() const override { return MetricKind::kProb; }
  double score(const Observation& o, const ExpectedObservation& mu,
               int m) const override;

  /// min_i Binom(o_i; m, p_i) in linear space (may underflow; tests only).
  static double min_probability(const Observation& o,
                                const ExpectedObservation& mu, int m);
};

std::unique_ptr<Metric> make_metric(MetricKind kind);

/// -log pmf of one group's count: the Prob metric's per-group term.
double prob_metric_group_score(int count, double mu_i, int m);

namespace detail {

/// The Prob metric's p for one group, clamp(mu_i / m, 0, 1).
inline double prob_p(double mu_i, int m) {
  LAD_REQUIRE_MSG(m > 0, "m must be positive");
  const double p = std::clamp(mu_i / static_cast<double>(m), 0.0, 1.0);
  // Only a NaN mu_i survives the clamp; log_binomial_pmf rejected it so.
  LAD_REQUIRE_MSG(p >= 0.0 && p <= 1.0, "binomial p must be in [0,1]");
  return p;
}

/// -log Binom(count; m, p): log_binomial_pmf's conventions, negated, with
/// an impossible count (out of [0, m], or any count p in {0, 1} rules out)
/// capped at 1e12 so scores stay finite, orderable and trainable.  `logs()`
/// returns {log p, log1p(-p)} and runs only when the general formula does.
template <class Logs>
double prob_group_term(int count, int m, double p, const Logs& logs) {
  constexpr double kImpossible = 1e12;
  if (count < 0 || count > m) return kImpossible;
  if (p == 0.0) return count == 0 ? -0.0 : kImpossible;
  if (p == 1.0) return count == m ? -0.0 : kImpossible;
  const auto [log_p, log1m_p] = logs();
  const double lp = log_binomial_coefficient(m, count) + count * log_p +
                    (m - count) * log1m_p;
  return std::isinf(lp) ? kImpossible : -lp;
}

}  // namespace detail

/// The Prob metric's per-group p, log p and log1p(-p) for one expected
/// observation, so a term is table reads plus log C(m, count).  term() and
/// score() are bit-identical to prob_metric_group_score and
/// ProbMetric::score against the same (mu, m).
class ProbTable {
 public:
  ProbTable(const ExpectedObservation& mu, int m);

  std::size_t size() const { return groups_.size(); }
  /// clamp(mu_i / m, 0, 1).
  double p(std::size_t i) const { return groups_[i].p; }

  /// prob_metric_group_score(count, mu[i], m).
  double term(int count, std::size_t i) const {
    const Group& g = groups_[i];
    return detail::prob_group_term(count, m_, g.p, [&g] {
      return std::pair{g.log_p, g.log1m_p};
    });
  }

  /// ProbMetric::score(o, mu, m).
  double score(const Observation& o) const;

 private:
  struct Group {
    double p;
    double log_p;    ///< log p; unused (0) when p is 0 or 1
    double log1m_p;  ///< log1p(-p); unused (0) when p is 0 or 1
  };
  int m_;
  std::vector<Group> groups_;
};

}  // namespace lad
