#include "core/metric.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "deploy/observation.h"
#include "stats/special.h"
#include "util/assert.h"
#include "util/string_util.h"

namespace lad {

const char* metric_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kDiff: return "diff";
    case MetricKind::kAddAll: return "add-all";
    case MetricKind::kProb: return "prob";
  }
  return "?";
}

MetricKind metric_from_name(const std::string& name) {
  const std::string n = to_lower(name);
  if (n == "diff" || n == "dm") return MetricKind::kDiff;
  if (n == "add-all" || n == "addall" || n == "am") return MetricKind::kAddAll;
  if (n == "prob" || n == "probability" || n == "pm") return MetricKind::kProb;
  LAD_REQUIRE_MSG(false, "unknown metric name: " << name);
  return MetricKind::kDiff;  // unreachable
}

namespace {
void check_sizes(const Observation& o, std::size_t expected_groups) {
  LAD_REQUIRE_MSG(o.num_groups() == expected_groups,
                  "observation has " << o.num_groups()
                                     << " groups but expectation has "
                                     << expected_groups);
}
}  // namespace

double DiffMetric::score(const Observation& o, const ExpectedObservation& mu,
                         int /*m*/) const {
  check_sizes(o, mu.size());
  double dm = 0.0;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    dm += std::abs(static_cast<double>(o.counts[i]) - mu[i]);
  }
  return dm;
}

double AddAllMetric::score(const Observation& o, const ExpectedObservation& mu,
                           int /*m*/) const {
  check_sizes(o, mu.size());
  double am = 0.0;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    am += std::max(static_cast<double>(o.counts[i]), mu[i]);
  }
  return am;
}

double prob_metric_group_score(int count, double mu_i, int m) {
  const double p = detail::prob_p(mu_i, m);
  return detail::prob_group_term(count, m, p, [p] {
    return std::pair{std::log(p), std::log1p(-p)};
  });
}

ProbTable::ProbTable(const ExpectedObservation& mu, int m) : m_(m) {
  groups_.reserve(mu.size());
  for (double mu_i : mu) {
    const double p = detail::prob_p(mu_i, m);
    // The logs of p in {0, 1} are never read: skip -inf and its FP flag.
    const bool interior = p > 0.0 && p < 1.0;
    groups_.push_back({p, interior ? std::log(p) : 0.0,
                       interior ? std::log1p(-p) : 0.0});
  }
}

double ProbTable::score(const Observation& o) const {
  check_sizes(o, groups_.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    worst = std::max(worst, term(o.counts[i], i));
  }
  return worst;
}

double ProbMetric::score(const Observation& o, const ExpectedObservation& mu,
                         int m) const {
  check_sizes(o, mu.size());
  // Alarm when min_i Pr(X_i = o_i) is small  <=>  max_i -log Pr is large.
  double worst = 0.0;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    worst = std::max(worst, prob_metric_group_score(o.counts[i], mu[i], m));
  }
  return worst;
}

double ProbMetric::min_probability(const Observation& o,
                                   const ExpectedObservation& mu, int m) {
  check_sizes(o, mu.size());
  double min_p = 1.0;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    const double p = std::clamp(mu[i] / static_cast<double>(m), 0.0, 1.0);
    min_p = std::min(min_p, binomial_pmf(o.counts[i], m, p));
  }
  return min_p;
}

std::unique_ptr<Metric> make_metric(MetricKind kind) {
  switch (kind) {
    case MetricKind::kDiff: return std::make_unique<DiffMetric>();
    case MetricKind::kAddAll: return std::make_unique<AddAllMetric>();
    case MetricKind::kProb: return std::make_unique<ProbMetric>();
  }
  LAD_REQUIRE_MSG(false, "invalid metric kind");
  return nullptr;  // unreachable
}

}  // namespace lad
