#include "attack/greedy.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/observation.h"
#include "util/assert.h"

namespace lad {
namespace {

/// Mode of Binom(m, p): the count with the highest pmf.
int binomial_mode(int m, double p) {
  const int mode = static_cast<int>(std::floor((m + 1) * p));
  return std::clamp(mode, 0, m);
}

/// Per-group metric term t_i(v) for the separable metrics.
double group_term(MetricKind metric, int v, double mu_i, int m) {
  switch (metric) {
    case MetricKind::kDiff:
      return std::abs(static_cast<double>(v) - mu_i);
    case MetricKind::kAddAll:
      return std::max(static_cast<double>(v), mu_i);
    case MetricKind::kProb:
      return prob_metric_group_score(v, mu_i, m);
  }
  LAD_REQUIRE_MSG(false, "invalid metric");
  return 0.0;  // unreachable
}

/// Best integer value >= lo for group i (the free-increase target).
int best_value_at_least(MetricKind metric, int lo, double mu_i, int m) {
  switch (metric) {
    case MetricKind::kDiff: {
      const int target = static_cast<int>(std::lround(mu_i));
      return std::max(lo, target);
    }
    case MetricKind::kAddAll:
      // Increasing o_i never lowers max(o_i, mu_i); keep it where it is.
      return lo;
    case MetricKind::kProb: {
      const double p = std::clamp(mu_i / static_cast<double>(m), 0.0, 1.0);
      return std::max(lo, binomial_mode(m, p));
    }
  }
  LAD_REQUIRE_MSG(false, "invalid metric");
  return lo;  // unreachable
}

/// Greedy budgeted decrements for the separable metrics (Diff, Add-all):
/// repeatedly take the decrement with the largest marginal reduction.
/// Group terms are convex in v, so marginal gains are non-increasing and
/// the exchange argument makes this optimal.
int decrement_separable(MetricKind metric, Observation& o,
                        const ExpectedObservation& mu, int m, int x) {
  struct Cand {
    double gain;
    std::size_t group;
    bool operator<(const Cand& other) const { return gain < other.gain; }
  };
  auto gain_of = [&](std::size_t i) {
    if (o.counts[i] <= 0) return -1.0;
    return group_term(metric, o.counts[i], mu[i], m) -
           group_term(metric, o.counts[i] - 1, mu[i], m);
  };
  std::priority_queue<Cand> heap;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    const double g = gain_of(i);
    if (g > 0) heap.push({g, i});
  }
  int spent = 0;
  while (spent < x && !heap.empty()) {
    const Cand top = heap.top();
    heap.pop();
    // Re-validate: the stored gain may be stale after earlier decrements.
    const double g = gain_of(top.group);
    if (g <= 0) continue;
    if (g < top.gain) {
      heap.push({g, top.group});
      continue;
    }
    --o.counts[top.group];
    ++spent;
    const double next = gain_of(top.group);
    if (next > 0) heap.push({next, top.group});
  }
  return spent;
}

/// Greedy budgeted decrements for the Prob metric (a max over unimodal
/// group terms): lower the current arg-max while a decrement helps.  The
/// arg-max comes from a max-heap whose equal terms pop the lowest group
/// index, the group a left-to-right `term[i] > term[j]` scan would pick.
/// Only the popped group's term changes per step, so no entry goes stale.
int decrement_prob(Observation& o, const ExpectedObservation& mu, int m,
                   int x) {
  struct Entry {
    double term;
    std::size_t group;
    bool operator<(const Entry& other) const {
      if (term != other.term) return term < other.term;
      return group > other.group;
    }
  };
  std::vector<Entry> entries;
  entries.reserve(mu.size());
  for (std::size_t i = 0; i < mu.size(); ++i) {
    entries.push_back({prob_metric_group_score(o.counts[i], mu[i], m), i});
  }
  std::priority_queue<Entry> heap(std::less<Entry>(), std::move(entries));
  int spent = 0;
  while (spent < x && !heap.empty()) {
    const Entry top = heap.top();
    const std::size_t j = top.group;
    if (o.counts[j] == 0) break;  // cannot decrement the worst group
    const double lower = prob_metric_group_score(o.counts[j] - 1, mu[j], m);
    if (lower >= top.term) break;  // decrementing would not reduce the max
    heap.pop();
    --o.counts[j];
    heap.push({lower, j});
    ++spent;
  }
  return spent;
}

}  // namespace

TaintResult greedy_taint(const Observation& a, const ExpectedObservation& mu,
                         int m, MetricKind metric, AttackClass cls, int x) {
  LAD_REQUIRE_MSG(a.num_groups() == mu.size(),
                  "observation/expectation size mismatch");
  LAD_REQUIRE_MSG(x >= 0, "negative budget");
  a.require_valid();

  Observation o = a;

  // Step 1: free increases (multi-impersonation and friends) - only in the
  // Dec-Bounded class.
  if (cls == AttackClass::kDecBounded) {
    for (std::size_t i = 0; i < mu.size(); ++i) {
      o.counts[i] = best_value_at_least(metric, a.counts[i], mu[i], m);
    }
  }

  // Step 2: budgeted decrements (silence attacks).  After optimal step 1
  // every beneficial decrement goes below a_i and costs exactly one
  // compromised neighbor.
  int spent = 0;
  if (metric == MetricKind::kProb) {
    spent = decrement_prob(o, mu, m, x);
  } else {
    spent = decrement_separable(metric, o, mu, m, x);
  }

  LAD_ASSERT(is_feasible(cls, a, o, x));
  return {std::move(o), spent};
}

}  // namespace lad
