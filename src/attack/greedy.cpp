#include "attack/greedy.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <optional>
#include <queue>
#include <span>
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

/// Per-group metric term t_i(v) for the separable metrics (Diff, Add-all).
double separable_term(MetricKind metric, int v, double mu_i) {
  return metric == MetricKind::kDiff
             ? std::abs(static_cast<double>(v) - mu_i)
             : std::max(static_cast<double>(v), mu_i);
}

/// Best integer value >= lo for group i (the free-increase target).
int best_value_at_least(MetricKind metric, int lo, double mu_i, int m,
                        const ProbTable* prob, std::size_t i) {
  switch (metric) {
    case MetricKind::kDiff: {
      const int target = static_cast<int>(std::lround(mu_i));
      return std::max(lo, target);
    }
    case MetricKind::kAddAll:
      // Increasing o_i never lowers max(o_i, mu_i); keep it where it is.
      return lo;
    case MetricKind::kProb:
      return std::max(lo, binomial_mode(m, prob->p(i)));
  }
  LAD_REQUIRE_MSG(false, "invalid metric");
  return lo;  // unreachable
}

/// Greedy decrements for the separable metrics (Diff, Add-all): each step
/// takes the decrement with the largest marginal reduction.  Group terms
/// are convex in v, so marginal gains are non-increasing and the exchange
/// argument makes this optimal.
class SeparableWalk {
 public:
  SeparableWalk(MetricKind metric, const Observation& o,
                const ExpectedObservation& mu)
      : metric_(metric), mu_(mu) {
    for (std::size_t i = 0; i < mu.size(); ++i) {
      const double g = gain_of(o, i);
      if (g > 0) heap_.push({g, i});
    }
  }

  /// Makes the next decrement in `o`; false once no decrement helps.
  bool step(Observation& o) {
    while (!heap_.empty()) {
      const Cand top = heap_.top();
      heap_.pop();
      // Re-validate: the stored gain may be stale after earlier decrements.
      const double g = gain_of(o, top.group);
      if (g <= 0) continue;
      if (g < top.gain) {
        heap_.push({g, top.group});
        continue;
      }
      --o.counts[top.group];
      const double next = gain_of(o, top.group);
      if (next > 0) heap_.push({next, top.group});
      return true;
    }
    return false;
  }

 private:
  struct Cand {
    double gain;
    std::size_t group;
    bool operator<(const Cand& other) const { return gain < other.gain; }
  };

  double gain_of(const Observation& o, std::size_t i) const {
    if (o.counts[i] <= 0) return -1.0;
    return separable_term(metric_, o.counts[i], mu_[i]) -
           separable_term(metric_, o.counts[i] - 1, mu_[i]);
  }

  MetricKind metric_;
  const ExpectedObservation& mu_;
  std::priority_queue<Cand> heap_;
};

/// Greedy decrements for the Prob metric (a max over unimodal group
/// terms): each step lowers the current arg-max if a decrement helps.  The
/// arg-max comes from a max-heap whose equal terms pop the lowest group
/// index, the group a left-to-right `term[i] > term[j]` scan would pick.
/// Only the popped group's term changes per step, so no entry goes stale.
class ProbWalk {
 public:
  ProbWalk(const Observation& o, const ProbTable& prob) : prob_(prob) {
    std::vector<Entry> entries;
    entries.reserve(prob.size());
    for (std::size_t i = 0; i < prob.size(); ++i) {
      entries.push_back({prob.term(o.counts[i], i), i});
    }
    heap_ = std::priority_queue<Entry>(std::less<Entry>(), std::move(entries));
  }

  /// Makes the next decrement in `o`; false once no decrement helps.
  bool step(Observation& o) {
    if (heap_.empty()) return false;
    const Entry top = heap_.top();
    const std::size_t j = top.group;
    if (o.counts[j] == 0) return false;  // cannot decrement the worst group
    const double lower = prob_.term(o.counts[j] - 1, j);
    if (lower >= top.term) return false;  // would not reduce the max
    heap_.pop();
    --o.counts[j];
    heap_.push({lower, j});
    return true;
  }

 private:
  struct Entry {
    double term;
    std::size_t group;
    bool operator<(const Entry& other) const {
      if (term != other.term) return term < other.term;
      return group > other.group;
    }
  };

  const ProbTable& prob_;
  std::priority_queue<Entry> heap_;
};

}  // namespace

TaintResult greedy_taint_ladder(const Observation& a,
                                const ExpectedObservation& mu, int m,
                                MetricKind metric, AttackClass cls,
                                std::span<const int> budgets,
                                const TaintRungVisitor& visit,
                                const ProbTable* prob) {
  LAD_REQUIRE_MSG(a.num_groups() == mu.size(),
                  "observation/expectation size mismatch");
  LAD_REQUIRE_MSG(budgets.empty() || budgets.front() >= 0, "negative budget");
  LAD_REQUIRE_MSG(std::is_sorted(budgets.begin(), budgets.end()),
                  "ladder budgets must be non-decreasing");
  a.require_valid();
  std::optional<ProbTable> own_prob;
  if (metric == MetricKind::kProb) {
    if (prob == nullptr) prob = &own_prob.emplace(mu, m);
    LAD_REQUIRE_MSG(prob->size() == mu.size(),
                    "Prob table/expectation size mismatch");
  }

  Observation o = a;

  // Step 1: free increases (multi-impersonation and friends) - only in the
  // Dec-Bounded class.
  if (cls == AttackClass::kDecBounded) {
    for (std::size_t i = 0; i < mu.size(); ++i) {
      o.counts[i] = best_value_at_least(metric, a.counts[i], mu[i], m, prob, i);
    }
  }

  // Step 2: budgeted decrements (silence attacks).  After optimal step 1
  // every beneficial decrement goes below a_i and costs exactly one
  // compromised neighbor.  The walk steps while the next rung needs more
  // decrements; once no decrement helps, the remaining rungs share its end.
  int spent = 0;
  auto climb = [&](auto walk) {
    bool walking = true;
    for (std::size_t rung = 0; rung < budgets.size();) {
      if (walking && spent < budgets[rung]) {
        walking = walk.step(o);
        if (walking) ++spent;
        continue;
      }
      LAD_ASSERT(is_feasible(cls, a, o, budgets[rung]));
      visit(rung++, o, spent);
    }
  };
  if (metric == MetricKind::kProb) {
    climb(ProbWalk(o, *prob));
  } else {
    climb(SeparableWalk(metric, o, mu));
  }
  return {std::move(o), spent};
}

TaintResult greedy_taint(const Observation& a, const ExpectedObservation& mu,
                         int m, MetricKind metric, AttackClass cls, int x) {
  const int budget[] = {x};
  return greedy_taint_ladder(a, mu, m, metric, cls, budget,
                             [](std::size_t, const Observation&, int) {});
}

}  // namespace lad
