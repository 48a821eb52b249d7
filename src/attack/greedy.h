// The greedy metric-minimizing taint procedures of Section 7.1.
//
// The attacker knows the victim's untainted observation `a`, the expected
// observation `mu` at the fake location Le it planted, and the detection
// metric; it crafts a tainted observation `o` that minimizes the metric
// while staying feasible for its attack class and budget x.
//
// The paper spells out Dec-Bounded x Diff: "make oi as close to mu_i as
// possible" - free increases up to mu_i, budgeted unit decrements toward
// mu_i.  We implement all 2 x 3 combinations with the same structure:
//
//   1. free increases (Dec-Bounded only) move o_i *upward* to the value
//      minimizing the metric's group term,
//   2. unit decrements are applied greedily by marginal metric reduction
//      (a max-heap of gains) until the budget is spent or no decrement
//      helps.
//
// For the separable metrics (Diff, Add-all) greedy-by-gain is exactly
// optimal: group terms are independent and each term is convex in o_i, so
// marginal gains are non-increasing and the greedy exchange argument
// applies.  For the Prob metric (a max over group terms, each unimodal in
// o_i) the procedure lowers the current arg-max while a decrement helps,
// which mirrors the paper's minimize-the-indicator intent.
//
// Prefix property: step 1 ignores the budget, and both decrement loops read
// x only in their `spent < x` guard, so the taint at budget b is the walk's
// state after min(b, L) decrements, where L is the length of the unbounded
// walk.  One walk therefore serves every budget of an ascending list (the
// compromised fractions of a sweep, or the rounds of an evolving attacker):
// greedy_taint_ladder visits each budget's taint as the walk passes it, and
// greedy_taint is its one-budget case.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/observation.h"

namespace lad {

struct TaintResult {
  Observation tainted;  ///< the crafted observation o
  int budget_spent;     ///< decrements consumed (<= x)
};

/// Crafts the metric-minimizing tainted observation.  `mu` is the expected
/// observation at the planted location, `m` the nodes-per-group.
TaintResult greedy_taint(const Observation& a, const ExpectedObservation& mu,
                         int m, MetricKind metric, AttackClass cls, int x);

/// Called once per rung: the rung's index into `budgets`, the live tainted
/// observation (valid only during the call) and the decrements spent.
using TaintRungVisitor =
    std::function<void(std::size_t rung, const Observation& tainted,
                       int budget_spent)>;

/// One greedy walk for a non-decreasing list of budgets: rung r sees
/// exactly greedy_taint(a, mu, m, metric, cls, budgets[r]).  Returns the
/// walk's end state, the taint at the last budget; greedy_taint is the
/// call with budgets {x}.  A Prob walk reads its terms from `prob` (built
/// from the same mu and m) when given, and builds its own table otherwise.
TaintResult greedy_taint_ladder(const Observation& a,
                                const ExpectedObservation& mu, int m,
                                MetricKind metric, AttackClass cls,
                                std::span<const int> budgets,
                                const TaintRungVisitor& visit,
                                const ProbTable* prob = nullptr);

}  // namespace lad
