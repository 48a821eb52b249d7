#include "attack/greedy.h"

#include <gtest/gtest.h>

#include "util/assert.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/observation.h"
#include "rng/rng.h"

namespace lad {
namespace {

double score_of(MetricKind kind, const Observation& o,
                const ExpectedObservation& mu, int m) {
  return make_metric(kind)->score(o, mu, m);
}

TEST(GreedyDiffDecBounded, PaperProcedureExactly) {
  // Section 7.1's worked procedure: increases are free to mu_i, decreases
  // consume budget one unit at a time.
  const Observation a(std::vector<int>{10, 0, 4});
  const ExpectedObservation mu = {2.0, 6.0, 4.0};
  const int m = 50;
  // Budget 3: group 0 can only come down to 7; group 1 rises to 6 free.
  const TaintResult r =
      greedy_taint(a, mu, m, MetricKind::kDiff, AttackClass::kDecBounded, 3);
  EXPECT_EQ(r.tainted.counts, (std::vector<int>{7, 6, 4}));
  EXPECT_EQ(r.budget_spent, 3);
  // Unlimited budget: o == round(mu) everywhere.
  const TaintResult full =
      greedy_taint(a, mu, m, MetricKind::kDiff, AttackClass::kDecBounded, 100);
  EXPECT_EQ(full.tainted.counts, (std::vector<int>{2, 6, 4}));
  EXPECT_EQ(full.budget_spent, 8);
}

TEST(GreedyDiffDecBounded, RoundsFractionalTargets) {
  const Observation a(std::vector<int>{0, 0});
  const ExpectedObservation mu = {2.4, 2.6};
  const TaintResult r =
      greedy_taint(a, mu, 50, MetricKind::kDiff, AttackClass::kDecBounded, 0);
  EXPECT_EQ(r.tainted.counts, (std::vector<int>{2, 3}));
  EXPECT_EQ(r.budget_spent, 0);
}

TEST(GreedyDiffDecOnly, NeverIncreasesAndRespectsBudget) {
  const Observation a(std::vector<int>{10, 0, 4});
  const ExpectedObservation mu = {2.0, 6.0, 4.0};
  const TaintResult r =
      greedy_taint(a, mu, 50, MetricKind::kDiff, AttackClass::kDecOnly, 5);
  EXPECT_TRUE(is_feasible_dec_only(a, r.tainted, 5));
  // Group 1 stays at 0 (cannot rise); group 0 eats the whole budget.
  EXPECT_EQ(r.tainted.counts, (std::vector<int>{5, 0, 4}));
  EXPECT_EQ(r.budget_spent, 5);
}

TEST(GreedyAddAll, DecrementsOnlyWhereAboveMu) {
  const Observation a(std::vector<int>{8, 1});
  const ExpectedObservation mu = {3.0, 5.0};
  const TaintResult r =
      greedy_taint(a, mu, 50, MetricKind::kAddAll, AttackClass::kDecBounded, 4);
  // AM = max(o0, 3) + max(o1, 5).  Only group 0 decrements help (until 4
  // is spent or o0 hits 3); group 1 sits below mu already.
  EXPECT_EQ(r.tainted.counts, (std::vector<int>{4, 1}));
  EXPECT_EQ(r.budget_spent, 4);
  EXPECT_DOUBLE_EQ(score_of(MetricKind::kAddAll, r.tainted, mu, 50), 9.0);
}

TEST(GreedyAddAll, StopsWhenNoDecrementHelps) {
  const Observation a(std::vector<int>{2, 3});
  const ExpectedObservation mu = {5.0, 5.0};
  const TaintResult r =
      greedy_taint(a, mu, 50, MetricKind::kAddAll, AttackClass::kDecBounded, 10);
  EXPECT_EQ(r.budget_spent, 0);
  EXPECT_EQ(r.tainted.counts, a.counts);
}

TEST(GreedyProb, FreeIncreaseHitsTheMode) {
  const Observation a(std::vector<int>{0, 5});
  const ExpectedObservation mu = {30.0, 5.0};  // p0 = 0.3, m = 100
  const TaintResult r =
      greedy_taint(a, mu, 100, MetricKind::kProb, AttackClass::kDecBounded, 0);
  // Mode of Binom(100, 0.3) = floor(101 * 0.3) = 30.
  EXPECT_EQ(r.tainted.counts[0], 30);
  EXPECT_EQ(r.tainted.counts[1], 5);
}

TEST(GreedyProb, DecrementsTheArgmaxGroup) {
  const Observation a(std::vector<int>{20, 2});
  const ExpectedObservation mu = {5.0, 2.0};  // group 0 is wildly over
  const TaintResult r =
      greedy_taint(a, mu, 100, MetricKind::kProb, AttackClass::kDecOnly, 10);
  EXPECT_TRUE(is_feasible_dec_only(a, r.tainted, 10));
  EXPECT_LT(score_of(MetricKind::kProb, r.tainted, mu, 100),
            score_of(MetricKind::kProb, a, mu, 100));
  EXPECT_LT(r.tainted.counts[0], 20);
}

// ---------------------------------------------------------------------------
// Property sweeps: feasibility always holds; greedy never loses to the
// untainted observation; greedy dominates random feasible taints; budget
// monotonicity.
// ---------------------------------------------------------------------------

struct GreedyCase {
  MetricKind metric;
  AttackClass cls;
};

class GreedyPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  MetricKind metric() const {
    return static_cast<MetricKind>(std::get<0>(GetParam()));
  }
  AttackClass cls() const {
    return static_cast<AttackClass>(std::get<1>(GetParam()));
  }
};

Observation random_observation(std::size_t n, int max_count, Rng& rng) {
  Observation o(n);
  for (std::size_t i = 0; i < n; ++i) {
    o.counts[i] = static_cast<int>(rng.uniform_int(0ll, max_count));
  }
  return o;
}

ExpectedObservation random_mu(std::size_t n, double max_mu, Rng& rng) {
  ExpectedObservation mu(n);
  for (std::size_t i = 0; i < n; ++i) mu[i] = rng.uniform(0.0, max_mu);
  return mu;
}

TEST_P(GreedyPropertyTest, TaintIsAlwaysFeasibleAndNeverWorseThanHonest) {
  Rng rng(100 + std::get<0>(GetParam()) * 10 + std::get<1>(GetParam()));
  const int m = 60;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(std::uint64_t{12});
    const Observation a = random_observation(n, 30, rng);
    const ExpectedObservation mu = random_mu(n, 30.0, rng);
    const int x = static_cast<int>(rng.uniform_int(std::uint64_t{25}));
    const TaintResult r = greedy_taint(a, mu, m, metric(), cls(), x);

    ASSERT_TRUE(is_feasible(cls(), a, r.tainted, x))
        << "trial " << trial << " budget " << x;
    EXPECT_LE(r.budget_spent, x);
    EXPECT_LE(score_of(metric(), r.tainted, mu, m) -
                  score_of(metric(), a, mu, m),
              1e-9)
        << "greedy made the attacker worse off";
  }
}

TEST_P(GreedyPropertyTest, GreedyDominatesRandomFeasibleTaints) {
  Rng rng(500 + std::get<0>(GetParam()) * 10 + std::get<1>(GetParam()));
  const int m = 60;
  int greedy_wins = 0, ties = 0, losses = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(std::uint64_t{8});
    const Observation a = random_observation(n, 20, rng);
    const ExpectedObservation mu = random_mu(n, 20.0, rng);
    const int x = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{15}));
    const TaintResult greedy = greedy_taint(a, mu, m, metric(), cls(), x);
    const double greedy_score = score_of(metric(), greedy.tainted, mu, m);

    // Random feasible taint: random decrements within budget; random
    // increases if Dec-Bounded.
    Observation o = a;
    int budget = x;
    for (std::size_t i = 0; i < n && budget > 0; ++i) {
      const int dec = static_cast<int>(rng.uniform_int(
          0ll, std::min(o.counts[i], budget)));
      o.counts[i] -= dec;
      budget -= dec;
    }
    if (cls() == AttackClass::kDecBounded) {
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3)) {
          o.counts[i] += static_cast<int>(rng.uniform_int(std::uint64_t{10}));
        }
      }
    }
    ASSERT_TRUE(is_feasible(cls(), a, o, x));
    const double random_score = score_of(metric(), o, mu, m);
    if (greedy_score < random_score - 1e-9) ++greedy_wins;
    else if (greedy_score > random_score + 1e-9) ++losses;
    else ++ties;
  }
  EXPECT_EQ(losses, 0) << "a random taint beat the greedy minimizer "
                       << losses << " times (wins=" << greedy_wins
                       << ", ties=" << ties << ")";
}

TEST_P(GreedyPropertyTest, MoreBudgetNeverHurts) {
  Rng rng(900 + std::get<0>(GetParam()) * 10 + std::get<1>(GetParam()));
  const int m = 60;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(std::uint64_t{8});
    const Observation a = random_observation(n, 25, rng);
    const ExpectedObservation mu = random_mu(n, 25.0, rng);
    double prev = std::numeric_limits<double>::infinity();
    for (int x : {0, 2, 5, 10, 20, 40}) {
      const TaintResult r = greedy_taint(a, mu, m, metric(), cls(), x);
      const double s = score_of(metric(), r.tainted, mu, m);
      EXPECT_LE(s, prev + 1e-9) << "budget " << x;
      prev = s;
    }
  }
}

std::string greedy_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* metric_names[] = {"Diff", "AddAll", "Prob"};
  static const char* class_names[] = {"DecBounded", "DecOnly"};
  return std::string(metric_names[std::get<0>(info.param)]) +
         class_names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllMetricAttackCombos, GreedyPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 2),   // Diff, AddAll, Prob
                       ::testing::Values(0, 1)),     // DecBounded, DecOnly
    greedy_case_name);

// ---------------------------------------------------------------------------
// Oracle: the Prob-metric decrements against a retained copy of the linear
// arg-max scan they replaced.  The heap must pick the same group on every
// step, ties included (equal terms go to the lowest group index).
// ---------------------------------------------------------------------------

/// The reference: rescan every group term per unit of budget.
int reference_decrement_prob(Observation& o, const ExpectedObservation& mu,
                             int m, int x) {
  const std::size_t n = mu.size();
  if (n == 0) return 0;
  std::vector<double> term(n);
  for (std::size_t i = 0; i < n; ++i) {
    term[i] = prob_metric_group_score(o.counts[i], mu[i], m);
  }
  int spent = 0;
  while (spent < x) {
    std::size_t j = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (term[i] > term[j]) j = i;
    }
    if (o.counts[j] == 0) break;
    const double lower = prob_metric_group_score(o.counts[j] - 1, mu[j], m);
    if (lower >= term[j]) break;
    --o.counts[j];
    term[j] = lower;
    ++spent;
  }
  return spent;
}

/// greedy_taint(kProb) against the reference for every budget 0..total.
/// The free increases of step 1 are read off greedy_taint at budget 0,
/// which applies them and no decrement.
void expect_prob_taint_matches_reference(const Observation& a,
                                         const ExpectedObservation& mu, int m,
                                         AttackClass cls) {
  const Observation start =
      greedy_taint(a, mu, m, MetricKind::kProb, cls, 0).tainted;
  for (int x = 0; x <= start.total(); ++x) {
    Observation expected = start;
    const int expected_spent = reference_decrement_prob(expected, mu, m, x);
    const TaintResult r = greedy_taint(a, mu, m, MetricKind::kProb, cls, x);
    ASSERT_EQ(r.tainted.counts, expected.counts) << "budget " << x;
    ASSERT_EQ(r.budget_spent, expected_spent) << "budget " << x;
  }
}

TEST(GreedyProbOracle, RandomObservationsMatchTheLinearScan) {
  Rng rng(1414);
  const int m = 40;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(std::uint64_t{10});
    Observation a = random_observation(n, 25, rng);
    ExpectedObservation mu = random_mu(n, 25.0, rng);
    if (trial % 4 == 0) {
      // A zero mu makes any positive count the 1e12 "impossible" term.
      mu[0] = 0.0;
    } else if (trial % 4 == 1) {
      // Few distinct (count, mu) pairs, so groups tie on the maximum.
      for (std::size_t i = 0; i < n; ++i) {
        a.counts[i] = 8 * static_cast<int>(rng.uniform_int(std::uint64_t{3}));
        mu[i] = 5.0 * static_cast<double>(1 + rng.uniform_int(std::uint64_t{2}));
      }
    }
    for (const AttackClass cls :
         {AttackClass::kDecBounded, AttackClass::kDecOnly}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " class "
                                      << static_cast<int>(cls));
      expect_prob_taint_matches_reference(a, mu, m, cls);
    }
  }
}

TEST(GreedyProbOracle, TiedMaximaGoToTheLowestGroupFirst) {
  const int m = 40;
  // Equal mu and equal counts: every group holds the maximum term.
  for (const int count : {0, 3, 12, 30}) {
    for (const std::size_t n : {std::size_t{2}, std::size_t{5}}) {
      const Observation a(std::vector<int>(n, count));
      const ExpectedObservation mu(n, 5.0);
      for (const AttackClass cls :
           {AttackClass::kDecBounded, AttackClass::kDecOnly}) {
        SCOPED_TRACE(testing::Message() << "count " << count << " n " << n
                                        << " class " << static_cast<int>(cls));
        expect_prob_taint_matches_reference(a, mu, m, cls);
      }
    }
  }
  // Two tied pairs at different levels, plus impossible-count ties.
  expect_prob_taint_matches_reference(
      Observation(std::vector<int>{9, 20, 9, 20}), {4.0, 6.0, 4.0, 6.0}, m,
      AttackClass::kDecOnly);
  expect_prob_taint_matches_reference(Observation(std::vector<int>{3, 3, 7}),
                                      {0.0, 0.0, 7.0}, m,
                                      AttackClass::kDecOnly);
  // One budget unit over tied groups lowers group 0, not the last one.
  const TaintResult one =
      greedy_taint(Observation(std::vector<int>{12, 12, 12}), {5.0, 5.0, 5.0},
                   m, MetricKind::kProb, AttackClass::kDecOnly, 1);
  EXPECT_EQ(one.tainted.counts, (std::vector<int>{11, 12, 12}));
}

// ---------------------------------------------------------------------------
// Oracle: the budget ladder against a retained copy of the one-budget
// greedy taint it replaced.  One walk over ascending budgets must visit,
// at every rung, exactly the taint and budget_spent of a fresh
// budget-limited run at that rung's budget.
// ---------------------------------------------------------------------------

/// The reference separable decrements: the budget-limited loop as it stood
/// before the ladder, max-heap of gains with stale-entry revalidation.
int reference_decrement_separable(MetricKind metric, Observation& o,
                                  const ExpectedObservation& mu, int x) {
  struct Cand {
    double gain;
    std::size_t group;
    bool operator<(const Cand& other) const { return gain < other.gain; }
  };
  auto term = [&](int v, double mu_i) {
    return metric == MetricKind::kDiff
               ? std::abs(static_cast<double>(v) - mu_i)
               : std::max(static_cast<double>(v), mu_i);
  };
  auto gain_of = [&](std::size_t i) {
    if (o.counts[i] <= 0) return -1.0;
    return term(o.counts[i], mu[i]) - term(o.counts[i] - 1, mu[i]);
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

/// The reference one-budget taint: step 1's free increases, then the
/// reference decrements of the metric.
TaintResult reference_taint(const Observation& a, const ExpectedObservation& mu,
                            int m, MetricKind metric, AttackClass cls, int x) {
  Observation o = a;
  if (cls == AttackClass::kDecBounded) {
    for (std::size_t i = 0; i < mu.size(); ++i) {
      int target = o.counts[i];
      if (metric == MetricKind::kDiff) {
        target = static_cast<int>(std::lround(mu[i]));
      } else if (metric == MetricKind::kProb) {
        const double p = std::clamp(mu[i] / m, 0.0, 1.0);
        target = std::clamp(static_cast<int>(std::floor((m + 1) * p)), 0, m);
      }
      o.counts[i] = std::max(o.counts[i], target);
    }
  }
  const int spent = metric == MetricKind::kProb
                        ? reference_decrement_prob(o, mu, m, x)
                        : reference_decrement_separable(metric, o, mu, x);
  return {std::move(o), spent};
}

/// The ladder over `budgets` (one walk) against one reference call per
/// budget, and greedy_taint against the same reference.
void expect_ladder_matches_reference(const Observation& a,
                                     const ExpectedObservation& mu, int m,
                                     MetricKind metric, AttackClass cls,
                                     const std::vector<int>& budgets) {
  std::vector<TaintResult> seen;
  greedy_taint_ladder(a, mu, m, metric, cls, budgets,
                      [&](std::size_t rung, const Observation& o, int spent) {
                        ASSERT_EQ(rung, seen.size());
                        seen.push_back({o, spent});
                      });
  ASSERT_EQ(seen.size(), budgets.size());
  for (std::size_t r = 0; r < budgets.size(); ++r) {
    const TaintResult expected =
        reference_taint(a, mu, m, metric, cls, budgets[r]);
    ASSERT_EQ(seen[r].tainted.counts, expected.tainted.counts)
        << "rung " << r << " budget " << budgets[r];
    ASSERT_EQ(seen[r].budget_spent, expected.budget_spent)
        << "rung " << r << " budget " << budgets[r];
    const TaintResult single = greedy_taint(a, mu, m, metric, cls, budgets[r]);
    ASSERT_EQ(single.tainted.counts, expected.tainted.counts)
        << "greedy_taint at budget " << budgets[r];
    ASSERT_EQ(single.budget_spent, expected.budget_spent)
        << "greedy_taint at budget " << budgets[r];
  }
}

TEST_P(GreedyPropertyTest, LadderOverEveryBudgetMatchesOneReferencePerBudget) {
  Rng rng(1800 + std::get<0>(GetParam()) * 10 + std::get<1>(GetParam()));
  const int m = 40;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(std::uint64_t{10});
    Observation a = random_observation(n, 25, rng);
    ExpectedObservation mu = random_mu(n, 25.0, rng);
    if (trial % 4 == 0) mu[0] = 0.0;                 // Prob's 1e12 term
    if (trial % 4 == 1) mu[n - 1] = 2.0 * m;         // p clamped to 1
    if (trial % 4 == 2) {
      for (std::size_t i = 0; i < n; ++i) {         // ties everywhere
        a.counts[i] = 6 * static_cast<int>(rng.uniform_int(std::uint64_t{3}));
        mu[i] = 4.0 * static_cast<double>(1 + rng.uniform_int(std::uint64_t{2}));
      }
    }
    // Every budget from 0 to past what the walk can spend.
    const int top = reference_taint(a, mu, m, metric(), cls(), 0).tainted.total();
    std::vector<int> budgets;
    for (int x = 0; x <= top + 2; ++x) budgets.push_back(x);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    expect_ladder_matches_reference(a, mu, m, metric(), cls(), budgets);
  }
}

TEST_P(GreedyPropertyTest, LadderHandlesRepeatsZerosAndUnspendableBudgets) {
  Rng rng(2300 + std::get<0>(GetParam()) * 10 + std::get<1>(GetParam()));
  const int m = 60;
  const std::vector<std::vector<int>> lists = {
      {0},       {0, 0, 0},     {0, 3, 3, 7},   {2, 2, 5, 5, 5, 9},
      {1, 1000}, {500, 501, 501}, {0, 1, 2, 200, 200}, {}};
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(std::uint64_t{9});
    const Observation a = random_observation(n, 30, rng);
    const ExpectedObservation mu = random_mu(n, 30.0, rng);
    for (const std::vector<int>& budgets : lists) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " list of "
                                      << budgets.size());
      expect_ladder_matches_reference(a, mu, m, metric(), cls(), budgets);
    }
  }
}

TEST_P(GreedyPropertyTest, LadderWithACallerProbTableMatchesItsOwn) {
  Rng rng(2700 + std::get<0>(GetParam()) * 10 + std::get<1>(GetParam()));
  const int m = 60;
  const std::vector<int> budgets = {0, 2, 5, 5, 11, 40};
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(std::uint64_t{9});
    const Observation a = random_observation(n, 30, rng);
    const ExpectedObservation mu = random_mu(n, 30.0, rng);
    const ProbTable table(mu, m);
    std::vector<Observation> own, given;
    greedy_taint_ladder(
        a, mu, m, metric(), cls(), budgets,
        [&](std::size_t, const Observation& o, int) { own.push_back(o); });
    greedy_taint_ladder(
        a, mu, m, metric(), cls(), budgets,
        [&](std::size_t, const Observation& o, int) { given.push_back(o); },
        &table);
    EXPECT_EQ(own, given) << "trial " << trial;
  }
}

TEST(GreedyLadder, RejectsDescendingOrNegativeBudgets) {
  const Observation a(std::vector<int>{4, 2});
  const ExpectedObservation mu = {1.0, 3.0};
  const auto ignore = [](std::size_t, const Observation&, int) {};
  for (const MetricKind metric :
       {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}) {
    for (const std::vector<int>& budgets :
         {std::vector<int>{3, 2}, std::vector<int>{0, 4, 1},
          std::vector<int>{-1, 2}}) {
      EXPECT_THROW(greedy_taint_ladder(a, mu, 10, metric,
                                       AttackClass::kDecOnly, budgets, ignore),
                   AssertionError);
    }
  }
  const ProbTable wrong_size({1.0, 3.0, 5.0}, 10);
  EXPECT_THROW(greedy_taint_ladder(a, mu, 10, MetricKind::kProb,
                                   AttackClass::kDecOnly, std::vector<int>{1},
                                   ignore, &wrong_size),
               AssertionError);
}

TEST(Greedy, ZeroGroupsReturnTheEmptyObservation) {
  for (const MetricKind metric :
       {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}) {
    for (const AttackClass cls :
         {AttackClass::kDecBounded, AttackClass::kDecOnly}) {
      for (const int x : {0, 1, 7}) {
        const TaintResult r =
            greedy_taint(Observation(0), {}, 50, metric, cls, x);
        EXPECT_TRUE(r.tainted.counts.empty());
        EXPECT_EQ(r.budget_spent, 0);
      }
    }
  }
}

TEST(Greedy, RejectsNegativeBudgetAndSizeMismatch) {
  const Observation a(std::vector<int>{1});
  EXPECT_THROW(greedy_taint(a, {1.0}, 10, MetricKind::kDiff,
                            AttackClass::kDecBounded, -1),
               AssertionError);
  EXPECT_THROW(greedy_taint(a, {1.0, 2.0}, 10, MetricKind::kDiff,
                            AttackClass::kDecBounded, 1),
               AssertionError);
}

}  // namespace
}  // namespace lad
