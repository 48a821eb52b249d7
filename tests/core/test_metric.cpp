#include "core/metric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "deploy/observation.h"
#include "rng/rng.h"
#include "stats/special.h"
#include "util/assert.h"

namespace lad {
namespace {

TEST(MetricNames, RoundTrip) {
  for (MetricKind k :
       {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}) {
    EXPECT_EQ(metric_from_name(metric_name(k)), k);
  }
  EXPECT_EQ(metric_from_name("DM"), MetricKind::kDiff);
  EXPECT_EQ(metric_from_name("AddAll"), MetricKind::kAddAll);
  EXPECT_EQ(metric_from_name("probability"), MetricKind::kProb);
  EXPECT_THROW(metric_from_name("bogus"), AssertionError);
}

TEST(MakeMetric, ProducesCorrectKinds) {
  for (MetricKind k :
       {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}) {
    EXPECT_EQ(make_metric(k)->kind(), k);
  }
}

TEST(DiffMetric, HandComputedExample) {
  const DiffMetric dm;
  const Observation o(std::vector<int>{5, 0, 10});
  const ExpectedObservation mu = {3.0, 2.0, 10.5};
  // |5-3| + |0-2| + |10-10.5| = 4.5.
  EXPECT_DOUBLE_EQ(dm.score(o, mu, 100), 4.5);
}

TEST(DiffMetric, ZeroWhenObservationMatchesExpectation) {
  const DiffMetric dm;
  const Observation o(std::vector<int>{3, 7});
  EXPECT_DOUBLE_EQ(dm.score(o, {3.0, 7.0}, 10), 0.0);
}

TEST(AddAllMetric, HandComputedExample) {
  const AddAllMetric am;
  const Observation o(std::vector<int>{5, 0, 10});
  const ExpectedObservation mu = {3.0, 2.0, 10.5};
  // max(5,3) + max(0,2) + max(10,10.5) = 17.5.
  EXPECT_DOUBLE_EQ(am.score(o, mu, 100), 17.5);
}

TEST(AddAllMetric, LowerBoundIsMaxOfTotals) {
  // AM >= max(|o|, |mu|) always, with equality iff the supports align.
  const AddAllMetric am;
  const Observation o(std::vector<int>{8, 0});
  const ExpectedObservation mu = {0.0, 6.0};
  EXPECT_DOUBLE_EQ(am.score(o, mu, 10), 14.0);  // disjoint supports add up
  const Observation o2(std::vector<int>{8, 0});
  const ExpectedObservation mu2 = {6.0, 0.0};
  EXPECT_DOUBLE_EQ(am.score(o2, mu2, 10), 8.0);  // aligned: just the max
}

TEST(AddAllMetric, GrowsWithDisplacementStory) {
  // The Figure-1 narrative: union of observations at two far-apart points
  // has a larger total than either one.
  const AddAllMetric am;
  const Observation at_o(std::vector<int>{10, 10, 0, 0});
  const ExpectedObservation at_p = {0.0, 0.0, 10.0, 10.0};
  const ExpectedObservation at_o_mu = {10.0, 10.0, 0.0, 0.0};
  EXPECT_GT(am.score(at_o, at_p, 100), am.score(at_o, at_o_mu, 100));
}

TEST(ProbMetric, ScoreIsNegLogOfMinProbability) {
  const ProbMetric pm;
  const Observation o(std::vector<int>{2, 5});
  const ExpectedObservation mu = {3.0, 4.0};
  const int m = 10;
  const double p0 = binomial_pmf(2, m, 0.3);
  const double p1 = binomial_pmf(5, m, 0.4);
  EXPECT_NEAR(pm.score(o, mu, m), -std::log(std::min(p0, p1)), 1e-10);
  EXPECT_NEAR(ProbMetric::min_probability(o, mu, m), std::min(p0, p1), 1e-12);
}

TEST(ProbMetric, ImpossibleObservationIsHugeButFinite) {
  const ProbMetric pm;
  // Group 0 has expectation 0 (p = 0) but we observed 3 nodes from it.
  const Observation o(std::vector<int>{3, 1});
  const ExpectedObservation mu = {0.0, 1.0};
  const double s = pm.score(o, mu, 10);
  EXPECT_TRUE(std::isfinite(s));
  EXPECT_GE(s, 1e12);
}

TEST(ProbMetric, ZeroCountAtZeroExpectationIsPerfectlyNormal) {
  const ProbMetric pm;
  const Observation o(std::vector<int>{0});
  const ExpectedObservation mu = {0.0};
  EXPECT_DOUBLE_EQ(pm.score(o, mu, 10), 0.0);  // pmf = 1, -log = 0
}

TEST(ProbMetric, GroupScoreMatchesLogPmf) {
  EXPECT_NEAR(prob_metric_group_score(4, 3.0, 10),
              -log_binomial_pmf(4, 10, 0.3), 1e-12);
  // Count above m is impossible -> huge score.
  EXPECT_GE(prob_metric_group_score(11, 3.0, 10), 1e12);
}

/// The Prob group term as it stood before ProbTable: -log_binomial_pmf,
/// with impossible counts capped at 1e12.
double reference_prob_group_score(int count, double mu_i, int m) {
  const double p = std::clamp(mu_i / static_cast<double>(m), 0.0, 1.0);
  const double lp = log_binomial_pmf(count, m, p);
  return std::isinf(lp) ? 1e12 : -lp;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Oracle: ProbTable's term and score against prob_metric_group_score,
// ProbMetric::score and the pre-table reference, bit for bit - signed
// zeros, the 1e12 cap and the p in {0, 1} branches included.
TEST(ProbTable, BitEqualToTheGroupScoreAndTheReference) {
  Rng rng = Rng::stream(1818, 0);
  for (const int m : {1, 7, 40, 300, 1000}) {
    for (int trial = 0; trial < 30; ++trial) {
      const std::size_t n = 1 + rng.uniform_int(std::uint64_t{12});
      ExpectedObservation mu(n);
      for (std::size_t i = 0; i < n; ++i) {
        switch (rng.uniform_int(std::uint64_t{5})) {
          case 0: mu[i] = 0.0; break;                      // p == 0
          case 1: mu[i] = m * rng.uniform(1.0, 3.0); break;  // p clamped to 1
          case 2: mu[i] = static_cast<double>(m); break;     // p == 1 exactly
          case 3: mu[i] = -rng.uniform(0.0, 5.0); break;     // clamped to 0
          default: mu[i] = rng.uniform(0.0, static_cast<double>(m));
        }
      }
      const ProbTable table(mu, m);
      ASSERT_EQ(table.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        for (int count = -3; count <= m + 3; ++count) {
          const double term = table.term(count, i);
          ASSERT_TRUE(same_bits(term, prob_metric_group_score(count, mu[i], m)))
              << "m " << m << " mu " << mu[i] << " count " << count;
          ASSERT_TRUE(
              same_bits(term, reference_prob_group_score(count, mu[i], m)))
              << "m " << m << " mu " << mu[i] << " count " << count;
        }
      }
      Observation o(n);
      for (std::size_t i = 0; i < n; ++i) {
        o.counts[i] = static_cast<int>(rng.uniform_int(0ll, m));
      }
      EXPECT_TRUE(same_bits(table.score(o), ProbMetric().score(o, mu, m)));
    }
  }
}

TEST(ProbTable, KeepsTheSignedZeroAndTheChecks) {
  const ProbTable table({0.0, 10.0}, 10);
  EXPECT_TRUE(same_bits(table.term(0, 0), -0.0));   // p == 0, count 0
  EXPECT_TRUE(same_bits(table.term(10, 1), -0.0));  // p == 1, count m
  EXPECT_EQ(table.term(1, 0), 1e12);
  EXPECT_EQ(table.term(9, 1), 1e12);
  EXPECT_THROW(ProbTable({1.0}, 0), AssertionError);
  EXPECT_THROW(ProbTable({std::nan("")}, 10), AssertionError);
  EXPECT_THROW(prob_metric_group_score(1, std::nan(""), 10), AssertionError);
  EXPECT_THROW(table.score(Observation(std::vector<int>{1})), AssertionError);
}

TEST(Metrics, AllGrowWithDisplacementDistance) {
  // Synthetic two-group world: o concentrated on group 0, mu progressively
  // moved to group 1.  Every metric must increase monotonically.
  const Observation o(std::vector<int>{20, 0});
  const int m = 100;
  for (MetricKind kind :
       {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}) {
    const auto metric = make_metric(kind);
    double prev = -1.0;
    for (double shift : {0.0, 5.0, 10.0, 15.0, 20.0}) {
      const ExpectedObservation mu = {20.0 - shift, shift};
      const double s = metric->score(o, mu, m);
      EXPECT_GE(s, prev) << metric->name() << " at shift " << shift;
      prev = s;
    }
  }
}

TEST(Metrics, SizeMismatchThrows) {
  const Observation o(std::vector<int>{1, 2});
  const ExpectedObservation mu = {1.0};
  for (MetricKind kind :
       {MetricKind::kDiff, MetricKind::kAddAll, MetricKind::kProb}) {
    EXPECT_THROW(make_metric(kind)->score(o, mu, 10), AssertionError);
  }
}

}  // namespace
}  // namespace lad
