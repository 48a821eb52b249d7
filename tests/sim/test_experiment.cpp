// The paper's Section 7 sweeps - ROC curves (Figs. 4-6), trained-threshold
// DR vs D and x (Figs. 7/8) and the density sweep (Fig. 9) - run through
// ScenarioRunner on in-memory specs, pinning the qualitative property each
// figure shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/scenario.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/kvconfig.h"
#include "util/string_util.h"

namespace lad {
namespace {

// 6x6 groups of 40 nodes on a 600 m field; `truth-noise:8` localizes at
// the true position plus 8 m of noise, so these sweeps skip the MLE.
constexpr const char* kPipeline = R"(
[pipeline]
seed = 31337
field = 600
grid_nx = 6
grid_ny = 6
m = 40
sigma = 30
r = 50
)";

// The first table a spec of `experiment` with the given [sweep] body
// emits, at `networks` x `victims` samples.
Table run_first_table(const std::string& experiment, const std::string& sweep,
                      int networks = 4, int victims = 60) {
  const std::string text = "[scenario]\nname = t\nexperiment = " +
                           experiment + "\n" + kPipeline +
                           "networks = " + std::to_string(networks) +
                           "\nvictims = " + std::to_string(victims) +
                           "\n[sweep]\n" + sweep;
  ScenarioRunner runner(
      ScenarioSpec::from_config(KvConfig::parse_string(text)));
  return runner.run().tables.front().table;
}

const std::string& cell(const Table& t, std::size_t row,
                        const std::string& column) {
  const std::vector<std::string>& cols = t.columns();
  const auto it = std::find(cols.begin(), cols.end(), column);
  LAD_REQUIRE_MSG(it != cols.end(), "no column '" << column << "'");
  return t.cell(row, static_cast<std::size_t>(it - cols.begin()));
}

double value(const Table& t, std::size_t row, const std::string& column) {
  return parse_double(cell(t, row, column));
}

TEST(RocExperiment, ProducesOneCurvePerCombination) {
  const Table t = run_first_table("roc",
                                  "localizers = truth-noise:8\n"
                                  "metrics = diff, prob\n"
                                  "attacks = dec-bounded\n"
                                  "damages = 60, 150\n"
                                  "compromised = 0.1\n");
  ASSERT_EQ(t.num_rows(), 4u);
  // Metric-major, damage-minor; the single x = 0.1 gets no column.
  const char* const metrics[] = {"diff", "diff", "prob", "prob"};
  const double damages[] = {60, 150, 60, 150};
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(cell(t, i, "metric"), metrics[i]);
    EXPECT_EQ(value(t, i, "D"), damages[i]);
    EXPECT_GT(value(t, i, "AUC"), 0.4);
  }
  EXPECT_EQ(std::count(t.columns().begin(), t.columns().end(), "x"), 0);
}

TEST(RocExperiment, AucGrowsWithDamage) {
  const Table t = run_first_table("roc",
                                  "localizers = truth-noise:8\n"
                                  "damages = 40, 200\n"
                                  "compromised = 0.1\n");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_LT(value(t, 0, "AUC"), value(t, 1, "AUC"));
  EXPECT_GT(value(t, 1, "AUC"), 0.9);
}

TEST(RocExperiment, DecOnlyIsEasierToDetectThanDecBounded) {
  const Table t = run_first_table("roc",
                                  "localizers = truth-noise:8\n"
                                  "attacks = dec-bounded, dec-only\n"
                                  "damages = 80\n"
                                  "compromised = 0.15\n");
  ASSERT_EQ(t.num_rows(), 2u);
  ASSERT_EQ(cell(t, 0, "attack"), "dec-bounded");
  ASSERT_EQ(cell(t, 1, "attack"), "dec-only");
  EXPECT_LE(value(t, 0, "AUC"), value(t, 1, "AUC") + 0.02);
}

TEST(DrSweep, DetectionRateIncreasesWithDamage) {
  const Table t = run_first_table("dr-sweep",
                                  "localizers = truth-noise:8\n"
                                  "damages = 40, 100, 200\n"
                                  "compromised = 0.1\n");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_LE(value(t, 0, "DR"), value(t, 1, "DR") + 0.05);
  EXPECT_LE(value(t, 1, "DR"), value(t, 2, "DR") + 0.05);
  EXPECT_GT(value(t, 2, "DR"), 0.8);
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_NEAR(value(t, i, "trained_FP"), 0.01, 0.01);  // fp_budget 0.01
  }
}

TEST(DrSweep, DetectionRateDecreasesWithCompromise) {
  const Table t = run_first_table("dr-sweep",
                                  "localizers = truth-noise:8\n"
                                  "damages = 100\n"
                                  "compromised = 0.0, 0.3, 0.6\n");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_GE(value(t, 0, "DR"), value(t, 1, "DR") - 0.05);
  EXPECT_GE(value(t, 1, "DR"), value(t, 2, "DR") - 0.05);
}

TEST(DrSweep, RejectsBadFpBudget) {
  for (const char* budget : {"0", "1", "-0.5"}) {
    try {
      ScenarioSpec::from_config(KvConfig::parse_string(
          std::string("[scenario]\nname = t\nexperiment = dr-sweep\n"
                      "[detector]\nfp_budget = ") +
          budget + "\n"));
      ADD_FAILURE() << "fp_budget = " << budget << " was accepted";
    } catch (const AssertionError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "[detector] fp_budget must be in (0,1)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(DensitySweep, ProducesPointsPerDensityAndError) {
  const Table t = run_first_table("density-sweep",
                                  "densities = 30, 80\n"
                                  "damages = 120\n"
                                  "compromised = 0.1\n",
                                  /*networks=*/2, /*victims=*/40);
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(cell(t, 0, "m"), "30");
  EXPECT_EQ(cell(t, 1, "m"), "80");
  // The localization scheme (MLE) improves with density - the paper's
  // Fig. 9 mechanism.
  EXPECT_GT(value(t, 0, "mle_loc_error"), value(t, 1, "mle_loc_error"));
}

}  // namespace
}  // namespace lad
