// The two adversarial/cooperative experiment kinds (time-evolving,
// in-network): spec validation, item accounting and run semantics; plus
// the quick-mode golden CSVs of every checked-in spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>  // getpid

#include "sim/scenario.h"
#include "support/golden.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/kvconfig.h"

namespace lad {
namespace {

// Small deployment shared by the inline specs (900 nodes, cheap to
// observe); the new kinds ignore networks/victims, so only the field
// matters.
constexpr const char* kPipeline = R"(
[pipeline]
seed = 5
m = 25
sigma = 30
r = 50
field = 600
grid_nx = 6
grid_ny = 6
)";

ScenarioSpec parse(const std::string& text) {
  return ScenarioSpec::from_config(KvConfig::parse_string(text));
}

std::string evolve_spec(const std::string& kind_section) {
  return "[scenario]\nname = e\nexperiment = time-evolving\n" +
         std::string(kPipeline) + kind_section;
}

std::string coop_spec(const std::string& kind_section) {
  return "[scenario]\nname = c\nexperiment = in-network\n" +
         std::string(kPipeline) + kind_section;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// --- spec parsing ------------------------------------------------------

TEST(ScenarioSpecKinds, EvolveSectionParsesWithDefaults) {
  const ScenarioSpec defaults = parse(evolve_spec(""));
  EXPECT_EQ(defaults.kind, ExperimentKind::kTimeEvolving);
  EXPECT_EQ(defaults.evolve_rounds, 8);
  EXPECT_EQ(defaults.evolve_step, 2);
  EXPECT_EQ(defaults.evolve_initial, 0);
  EXPECT_EQ(defaults.train_samples, 400);

  const ScenarioSpec spec = parse(evolve_spec(
      "[evolve]\ntrials = 9\nrounds = 3\nstep = 5\ninitial = 2\n"
      "train_samples = 50\n"));
  EXPECT_EQ(spec.trials, 9);
  EXPECT_EQ(spec.evolve_rounds, 3);
  EXPECT_EQ(spec.evolve_step, 5);
  EXPECT_EQ(spec.evolve_initial, 2);
  EXPECT_EQ(spec.train_samples, 50);
}

TEST(ScenarioSpecKinds, CoopSectionParsesWithDefaults) {
  const ScenarioSpec defaults = parse(coop_spec(""));
  EXPECT_EQ(defaults.kind, ExperimentKind::kInNetwork);
  EXPECT_EQ(defaults.coop_radius, 150.0);
  EXPECT_EQ(defaults.coop_majority, 0.5);
  EXPECT_EQ(defaults.train_samples, 400);

  const ScenarioSpec spec = parse(coop_spec(
      "[coop]\ntrials = 7\nradius = 99\nmajority = 0.75\n"
      "train_samples = 60\n"));
  EXPECT_EQ(spec.trials, 7);
  EXPECT_EQ(spec.coop_radius, 99.0);
  EXPECT_EQ(spec.coop_majority, 0.75);
  EXPECT_EQ(spec.train_samples, 60);
}

TEST(ScenarioSpecKinds, BadEvolveValuesAreRejectedByName) {
  EXPECT_THROW(parse(evolve_spec("[evolve]\nrounds = 0\n")), AssertionError);
  EXPECT_THROW(parse(evolve_spec("[evolve]\nstep = 0\n")), AssertionError);
  EXPECT_THROW(parse(evolve_spec("[evolve]\ntrials = -1\n")), AssertionError);
  EXPECT_THROW(parse(evolve_spec("[evolve]\ntrain_samples = 0\n")),
               AssertionError);
  try {
    parse(evolve_spec("[evolve]\ninitial = -3\n"));
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("initial must be >= 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpecKinds, BadCoopValuesAreRejectedByName) {
  EXPECT_THROW(parse(coop_spec("[coop]\nradius = 0\n")), AssertionError);
  EXPECT_THROW(parse(coop_spec("[coop]\nradius = -10\n")), AssertionError);
  EXPECT_THROW(parse(coop_spec("[coop]\nmajority = 0\n")), AssertionError);
  EXPECT_THROW(parse(coop_spec("[coop]\ntrials = 0\n")), AssertionError);
  try {
    parse(coop_spec("[coop]\nmajority = 1.5\n"));
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("majority must be in (0,1]"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpecKinds, KindSectionsAreRejectedOnForeignKinds) {
  // [evolve] on in-network, [coop] on time-evolving, and either on a
  // plain dr-sweep: all dead configuration, all fail-fast by name.
  EXPECT_THROW(parse(coop_spec("[evolve]\nrounds = 2\n")), AssertionError);
  EXPECT_THROW(parse(evolve_spec("[coop]\nradius = 100\n")), AssertionError);
  try {
    parse("[scenario]\nname = d\nexperiment = dr-sweep\n"
          "[evolve]\nrounds = 2\n");
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("only valid for experiment = "
                                         "time-evolving"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpecKinds, SweepAxesMatchWhatTheKindsExpand) {
  // time-evolving expands attacks x damages; in-network expands damages
  // only.  Anything else multi-valued is rejected.
  EXPECT_NO_THROW(parse(evolve_spec(
      "[sweep]\nattacks = dec-bounded, dec-only\ndamages = 60, 120\n")));
  EXPECT_THROW(parse(evolve_spec("[sweep]\ncompromised = 0.1, 0.2\n")),
               AssertionError);
  EXPECT_NO_THROW(parse(coop_spec("[sweep]\ndamages = 60, 120, 240\n")));
  EXPECT_THROW(parse(coop_spec("[sweep]\nattacks = dec-bounded, dec-only\n")),
               AssertionError);
  EXPECT_THROW(parse(coop_spec("[sweep]\nmetrics = diff, prob\n")),
               AssertionError);
}

// --- item accounting and run semantics ---------------------------------

TEST(ScenarioRunnerKinds, NumItemsCountsTheMetaRowAndTheGrid) {
  const ScenarioSpec evolve = parse(evolve_spec(
      "[sweep]\nattacks = dec-bounded, dec-only\ndamages = 60, 120\n"));
  EXPECT_EQ(ScenarioRunner(evolve).num_items(), 5);  // meta + 2 x 2

  const ScenarioSpec coop =
      parse(coop_spec("[sweep]\ndamages = 60, 120, 240\n"));
  EXPECT_EQ(ScenarioRunner(coop).num_items(), 4);  // benign fp + 3 D
}

TEST(ScenarioRunnerKinds, EvolveEmitsOneRowPerRoundWithTheBudgetSchedule) {
  const ScenarioSpec spec = parse(evolve_spec(
      "[sweep]\nattacks = dec-bounded\ndamages = 120\n"
      "[evolve]\ntrials = 6\nrounds = 3\nstep = 4\ninitial = 1\n"
      "train_samples = 50\n"));
  const ScenarioResult result = ScenarioRunner(spec).run();
  ASSERT_EQ(result.tables.size(), 2u);
  EXPECT_EQ(result.tables[0].id, "meta");
  EXPECT_EQ(result.tables[1].id, "evolve");
  const Table& evolve = result.tables[1].table;
  EXPECT_EQ(evolve.columns(),
            (std::vector<std::string>{"attack", "D", "round", "corrupted",
                                      "DR"}));
  ASSERT_EQ(evolve.num_rows(), 3u);  // one per round
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(evolve.cell(r, 2), std::to_string(r));
    // Budget schedule: initial + round * step = 1, 5, 9.
    EXPECT_EQ(evolve.cell(r, 3), std::to_string(1 + 4 * r));
  }
}

TEST(ScenarioRunnerKinds, CoopEmitsBenignFpRowAndPerDamageRows) {
  const ScenarioSpec spec = parse(coop_spec(
      "[sweep]\ndamages = 60, 240\ncompromised = 0.10\n"
      "[coop]\ntrials = 20\nradius = 120\ntrain_samples = 50\n"));
  const ScenarioResult result = ScenarioRunner(spec).run();
  ASSERT_EQ(result.tables.size(), 2u);
  EXPECT_EQ(result.tables[0].id, "fp");
  EXPECT_EQ(result.tables[1].id, "coop");
  EXPECT_EQ(result.tables[0].table.columns(),
            (std::vector<std::string>{"solo_FP", "node_FP", "coop_FP",
                                      "mean_voters"}));
  EXPECT_EQ(result.tables[1].table.columns(),
            (std::vector<std::string>{"D", "solo_DR", "node_DR", "coop_DR",
                                      "mean_voters"}));
  EXPECT_EQ(result.tables[0].table.num_rows(), 1u);
  ASSERT_EQ(result.tables[1].table.num_rows(), 2u);

  // A benign claim sits at the node's true position, so every voter in
  // radius can hear it: the vote-level FP rate is exactly 0.  A 240-unit
  // displacement plants the claim among voters with no radio evidence,
  // so the per-vote anomaly rate should clear the benign rate.
  const double node_fp = std::stod(result.tables[0].table.cell(0, 1));
  EXPECT_EQ(node_fp, 0.0);
  const double node_dr_far = std::stod(result.tables[1].table.cell(1, 2));
  EXPECT_GT(node_dr_far, node_fp);
}

TEST(ScenarioRunnerKinds, ShardsPartitionTheNewKinds) {
  for (const std::string& text :
       {evolve_spec("[sweep]\nattacks = dec-bounded, dec-only\n"
                    "damages = 60, 120\n"
                    "[evolve]\ntrials = 4\nrounds = 2\ntrain_samples = 40\n"),
        coop_spec("[sweep]\ndamages = 60, 120, 240\n"
                  "[coop]\ntrials = 4\ntrain_samples = 40\n")}) {
    const ScenarioSpec spec = parse(text);
    SCOPED_TRACE(spec.name);
    const ScenarioResult full = ScenarioRunner(spec).run();
    std::vector<long long> seen;
    for (int i = 0; i < 2; ++i) {
      const ScenarioResult part = ScenarioRunner(spec).run(ShardRange{i, 2});
      for (const ResultTable& t : part.tables) {
        seen.insert(seen.end(), t.row_items.begin(), t.row_items.end());
      }
    }
    std::vector<long long> all;
    for (const ResultTable& t : full.tables) {
      all.insert(all.end(), t.row_items.begin(), t.row_items.end());
    }
    std::sort(seen.begin(), seen.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(seen, all);
  }
}

// --- golden CSVs for the checked-in specs ------------------------------

#ifdef LAD_SCENARIO_DIR

// What one quick-mode run of a checked-in spec produced: the table ids
// the runner declares up front, the ids run() actually emitted, and the
// written CSV bodies keyed by file name.
struct QuickRun {
  std::vector<std::string> declared_ids;
  std::vector<std::string> emitted_ids;
  std::vector<std::pair<std::string, std::string>> files;
};

// A checked-in spec in quick mode at the given jobs count.
ScenarioSpec quick_spec(const std::string& scn, int jobs) {
  ScenarioSpec spec =
      ScenarioSpec::load(std::string(LAD_SCENARIO_DIR) + "/" + scn);
  ScenarioOverrides o;
  o.quick = true;
  spec = apply_overrides(spec, o);
  spec.jobs = jobs;
  return spec;
}

// An empty temp directory for one leg of one spec.  The process id keeps
// the ctest legs of one spec (host default and pinned LAD_THREADS) apart
// when they run at once.
std::filesystem::path fresh_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) /
      ("lad_golden_" + tag + "_p" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

// The files in `dir` as (name, body) pairs, sorted by name.
std::vector<std::pair<std::string, std::string>> read_dir(
    const std::filesystem::path& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.emplace_back(entry.path().filename().string(),
                       read_file(entry.path()));
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Runs a checked-in spec in quick mode at the given jobs count.
QuickRun run_quick(const std::string& scn, int jobs) {
  const ScenarioSpec spec = quick_spec(scn, jobs);
  const std::filesystem::path dir =
      fresh_dir(spec.name + "_j" + std::to_string(jobs));
  ScenarioRunner runner(spec);
  QuickRun out;
  out.declared_ids = runner.table_ids();
  const ScenarioResult result = runner.run();
  for (const ResultTable& t : result.tables) out.emitted_ids.push_back(t.id);
  write_result_csvs(result, dir.string());
  out.files = read_dir(dir);
  std::filesystem::remove_all(dir);
  return out;
}

// Every checked-in spec is pinned by goldens: quick mode must reproduce
// tests/data/scenario_goldens/ byte for byte, the runner must declare
// exactly the tables it emits, and a concurrent run must match the
// sequential one exactly (the acceptance bar shared by every kind).
class ScenarioGoldens : public testing::TestWithParam<const char*> {};

TEST_P(ScenarioGoldens, QuickModeMatchesTheGoldenAcrossJobs) {
  const QuickRun sequential = run_quick(GetParam(), 1);
  EXPECT_EQ(sequential.declared_ids, sequential.emitted_ids);
  ASSERT_EQ(sequential.files.size(), sequential.declared_ids.size());
  for (const auto& [name, body] : sequential.files) {
    EXPECT_FALSE(body.empty()) << name;
    test::expect_matches_golden(body, "scenario_goldens/" + name);
  }
  const QuickRun concurrent = run_quick(GetParam(), 4);
  EXPECT_EQ(sequential.files, concurrent.files);
}

// The same goldens from three shards (`lad_cli run --shard i/3`) written
// separately and joined by the merge step (`lad_cli merge`).  Shards that
// own no item still write header-only tables, so every spec has all
// three shard directories.
TEST_P(ScenarioGoldens, ThreeShardsMergeToTheGolden) {
  const ScenarioSpec spec = quick_spec(GetParam(), 1);
  const std::filesystem::path base = fresh_dir(spec.name + "_shards");
  std::vector<std::string> shard_dirs;
  for (int i = 0; i < 3; ++i) {
    ScenarioRunner runner(spec);
    shard_dirs.push_back((base / ("shard" + std::to_string(i))).string());
    write_result_csvs(runner.run(ShardRange{i, 3}), shard_dirs.back());
  }
  const std::filesystem::path merged = base / "merged";
  merge_result_csvs(shard_dirs, merged.string());

  const auto files = read_dir(merged);
  EXPECT_EQ(files.size(), ScenarioRunner(spec).table_ids().size());
  for (const auto& [name, body] : files) {
    test::expect_matches_golden(body, "scenario_goldens/" + name);
  }
  std::filesystem::remove_all(base);
}

const char* const kNewKindSpecs[] = {"tab_time_evolving.scn",
                                     "tab_in_network.scn"};

const char* const kPaperSpecs[] = {
    "fig02_deployment_pdf.scn",      "fig04_roc_metrics.scn",
    "fig05_roc_attacks_small_d.scn", "fig06_roc_attacks_large_d.scn",
    "fig07_dr_vs_damage.scn",        "fig08_dr_vs_compromise.scn",
    "fig09_dr_vs_density.scn",       "quickstart.scn",
    "tab_correction.scn",            "tab_deployment_shapes.scn",
    "tab_echo_comparison.scn",       "tab_group_thresholds.scn",
    "tab_gz_accuracy.scn",           "tab_localizer_ablation.scn",
    "tab_metric_fusion.scn",         "tab_mmse_vulnerability.scn",
    "tab_model_mismatch.scn",        "tab_threshold_sensitivity.scn",
};

INSTANTIATE_TEST_SUITE_P(NewKinds, ScenarioGoldens,
                         testing::ValuesIn(kNewKindSpecs));
INSTANTIATE_TEST_SUITE_P(PaperSpecs, ScenarioGoldens,
                         testing::ValuesIn(kPaperSpecs));

TEST(ScenarioGoldenCoverage, EveryCheckedInSpecIsPinned) {
  std::vector<std::string> pinned(std::begin(kNewKindSpecs),
                                  std::end(kNewKindSpecs));
  pinned.insert(pinned.end(), std::begin(kPaperSpecs), std::end(kPaperSpecs));
  std::vector<std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(LAD_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") {
      on_disk.push_back(entry.path().filename().string());
    }
  }
  std::sort(pinned.begin(), pinned.end());
  std::sort(on_disk.begin(), on_disk.end());
  EXPECT_EQ(pinned, on_disk);
}

#endif  // LAD_SCENARIO_DIR

}  // namespace
}  // namespace lad
