#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "attack/adversary.h"
#include "core/metric.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "sim/pipeline.h"
#include "stats/quantile.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/kvconfig.h"
#include "util/string_util.h"

namespace lad {
namespace {

// A dr-sweep small enough for unit tests (2 networks x 30 victims on a
// 6x6 grid of 25-node groups).
constexpr const char* kTinySpec = R"([scenario]
name = tiny
experiment = dr-sweep

[pipeline]
seed = 7
m = 25
networks = 2
victims = 30
sigma = 30
r = 50
field = 600
grid_nx = 6
grid_ny = 6

[sweep]
damages = 60, 120
compromised = 0.10, 0.20

[detector]
fp_budget = 0.01
)";

ScenarioSpec tiny_spec() {
  return ScenarioSpec::from_config(KvConfig::parse_string(kTinySpec));
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// --- spec parsing ------------------------------------------------------

TEST(ScenarioSpec, ParsesTheTinySpec) {
  const ScenarioSpec spec = tiny_spec();
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.title, "tiny");  // defaults to the name
  EXPECT_EQ(spec.kind, ExperimentKind::kDrSweep);
  EXPECT_EQ(spec.pipeline.seed, 7u);
  EXPECT_EQ(spec.pipeline.deploy.nodes_per_group, 25);
  EXPECT_EQ(spec.damages, (std::vector<double>{60, 120}));
  EXPECT_EQ(spec.compromised, (std::vector<double>{0.10, 0.20}));
  EXPECT_EQ(spec.metrics, (std::vector<MetricKind>{MetricKind::kDiff}));
  EXPECT_EQ(spec.localizers, (std::vector<std::string>{"beaconless-mle"}));
}

TEST(ScenarioSpec, NameAndExperimentAreRequired) {
  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   "[scenario]\nexperiment = roc\n")),
               AssertionError);
  EXPECT_THROW(ScenarioSpec::from_config(
                   KvConfig::parse_string("[scenario]\nname = x\n")),
               AssertionError);
  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string("")),
               AssertionError);
}

TEST(ScenarioSpec, UnknownExperimentKindIsRejected) {
  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   "[scenario]\nname = x\nexperiment = frobnicate\n")),
               AssertionError);
}

TEST(ScenarioSpec, UnknownSectionIsRejected) {
  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   "[scenario]\nname = x\nexperiment = roc\n"
                   "[sweeep]\ndamages = 10\n")),
               AssertionError);
}

TEST(ScenarioSpec, UnknownKeyIsRejectedWithItsName) {
  try {
    ScenarioSpec::from_config(KvConfig::parse_string(
        "[scenario]\nname = x\nexperiment = roc\n"
        "[sweep]\ndammages = 10\n"));
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("sweep.dammages"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpec, DuplicateSectionIsRejected) {
  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   "[scenario]\nname = x\nexperiment = roc\n"
                   "[sweep]\ndamages = 10\n[sweep]\ndamages = 20\n")),
               AssertionError);
}

TEST(ScenarioSpec, BadEnumValuesAreRejected) {
  const auto parse = [](const std::string& sweep_line) {
    return ScenarioSpec::from_config(KvConfig::parse_string(
        "[scenario]\nname = x\nexperiment = roc\n[sweep]\n" + sweep_line +
        "\n"));
  };
  EXPECT_THROW(parse("metrics = banana"), AssertionError);
  EXPECT_THROW(parse("attacks = nuke"), AssertionError);
  EXPECT_THROW(parse("shapes = pentagon"), AssertionError);
  EXPECT_THROW(parse("localizers = gps"), AssertionError);
  EXPECT_THROW(parse("mismatch_coupling = sideways"), AssertionError);
}

TEST(ScenarioSpec, EmptySweepListsAreRejected) {
  const auto parse = [](const std::string& body) {
    return ScenarioSpec::from_config(KvConfig::parse_string(
        "[scenario]\nname = x\nexperiment = dr-sweep\n" + body));
  };
  EXPECT_THROW(parse("[sweep]\ndamages =\n"), AssertionError);
  EXPECT_THROW(parse("[sweep]\nmetrics =\n"), AssertionError);
  // density-sweep without a density list cannot expand.
  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   "[scenario]\nname = x\nexperiment = density-sweep\n")),
               AssertionError);
}

TEST(ScenarioSpec, RangeSyntaxRoundTripsThroughSweeps) {
  const ScenarioSpec spec = ScenarioSpec::from_config(KvConfig::parse_string(
      "[scenario]\nname = x\nexperiment = dr-sweep\n"
      "[sweep]\ndamages = 40:160:40\n"));
  EXPECT_EQ(spec.damages, (std::vector<double>{40, 80, 120, 160}));

  const ScenarioSpec again = ScenarioSpec::from_config(KvConfig::parse_string(
      "[scenario]\nname = x\nexperiment = dr-sweep\n"
      "[sweep]\ndamages = " + render_list(spec.damages) + "\n"));
  EXPECT_EQ(again.damages, spec.damages);
}

TEST(ScenarioSpec, BadDetectorSettingsAreRejected) {
  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   "[scenario]\nname = x\nexperiment = roc\n"
                   "[detector]\nfp_budget = 1.5\n")),
               AssertionError);
  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   "[scenario]\nname = x\nexperiment = roc\n"
                   "[detector]\ntau = 0\n")),
               AssertionError);
}

// compromised is a fraction of the neighborhood and damages a distance:
// a value outside [0,1] or below 0 is rejected when the spec is parsed,
// by a message naming the key, before any kind computes with it.
TEST(ScenarioSpec, SweepValueRangesAreCheckedAtParseTime) {
  const auto parse = [](const std::string& kind, const std::string& line) {
    return ScenarioSpec::from_config(KvConfig::parse_string(
        "[scenario]\nname = x\nexperiment = " + kind + "\n[sweep]\n" +
        line + "\n"));
  };
  const auto expect_rejected = [&](const std::string& kind,
                                   const std::string& line,
                                   const std::string& key) {
    try {
      parse(kind, line);
      ADD_FAILURE() << kind << ": '" << line << "' was accepted";
    } catch (const AssertionError& e) {
      EXPECT_NE(std::string(e.what()).find("[sweep] " + key),
                std::string::npos)
          << e.what();
    }
  };
  for (const std::string kind : {"roc", "correction", "in-network"}) {
    SCOPED_TRACE(kind);
    // compromised: both ends of [0,1] are valid, either side is not.
    expect_rejected(kind, "compromised = 1.5", "compromised");
    expect_rejected(kind, "compromised = -0.2", "compromised");
    EXPECT_EQ(parse(kind, "compromised = 0").compromised.front(), 0.0);
    EXPECT_EQ(parse(kind, "compromised = 1").compromised.front(), 1.0);
    // damages: zero is valid, any negative value is not.
    expect_rejected(kind, "damages = -40", "damages");
    EXPECT_EQ(parse(kind, "damages = 0").damages.front(), 0.0);
  }
  // One bad value anywhere in a list rejects the spec.
  expect_rejected("roc", "compromised = 0.1, 0.2, 1.01", "compromised");
  expect_rejected("roc", "damages = 40, -1, 80", "damages");
  // A density below one node per group, a negative deployment sigma or
  // jitter: each would die at run time or run as the no-mismatch row.
  expect_rejected("density-sweep", "densities = 0", "densities");
  expect_rejected("density-sweep", "densities = 100, -5", "densities");
  for (const std::string kind : {"roc", "dr-sweep"}) {
    SCOPED_TRACE(kind);
    expect_rejected(kind, "actual_sigmas = -10", "actual_sigmas");
    expect_rejected(kind, "jitters = -1", "jitters");
    EXPECT_EQ(parse(kind, "actual_sigmas = 0").actual_sigmas.front(), 0.0);
    EXPECT_EQ(parse(kind, "jitters = 0").jitters.front(), 0.0);
  }
  EXPECT_EQ(parse("density-sweep", "densities = 1").densities.front(), 1);
}

// [quick] densities share the [sweep] densities range, and gz_omega has
// GzTable's floor of 8; both are checked before any pipeline is built.
TEST(ScenarioSpec, QuickDensitiesAndGzOmegaAreCheckedAtParseTime) {
  const auto message = [](const std::string& body) {
    try {
      ScenarioSpec::from_config(KvConfig::parse_string(
          "[scenario]\nname = x\nexperiment = density-sweep\n"
          "[sweep]\ndensities = 100\n" + body));
    } catch (const AssertionError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message("[quick]\ndensities = -3\n").find("[quick] densities"),
            std::string::npos);
  EXPECT_NE(message("[quick]\ndensities = 50, 0\n").find("[quick] densities"),
            std::string::npos);
  EXPECT_NE(message("[pipeline]\ngz_omega = 4\n").find("[pipeline] gz_omega"),
            std::string::npos);
  EXPECT_EQ(message("[quick]\ndensities = 1\n[pipeline]\ngz_omega = 8\n"),
            "accepted");
}

// A repeated [sweep] value would run the same work item twice.
TEST(ScenarioSpec, RepeatedSweepValuesAreRejectedAtParseTime) {
  const auto message = [](const std::string& kind, const std::string& body) {
    try {
      ScenarioSpec::from_config(KvConfig::parse_string(
          "[scenario]\nname = x\nexperiment = " + kind + "\n" + body));
    } catch (const AssertionError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message("roc", "[sweep]\ndamages = 80, 80\n")
                .find("[sweep] damages repeats 80"),
            std::string::npos);
  EXPECT_NE(message("roc", "[sweep]\ncompromised = 0.1, 0.2, 0.10\n")
                .find("[sweep] compromised repeats 0.10"),
            std::string::npos);
  // A range that overlaps a listed value, and two names for one value.
  EXPECT_NE(message("roc", "[sweep]\ndamages = 40:120:40, 80\n")
                .find("[sweep] damages repeats 80"),
            std::string::npos);
  EXPECT_NE(message("dr-sweep", "[sweep]\nshapes = hex, grid, hexagonal\n")
                .find("[sweep] shapes repeats hex"),
            std::string::npos);
  EXPECT_NE(message("roc", "[sweep]\nmetrics = diff, DIFF\n")
                .find("[sweep] metrics repeats diff"),
            std::string::npos);
  EXPECT_NE(message("density-sweep", "[sweep]\ndensities = 100, 300, 100\n")
                .find("[sweep] densities repeats 100"),
            std::string::npos);
  EXPECT_NE(message("density-sweep",
                    "[quick]\ndensities = 50, 50\n[sweep]\ndensities = 100\n")
                .find("[quick] densities repeats 50"),
            std::string::npos);
  EXPECT_EQ(message("roc", "[sweep]\ndamages = 80, 120\nmetrics = diff, prob\n"),
            "accepted");
}

// [quick] densities and [sweep] mismatch_coupling are read only by the
// kinds that sweep densities and the mismatch axes; elsewhere they are
// dead configuration.
TEST(ScenarioSpec, UnusedQuickDensitiesAndMismatchCouplingAreRejected) {
  const auto message = [](const std::string& kind, const std::string& body) {
    try {
      ScenarioSpec::from_config(KvConfig::parse_string(
          "[scenario]\nname = x\nexperiment = " + kind + "\n" + body));
    } catch (const AssertionError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  for (const std::string kind : {"roc", "dr-sweep", "correction"}) {
    SCOPED_TRACE(kind);
    EXPECT_NE(message(kind, "[quick]\ndensities = 50\n")
                  .find("[quick] densities is only consumed by density-sweep"),
              std::string::npos);
  }
  for (const std::string kind : {"roc", "density-sweep", "correction"}) {
    SCOPED_TRACE(kind);
    const std::string sweep =
        kind == "density-sweep" ? "densities = 100\n" : "";
    EXPECT_NE(message(kind, "[sweep]\n" + sweep + "mismatch_coupling = product\n")
                  .find("[sweep] mismatch_coupling is only consumed by "
                        "dr-sweep"),
              std::string::npos);
  }
  EXPECT_EQ(message("density-sweep",
                    "[quick]\ndensities = 50\n[sweep]\ndensities = 100\n"),
            "accepted");
  EXPECT_EQ(message("dr-sweep", "[sweep]\nmismatch_coupling = product\n"),
            "accepted");
}

TEST(ScenarioSpec, UnsweptMultiValuedAxesAreRejected) {
  const auto parse = [](const std::string& kind, const std::string& body) {
    return ScenarioSpec::from_config(KvConfig::parse_string(
        "[scenario]\nname = x\nexperiment = " + kind + "\n" + body));
  };
  // roc expands metrics/attacks/damages/compromised, nothing else.
  EXPECT_THROW(parse("roc", "[sweep]\nlocalizers = beaconless-mle, dv-hop\n"),
               AssertionError);
  EXPECT_THROW(parse("roc", "[sweep]\nshapes = grid, hex\n"), AssertionError);
  EXPECT_THROW(parse("roc", "[sweep]\ndensities = 100, 300\n"),
               AssertionError);
  // metric-fusion commits to one damage / compromise level.
  EXPECT_THROW(parse("metric-fusion", "[sweep]\ndamages = 80, 160\n"),
               AssertionError);
  EXPECT_THROW(parse("echo-comparison", "[sweep]\ncompromised = 0.1, 0.2\n"),
               AssertionError);
  // dr-sweep legitimately expands all of these.
  EXPECT_NO_THROW(parse("dr-sweep",
                        "[sweep]\nshapes = grid, hex\n"
                        "localizers = beaconless-mle, dv-hop\n"
                        "damages = 80, 160\ncompromised = 0.1, 0.2\n"));
}

TEST(ScenarioSpec, ForeignKindSectionsAreRejected) {
  try {
    ScenarioSpec::from_config(KvConfig::parse_string(
        "[scenario]\nname = x\nexperiment = dr-sweep\n[gz]\nomegas = 8\n"));
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("only valid for experiment = "
                                         "gz-accuracy"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpec, QuickOverridesApply) {
  ScenarioSpec spec = ScenarioSpec::from_config(KvConfig::parse_string(
      "[scenario]\nname = x\nexperiment = density-sweep\n"
      "[quick]\nnetworks = 2\nvictims = 20\ndensities = 50\n"
      "[sweep]\ndensities = 100, 300\n"));
  ScenarioOverrides o;
  o.quick = true;
  spec = apply_overrides(spec, o);
  EXPECT_EQ(spec.pipeline.networks, 2);
  EXPECT_EQ(spec.pipeline.victims_per_network, 20);
  EXPECT_EQ(spec.densities, (std::vector<int>{50}));
}

TEST(ScenarioSpec, QuickNeverInflatesASmallSpec) {
  // tiny has no [quick] section and is already below the 3x60 fallback in
  // networks; quick mode must not grow the run.
  ScenarioOverrides o;
  o.quick = true;
  const ScenarioSpec spec = apply_overrides(tiny_spec(), o);
  EXPECT_EQ(spec.pipeline.networks, 2);            // unchanged (< 3)
  EXPECT_EQ(spec.pipeline.victims_per_network, 30);  // unchanged (< 60)
}

TEST(ScenarioSpec, ExplicitOverridesBeatQuick) {
  ScenarioOverrides o;
  o.quick = true;
  o.networks = 5;
  o.seed = 99;
  const ScenarioSpec spec = apply_overrides(tiny_spec(), o);
  EXPECT_EQ(spec.pipeline.networks, 5);
  EXPECT_EQ(spec.pipeline.seed, 99u);
}

// --- shard syntax ------------------------------------------------------

TEST(ParseShard, AcceptsValidRanges) {
  EXPECT_EQ(parse_shard("0/1").index, 0);
  EXPECT_EQ(parse_shard("0/1").count, 1);
  EXPECT_EQ(parse_shard("3/8").index, 3);
  EXPECT_EQ(parse_shard("3/8").count, 8);
}

TEST(ParseShard, RejectsMalformedSyntax) {
  EXPECT_THROW(parse_shard("0/0"), AssertionError);
  EXPECT_THROW(parse_shard("banana"), AssertionError);
  EXPECT_THROW(parse_shard("1"), AssertionError);
  EXPECT_THROW(parse_shard("1/2/3"), AssertionError);
  EXPECT_THROW(parse_shard("2/2"), AssertionError);
  EXPECT_THROW(parse_shard("-1/2"), AssertionError);
  EXPECT_THROW(parse_shard("a/b"), AssertionError);
  EXPECT_THROW(parse_shard(""), AssertionError);
}

// --- runner ------------------------------------------------------------

TEST(ScenarioRunner, NumItemsMatchesTheCartesianProduct) {
  EXPECT_EQ(ScenarioRunner(tiny_spec()).num_items(), 4);  // 2 D x 2 x

  const ScenarioSpec roc = ScenarioSpec::from_config(KvConfig::parse_string(
      "[scenario]\nname = r\nexperiment = roc\n"
      "[sweep]\nmetrics = diff, prob\nattacks = dec-bounded, dec-only\n"
      "damages = 40, 80, 120\n"));
  EXPECT_EQ(ScenarioRunner(roc).num_items(), 12);  // 2 metrics x 2 x 3 D
}

TEST(ScenarioRunner, DrSweepMatchesTheDirectEntryPoint) {
  const ScenarioSpec spec = tiny_spec();
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  ASSERT_EQ(result.tables.size(), 1u);
  const Table& table = result.tables[0].table;
  ASSERT_EQ(table.num_rows(), 4u);
  EXPECT_EQ(table.columns(),
            (std::vector<std::string>{"x", "D", "DR", "trained_FP",
                                      "threshold"}));

  // Independent reference: train at the (1 - fp_budget) percentile of the
  // benign scores, then score each (x, D) attack against that threshold.
  Pipeline pipeline(spec.pipeline);
  const LocalizerFactory factory =
      beaconless_mle_factory(pipeline.model(), pipeline.gz());
  const std::vector<double> benign =
      pipeline.benign_scores(factory, {MetricKind::kDiff})
          .scores.at(MetricKind::kDiff);
  const double threshold =
      train_threshold(MetricKind::kDiff, benign, 1.0 - spec.fp_budget)
          .threshold;
  std::size_t row = 0;
  for (double x : spec.compromised) {
    for (double d : spec.damages) {
      const std::vector<double> attack =
          pipeline
              .attack_batch(d, {{MetricKind::kDiff, AttackClass::kDecBounded,
                                 x, {MetricKind::kDiff}}})
              .scores[0][0];
      EXPECT_EQ(table.cell(row, 0), format_double(x, 2));
      EXPECT_EQ(table.cell(row, 1), format_double(d, 0));
      EXPECT_EQ(table.cell(row, 2),
                format_double(fraction_above(attack, threshold), 4));
      EXPECT_EQ(table.cell(row, 3),
                format_double(fraction_above(benign, threshold), 4));
      EXPECT_EQ(table.cell(row, 4), format_double(threshold, 2));
      ++row;
    }
  }
}

TEST(ScenarioRunner, ShardsPartitionTheItems) {
  ScenarioRunner runner(tiny_spec());
  const ScenarioResult full = runner.run();

  std::vector<long long> seen;
  for (int i = 0; i < 3; ++i) {
    ScenarioRunner shard_runner(tiny_spec());
    const ScenarioResult part = shard_runner.run(ShardRange{i, 3});
    for (long long item : part.tables[0].row_items) seen.push_back(item);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, full.tables[0].row_items);  // full run is 0,1,2,3
}

TEST(ScenarioRunner, MergedShardCsvsAreByteIdenticalToTheFullRun) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::path(testing::TempDir()) / "lad_scenario_shard_test";
  fs::remove_all(base);

  {
    ScenarioRunner runner(tiny_spec());
    write_result_csvs(runner.run(), (base / "full").string());
  }
  std::vector<std::string> shard_dirs;
  for (int i = 0; i < 2; ++i) {
    ScenarioRunner runner(tiny_spec());
    const std::string dir = (base / ("shard" + std::to_string(i))).string();
    write_result_csvs(runner.run(ShardRange{i, 2}), dir);
    shard_dirs.push_back(dir);
  }
  merge_result_csvs(shard_dirs, (base / "merged").string());

  const std::string full = read_file(base / "full" / "tiny.dr.csv");
  const std::string merged = read_file(base / "merged" / "tiny.dr.csv");
  EXPECT_FALSE(full.empty());
  EXPECT_EQ(full, merged);
  fs::remove_all(base);
}

TEST(ScenarioSpec, JobsParsesAppliesAndRejectsBadValues) {
  ScenarioSpec spec = tiny_spec();
  EXPECT_EQ(spec.jobs, 1);  // default: sequential

  const ScenarioSpec with_run = ScenarioSpec::from_config(
      KvConfig::parse_string(std::string(kTinySpec) + "\n[run]\njobs = 3\n"));
  EXPECT_EQ(with_run.jobs, 3);

  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   std::string(kTinySpec) + "\n[run]\njobs = 0\n")),
               AssertionError);

  ScenarioOverrides o;
  o.jobs = 4;
  EXPECT_EQ(apply_overrides(tiny_spec(), o).jobs, 4);
}

TEST(ScenarioOverrides, JobsFlagRejectsZeroAndNegativeByName) {
  auto flags_for = [](const char* jobs) {
    std::vector<const char*> argv = {"prog", "--jobs", jobs};
    return Flags::parse(static_cast<int>(argv.size()), argv.data());
  };
  EXPECT_EQ(overrides_from_flags(flags_for("4")).jobs, 4);
  for (const char* bad : {"0", "-2"}) {
    const Flags flags = flags_for(bad);
    try {
      overrides_from_flags(flags);
      FAIL() << "--jobs " << bad << " accepted";
    } catch (const AssertionError& e) {
      EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
    }
  }
}

TEST(ScenarioRunner, ConcurrentJobsMatchSequentialByteForByte) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::path(testing::TempDir()) / "lad_scenario_jobs_test";
  fs::remove_all(base);

  ScenarioSpec spec = tiny_spec();
  spec.jobs = 1;
  {
    ScenarioRunner runner(spec);
    write_result_csvs(runner.run(), (base / "j1").string());
  }
  spec.jobs = 4;
  {
    ScenarioRunner runner(spec);
    write_result_csvs(runner.run(), (base / "j4").string());
  }
  const std::string sequential = read_file(base / "j1" / "tiny.dr.csv");
  const std::string concurrent = read_file(base / "j4" / "tiny.dr.csv");
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, concurrent);
  fs::remove_all(base);
}

TEST(ScenarioRunner, MergeRejectsOverlappingShards) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::path(testing::TempDir()) / "lad_scenario_overlap_test";
  fs::remove_all(base);

  ScenarioRunner runner(tiny_spec());
  const std::string dir = (base / "shard0").string();
  write_result_csvs(runner.run(ShardRange{0, 2}), dir);
  // The same shard dir twice duplicates every item tag.
  EXPECT_THROW(merge_result_csvs({dir, dir}, (base / "merged").string()),
               AssertionError);
  fs::remove_all(base);
}

TEST(ScenarioRunner, MergeRejectsIncompleteShardSetsUnlessPartial) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::path(testing::TempDir()) / "lad_scenario_partial_test";
  fs::remove_all(base);

  // Only shard 1 of 2: items 1 and 3 exist, 0 and 2 are missing.
  ScenarioRunner runner(tiny_spec());
  const std::string dir = (base / "shard1").string();
  write_result_csvs(runner.run(ShardRange{1, 2}), dir);
  EXPECT_THROW(merge_result_csvs({dir}, (base / "merged").string()),
               AssertionError);
  EXPECT_NO_THROW(merge_result_csvs({dir}, (base / "merged").string(),
                                    /*require_complete=*/false));
  fs::remove_all(base);
}

// --- per-group threshold axis ------------------------------------------

TEST(ScenarioSpec, GroupThresholdsAxisParsesAndDefaults) {
  EXPECT_EQ(tiny_spec().group_threshold_modes,
            std::vector<GroupThresholdMode>{GroupThresholdMode::kGlobal});
  EXPECT_EQ(tiny_spec().group_min_samples, 100);

  ScenarioSpec spec = ScenarioSpec::from_config(KvConfig::parse_string(
      std::string(kTinySpec).replace(
          std::string(kTinySpec).find("[sweep]"), 7,
          "[sweep]\ngroup_thresholds = global, per_group")));
  EXPECT_EQ(spec.group_threshold_modes,
            (std::vector<GroupThresholdMode>{GroupThresholdMode::kGlobal,
                                             GroupThresholdMode::kPerGroup}));

  EXPECT_THROW(
      ScenarioSpec::from_config(KvConfig::parse_string(
          std::string(kTinySpec).replace(
              std::string(kTinySpec).find("[sweep]"), 7,
              "[sweep]\ngroup_thresholds = per_node"))),
      AssertionError);
}

TEST(ScenarioSpec, GroupThresholdKeysRejectedOutsideDrSweep) {
  // The axis (and its floor) are dr-sweep-only: anywhere else they would
  // be dead configuration.
  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   "[scenario]\nname = r\nexperiment = roc\n"
                   "[sweep]\ngroup_thresholds = global\n")),
               AssertionError);
  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   "[scenario]\nname = r\nexperiment = roc\n"
                   "[detector]\ngroup_min_samples = 10\n")),
               AssertionError);
  EXPECT_NO_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
      "[scenario]\nname = d\nexperiment = dr-sweep\n"
      "[sweep]\ngroup_thresholds = per_group\n"
      "[detector]\ngroup_min_samples = 10\n")));
}

constexpr const char* kGroupedSpec = R"([scenario]
name = grouped
experiment = dr-sweep

[pipeline]
seed = 7
m = 25
networks = 2
victims = 200
sigma = 30
r = 50
field = 600
grid_nx = 6
grid_ny = 6

[sweep]
group_thresholds = global, per_group
damages = 60, 120
compromised = 0.10

[detector]
fp_budget = 0.05
group_min_samples = 5
)";

TEST(ScenarioRunner, PerGroupModeChangesBoundaryButNotInteriorColumns) {
  const ScenarioSpec spec =
      ScenarioSpec::from_config(KvConfig::parse_string(kGroupedSpec));
  ScenarioRunner runner(spec);
  EXPECT_EQ(runner.num_items(), 4);  // 2 modes x 2 damages
  const ScenarioResult result = runner.run();
  ASSERT_EQ(result.tables.size(), 1u);
  const Table& t = result.tables[0].table;
  EXPECT_EQ(t.columns(),
            (std::vector<std::string>{"group_mode", "x", "D", "DR",
                                      "trained_FP", "threshold",
                                      "DR_interior", "DR_boundary",
                                      "FP_interior", "FP_boundary"}));
  ASSERT_EQ(t.num_rows(), 4u);
  const auto col = [&](const std::string& name) {
    const auto& cols = t.columns();
    return static_cast<std::size_t>(
        std::find(cols.begin(), cols.end(), name) - cols.begin());
  };
  bool boundary_changed = false;
  for (std::size_t d = 0; d < 2; ++d) {
    const std::size_t global_row = d, per_group_row = 2 + d;
    EXPECT_EQ(t.cell(global_row, col("group_mode")), "global");
    EXPECT_EQ(t.cell(per_group_row, col("group_mode")), "per_group");
    EXPECT_EQ(t.cell(global_row, col("D")), t.cell(per_group_row, col("D")));
    // Interior groups always keep the pooled threshold: byte-identical.
    for (const char* c : {"DR_interior", "FP_interior", "threshold"}) {
      EXPECT_EQ(t.cell(global_row, col(c)), t.cell(per_group_row, col(c)))
          << c << " differs at D row " << d;
    }
    for (const char* c : {"DR_boundary", "FP_boundary"}) {
      if (t.cell(global_row, col(c)) != t.cell(per_group_row, col(c))) {
        boundary_changed = true;
      }
    }
  }
  EXPECT_TRUE(boundary_changed)
      << "per_group mode should move at least one boundary column";
}

TEST(ScenarioRunner, GlobalOnlySpecKeepsTheHistoricalColumns) {
  // No per_group in the axis -> no mode column, no split columns, and item
  // ids identical to a spec that never mentions the axis.
  ScenarioRunner runner(tiny_spec());
  const ScenarioResult result = runner.run();
  EXPECT_EQ(result.tables[0].table.columns(),
            (std::vector<std::string>{"x", "D", "DR", "trained_FP",
                                      "threshold"}));
}

// --- resume completeness ------------------------------------------------

TEST(ScenarioRunner, OutputCompleteRequiresRowsNotJustFiles) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::path(testing::TempDir()) / "lad_scenario_resume_test";
  fs::remove_all(base);
  const std::string dir = (base / "out").string();

  ScenarioRunner runner(tiny_spec());
  write_result_csvs(runner.run(), dir);
  std::string reason;
  EXPECT_TRUE(runner.output_complete(dir, ShardRange{}, &reason)) << reason;

  // A header-only CSV (run killed between header write and first row)
  // must read as incomplete even though the file exists.
  const fs::path csv = fs::path(dir) / "tiny.dr.csv";
  std::string header;
  {
    std::ifstream is(csv);
    ASSERT_TRUE(std::getline(is, header));
  }
  {
    std::ofstream os(csv, std::ios::trunc);
    os << header << "\n";
  }
  EXPECT_FALSE(runner.output_complete(dir, ShardRange{}, &reason));
  EXPECT_NE(reason.find("work item"), std::string::npos) << reason;

  // A missing file is incomplete with a reason naming it.
  fs::remove(csv);
  EXPECT_FALSE(runner.output_complete(dir, ShardRange{}, &reason));
  EXPECT_NE(reason.find("missing"), std::string::npos) << reason;
  fs::remove_all(base);
}

TEST(ScenarioRunner, OutputCompleteIsShardAware) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::path(testing::TempDir()) / "lad_scenario_resume_shard_test";
  fs::remove_all(base);
  const std::string dir = (base / "s0").string();

  ScenarioRunner runner(tiny_spec());
  write_result_csvs(runner.run(ShardRange{0, 2}), dir);
  std::string reason;
  // Complete for the shard that wrote it...
  EXPECT_TRUE(runner.output_complete(dir, ShardRange{0, 2}, &reason))
      << reason;
  // ...but not for the other shard (its items are absent), nor for a
  // different split (the present items are not owned).
  EXPECT_FALSE(runner.output_complete(dir, ShardRange{1, 2}, &reason));
  EXPECT_NE(reason.find("not own"), std::string::npos) << reason;
  fs::remove_all(base);
}

TEST(ScenarioSpec, BundleKeyOnlyValidForMetricFusion) {
  const ScenarioSpec fusion = ScenarioSpec::from_config(KvConfig::parse_string(
      "[scenario]\nname = f\nexperiment = metric-fusion\n"
      "[detector]\nbundle = some/path.lad\n"));
  EXPECT_EQ(fusion.bundle, "some/path.lad");

  EXPECT_THROW(ScenarioSpec::from_config(KvConfig::parse_string(
                   "[scenario]\nname = d\nexperiment = dr-sweep\n"
                   "[detector]\nbundle = some/path.lad\n")),
               AssertionError);
}

// A tiny metric-fusion spec (same deployment as kTinySpec).
constexpr const char* kTinyFusionSpec = R"([scenario]
name = tinyfusion
experiment = metric-fusion

[pipeline]
seed = 7
m = 25
networks = 2
victims = 30
sigma = 30
r = 50
field = 600
grid_nx = 6
grid_ny = 6

[sweep]
metrics = diff, add-all, prob
damages = 100
compromised = 0.10

[detector]
tau = 0.99
)";

TEST(ScenarioRunner, TableIdsMatchTheEmittedTables) {
  const auto ids_of = [](const ScenarioResult& result) {
    std::vector<std::string> ids;
    for (const ResultTable& t : result.tables) ids.push_back(t.id);
    return ids;
  };
  // One spec per cheap kind; the expensive kinds share the same
  // table-construction pattern (ids built before any item runs).
  const std::vector<std::string> specs = {
      kTinySpec,
      kTinyFusionSpec,
      "[scenario]\nname = p\nexperiment = deployment-pdf\n[pdf]\ngrid = 3\n",
      "[scenario]\nname = g\nexperiment = gz-accuracy\n[gz]\nomegas = 8\n",
      "[scenario]\nname = r\nexperiment = roc\n"
      "[pipeline]\nnetworks = 1\nvictims = 5\nm = 25\nsigma = 30\n"
      "field = 600\ngrid_nx = 6\ngrid_ny = 6\n"
      "[output]\ncurve_points = 0\n",
      "[scenario]\nname = e\nexperiment = time-evolving\n"
      "[pipeline]\nm = 25\nsigma = 30\nfield = 600\ngrid_nx = 6\n"
      "grid_ny = 6\n"
      "[evolve]\ntrials = 4\nrounds = 2\ntrain_samples = 40\n",
      "[scenario]\nname = n\nexperiment = in-network\n"
      "[pipeline]\nm = 25\nsigma = 30\nfield = 600\ngrid_nx = 6\n"
      "grid_ny = 6\n"
      "[coop]\ntrials = 4\ntrain_samples = 40\n",
  };
  for (const std::string& text : specs) {
    const ScenarioSpec spec =
        ScenarioSpec::from_config(KvConfig::parse_string(text));
    SCOPED_TRACE(spec.name);
    ScenarioRunner runner(spec);
    EXPECT_EQ(runner.table_ids(), ids_of(runner.run()));
  }
}

TEST(ScenarioRunner, FusionThroughSavedBundleMatchesInlineTraining) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::path(testing::TempDir()) / "lad_scenario_bundle_test";
  fs::remove_all(base);
  fs::create_directories(base);

  ScenarioSpec spec =
      ScenarioSpec::from_config(KvConfig::parse_string(kTinyFusionSpec));
  const ScenarioResult inline_result = ScenarioRunner(spec).run();

  // Train the same thresholds the inline path trains, ship them through a
  // saved v2 bundle, and point the spec at the artifact.
  Pipeline pipeline(spec.pipeline);
  const LocalizerFactory factory =
      beaconless_mle_factory(pipeline.model(), pipeline.gz());
  const auto benign = pipeline.benign_scores(factory, spec.metrics).scores;
  std::vector<DetectorSpec> sections;
  for (MetricKind k : spec.metrics) {
    sections.push_back(detector_spec_from_training(
        {train_threshold(k, benign.at(k), spec.tau)}, spec.tau));
  }
  const fs::path bundle_path = base / "fusion.lad";
  {
    std::ofstream os(bundle_path);
    save_bundle(os, make_bundle(pipeline.model(),
                                spec.pipeline.gz_omega, sections));
  }
  spec.bundle = bundle_path.string();
  const ScenarioResult bundle_result = ScenarioRunner(spec).run();

  ASSERT_EQ(bundle_result.tables.size(), inline_result.tables.size());
  for (std::size_t t = 0; t < inline_result.tables.size(); ++t) {
    const Table& a = inline_result.tables[t].table;
    const Table& b = bundle_result.tables[t].table;
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      for (std::size_t c = 0; c < a.num_cols(); ++c) {
        EXPECT_EQ(a.cell(r, c), b.cell(r, c))
            << inline_result.tables[t].id << " row " << r << " col " << c;
      }
    }
  }

  // A bundle missing one of the spec's metrics is rejected, not silently
  // retrained.
  ScenarioSpec partial =
      ScenarioSpec::from_config(KvConfig::parse_string(kTinyFusionSpec));
  const fs::path partial_path = base / "partial.lad";
  {
    std::ofstream os(partial_path);
    save_bundle(os, make_bundle(pipeline.model(), spec.pipeline.gz_omega,
                                {sections.front()}));
  }
  partial.bundle = partial_path.string();
  EXPECT_THROW(ScenarioRunner(partial).run(), AssertionError);

  // A bundle trained on a different deployment (here: another g(z)
  // resolution) is rejected, not silently applied.
  ScenarioSpec mismatched =
      ScenarioSpec::from_config(KvConfig::parse_string(kTinyFusionSpec));
  const fs::path mismatched_path = base / "mismatched.lad";
  {
    std::ofstream os(mismatched_path);
    save_bundle(os, make_bundle(pipeline.model(), 999, sections));
  }
  mismatched.bundle = mismatched_path.string();
  EXPECT_THROW(ScenarioRunner(mismatched).run(), AssertionError);
  fs::remove_all(base);
}

TEST(ScenarioRunner, RocEmitsSummaryAndCurves) {
  const ScenarioSpec spec = ScenarioSpec::from_config(KvConfig::parse_string(
      "[scenario]\nname = r\nexperiment = roc\n"
      "[pipeline]\nseed = 7\nm = 25\nnetworks = 2\nvictims = 30\n"
      "sigma = 30\nfield = 600\ngrid_nx = 6\ngrid_ny = 6\n"
      "[sweep]\ndamages = 120\n"
      "[output]\nfp_grid = 0.01, 0.1\ncurve_points = 10\n"));
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  ASSERT_EQ(result.tables.size(), 2u);
  EXPECT_EQ(result.tables[0].id, "summary");
  EXPECT_EQ(result.tables[0].table.columns(),
            (std::vector<std::string>{"D", "AUC", "DR@1%", "DR@10%"}));
  ASSERT_EQ(result.tables[0].table.num_rows(), 1u);
  EXPECT_EQ(result.tables[1].id, "curves");
  EXPECT_GT(result.tables[1].table.num_rows(), 0u);
}

// Every checked-in spec must parse and expand (guards the .scn files the
// bench wrappers and docs reference).
TEST(ScenarioSpecFiles, AllCheckedInSpecsParse) {
#ifndef LAD_SCENARIO_DIR
  GTEST_SKIP() << "LAD_SCENARIO_DIR not configured";
#else
  namespace fs = std::filesystem;
  int count = 0;
  for (const auto& entry : fs::directory_iterator(LAD_SCENARIO_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    SCOPED_TRACE(entry.path().string());
    const ScenarioSpec spec = ScenarioSpec::load(entry.path().string());
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GT(ScenarioRunner(spec).num_items(), 0);
    ++count;
  }
  EXPECT_GE(count, 20);  // 19 figure/table specs + quickstart
#endif
}

}  // namespace
}  // namespace lad
