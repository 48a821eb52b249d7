// Invariants of the experiment-kind table (sim/kind_table.h): every row's
// name, own section and section-key domains must agree with what the
// parser accepts, the fuzzer's generator must reach every row, and the
// grid kinds' axis walk must match the loop nests it replaced.
#include "sim/kind_table.h"

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/deployment_model.h"
#include "rng/rng.h"
#include "sim/scenario.h"
#include "sim/scenario_fuzz.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/kvconfig.h"
#include "util/string_util.h"

namespace lad {
namespace {

/// The smallest spec text of `kind` the parser accepts, plus `extra`.
std::string minimal_spec(const KindSpec& kind, const std::string& extra) {
  std::string text = "[scenario]\nname = k\nexperiment = " +
                     std::string(kind.name) + "\n";
  if (kind.accepts(kKeyDensities)) text += "[sweep]\ndensities = 100\n";
  return text + extra;
}

/// "[name]\n", built by appends (GCC 12 misreports "[" + s + "]" under
/// -Wrestrict).
std::string header(const char* name) {
  std::string line = "[";
  line += name;
  line += "]\n";
  return line;
}

ScenarioSpec parse(const std::string& text) {
  return ScenarioSpec::from_config(KvConfig::parse_string(text));
}

TEST(KindTable, RowsFollowTheEnumOrder) {
  const std::vector<KindSpec>& table = kind_table();
  ASSERT_EQ(table.size(), 12u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table[i].kind, static_cast<ExperimentKind>(i)) << table[i].name;
    EXPECT_EQ(&kind_spec(table[i].kind), &table[i]);
  }
}

TEST(KindTable, NamesRoundTrip) {
  for (const KindSpec& row : kind_table()) {
    SCOPED_TRACE(row.name);
    EXPECT_STREQ(experiment_kind_name(row.kind), row.name);
    EXPECT_EQ(find_kind(row.name).kind, row.kind);
    std::string upper = row.name;
    for (char& c : upper) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    EXPECT_EQ(find_kind(upper).kind, row.kind);
    EXPECT_EQ(parse(minimal_spec(row, "")).kind, row.kind);
  }
  EXPECT_THROW(find_kind("no-such-kind"), AssertionError);
}

TEST(KindTable, OwnSectionIsAcceptedAndEveryOtherRejected) {
  for (const KindSpec& row : kind_table()) {
    SCOPED_TRACE(row.name);
    if (*row.section != '\0') {
      EXPECT_NO_THROW(
          parse(minimal_spec(row, header(row.section))));
    }
    for (const KindSpec& other : kind_table()) {
      if (&other == &row || *other.section == '\0') continue;
      try {
        parse(minimal_spec(row, header(other.section)));
        ADD_FAILURE() << "[" << other.section << "] accepted";
      } catch (const AssertionError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      std::string("only valid for experiment = ") +
                      other.name),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// Each kind-only key belongs to exactly one kind, so the parser's "is only
// consumed by <kind>" rejection names a single owner.
TEST(KindTable, EveryKindOnlyKeyHasOneOwner) {
  for (KindAccepts key : {kKeyDensities, kKeyGroupThresholds, kKeyBundle}) {
    int owners = 0;
    for (const KindSpec& row : kind_table()) owners += row.accepts(key);
    EXPECT_EQ(owners, 1) << "key bit " << key;
  }
}

// The fuzzer draws section values from these domains, so both ends of
// every domain must parse and expand.
TEST(KindTable, SectionKeyDomainsAreAccepted) {
  for (const KindSpec& row : kind_table()) {
    EXPECT_EQ(*row.section == '\0', row.parse_section == nullptr) << row.name;
    EXPECT_EQ(*row.section == '\0', row.section_keys.empty()) << row.name;
    for (const SectionKey& key : row.section_keys) {
      for (double v : {key.lo, key.hi}) {
        const std::string line = std::string(key.key) + " = " +
                                 format_double(v, key.decimals) + "\n";
        SCOPED_TRACE(std::string(row.name) + ": " + line);
        EXPECT_NO_THROW(check_scn_accepted(minimal_spec(
            row, header(row.section) + line)));
      }
    }
  }
}

// The same streams ScenarioFuzz.GeneratedSpecsAreAccepted replays must
// reach every row, so a new kind cannot slip past the generator.
TEST(KindTable, GeneratedSpecsCoverEveryKind) {
  std::set<ExperimentKind> seen;
  for (std::uint64_t item = 0; item < 64; ++item) {
    Rng rng = Rng::stream(9001, item);
    seen.insert(parse(generate_valid_scn(rng)).kind);
  }
  for (const KindSpec& row : kind_table()) {
    EXPECT_TRUE(seen.count(row.kind)) << row.name << " never generated";
  }
}

// --- the grid kinds' axis walk ---------------------------------------------

/// One shard's walk of a grid kind: the owned item ids in order, each
/// cell's axis values, the dim columns and each item's row prefix.
struct Walk {
  std::vector<std::string> dims;
  std::vector<long long> items;
  std::vector<std::string> cells;  ///< describe() of each item's cell
  std::vector<std::vector<std::string>> prefixes;
};

/// Every GridCell field, doubles at full precision: equal text means
/// equal cells.
std::string describe(const GridCell& c) {
  std::ostringstream os;
  os << std::setprecision(17) << detail::group_threshold_mode_name(c.mode)
     << " sigma=" << c.actual_sigma << " jitter=" << c.jitter << " "
     << deployment_shape_name(c.shape) << " loc=" << c.localizer
     << " m=" << c.m << " " << metric_name(c.metric) << " "
     << attack_class_name(c.attack) << " x=" << c.x << " D=" << c.d;
  return os.str();
}

/// Records one walked item; `add_dims` appends its prefix to the row.
void record(Walk& w, Table& prefix, long long item, const GridCell& cell,
            const std::function<void(Table&)>& add_dims) {
  w.items.push_back(item);
  w.cells.push_back(describe(cell));
  add_dims(prefix.new_row());
  w.prefixes.push_back(prefix.row(prefix.num_rows() - 1));
}

/// The axis walk under test: the row's dim columns, for_each_cell and
/// add_dims, as the runner's grid kinds use them.
Walk axis_walk(const ScenarioSpec& spec, const ShardRange& shard) {
  const KindSpec& kind = kind_spec(spec.kind);
  Walk w;
  w.dims = kind.dim_columns(spec);
  Table prefix(w.dims);
  kind.for_each_cell(spec, shard, [&](long long item, const GridCell& cell) {
    record(w, prefix, item, cell,
           [&](Table& t) { kind.add_dims(spec, cell, t); });
  });
  return w;
}

/// Reference: the three loop nests and column gates the axis lists
/// replaced, kept as they ran in run_roc / run_dr / run_density.
Walk reference_walk(const ScenarioSpec& spec, const ShardRange& shard) {
  Walk w;
  long long item = -1;
  if (spec.kind == ExperimentKind::kRoc) {
    const bool many_metrics = spec.metrics.size() > 1;
    const bool many_attacks = spec.attacks.size() > 1;
    const bool many_xs = spec.compromised.size() > 1;
    if (many_metrics) w.dims.push_back("metric");
    if (many_attacks) w.dims.push_back("attack");
    w.dims.push_back("D");
    if (many_xs) w.dims.push_back("x");
    Table prefix(w.dims);
    for (MetricKind metric : spec.metrics) {
      for (AttackClass cls : spec.attacks) {
        for (double d : spec.damages) {
          for (double x : spec.compromised) {
            ++item;
            if (!shard.contains(item)) continue;
            GridCell c;
            c.metric = metric;
            c.attack = cls;
            c.d = d;
            c.x = x;
            record(w, prefix, item, c, [&](Table& t) {
              if (many_metrics) t.add(metric_name(metric));
              if (many_attacks) t.add(attack_class_name(cls));
              t.add(d, 0);
              if (many_xs) t.add(x, 2);
            });
          }
        }
      }
    }
  } else if (spec.kind == ExperimentKind::kDrSweep) {
    // mismatch_pairs(), as the dr-sweep loop expanded it.
    std::vector<std::pair<double, double>> pairs;
    if (spec.mismatch_coupling == MismatchCoupling::kProduct) {
      for (double sigma : spec.actual_sigmas) {
        for (double jitter : spec.jitters) pairs.emplace_back(sigma, jitter);
      }
    } else if (spec.actual_sigmas.size() <= 1) {
      for (double jitter : spec.jitters) {
        pairs.emplace_back(spec.actual_sigmas.front(), jitter);
      }
    } else {
      for (double sigma : spec.actual_sigmas) {
        pairs.emplace_back(sigma, spec.jitters.front());
      }
      if (spec.jitters.size() > 1) {
        for (double jitter : spec.jitters) {
          pairs.emplace_back(spec.actual_sigmas.front(), jitter);
        }
      }
    }
    const bool many_sigmas = spec.actual_sigmas.size() > 1;
    const bool many_jitters = spec.jitters.size() > 1;
    const bool many_shapes = spec.shapes.size() > 1;
    const bool many_locs = spec.localizers.size() > 1;
    const bool many_metrics = spec.metrics.size() > 1;
    const bool many_attacks = spec.attacks.size() > 1;
    const bool many_modes = spec.group_threshold_modes.size() > 1;
    if (many_modes) w.dims.push_back("group_mode");
    if (many_sigmas) w.dims.push_back("actual_sigma");
    if (many_jitters) w.dims.push_back("jitter");
    if (many_shapes) w.dims.push_back("shape");
    if (many_locs) w.dims.push_back("localizer");
    if (many_metrics) w.dims.push_back("metric");
    if (many_attacks) w.dims.push_back("attack");
    w.dims.push_back("x");
    w.dims.push_back("D");
    Table prefix(w.dims);
    for (GroupThresholdMode mode : spec.group_threshold_modes) {
      for (const auto& [actual_sigma, jitter] : pairs) {
        for (DeploymentShape shape : spec.shapes) {
          for (const std::string& localizer : spec.localizers) {
            for (MetricKind metric : spec.metrics) {
              for (AttackClass cls : spec.attacks) {
                for (double x : spec.compromised) {
                  for (double d : spec.damages) {
                    ++item;
                    if (!shard.contains(item)) continue;
                    GridCell c;
                    c.mode = mode;
                    c.actual_sigma = actual_sigma;
                    c.jitter = jitter;
                    c.shape = shape;
                    c.localizer = localizer;
                    c.metric = metric;
                    c.attack = cls;
                    c.x = x;
                    c.d = d;
                    record(w, prefix, item, c, [&](Table& row) {
                      if (many_modes) {
                        row.add(detail::group_threshold_mode_name(mode));
                      }
                      if (many_sigmas) row.add(c.actual_sigma, 1);
                      if (many_jitters) row.add(c.jitter, 1);
                      if (many_shapes) row.add(deployment_shape_name(shape));
                      if (many_locs) row.add(localizer);
                      if (many_metrics) row.add(metric_name(metric));
                      if (many_attacks) row.add(attack_class_name(cls));
                      row.add(x, 2).add(d, 0);
                    });
                  }
                }
              }
            }
          }
        }
      }
    }
  } else {
    const bool many_metrics = spec.metrics.size() > 1;
    const bool many_attacks = spec.attacks.size() > 1;
    w.dims = {"m"};
    if (many_metrics) w.dims.push_back("metric");
    if (many_attacks) w.dims.push_back("attack");
    w.dims.insert(w.dims.end(), {"x", "D"});
    Table prefix(w.dims);
    for (int m : spec.densities) {
      for (MetricKind metric : spec.metrics) {
        for (AttackClass cls : spec.attacks) {
          for (double x : spec.compromised) {
            for (double d : spec.damages) {
              ++item;
              if (!shard.contains(item)) continue;
              GridCell c;
              c.m = m;
              c.metric = metric;
              c.attack = cls;
              c.x = x;
              c.d = d;
              record(w, prefix, item, c, [&](Table& row) {
                row.add(m);
                if (many_metrics) row.add(metric_name(metric));
                if (many_attacks) row.add(attack_class_name(cls));
                row.add(x, 2).add(d, 0);
              });
            }
          }
        }
      }
    }
  }
  return w;
}

bool is_grid_kind(ExperimentKind kind) {
  return kind == ExperimentKind::kRoc || kind == ExperimentKind::kDrSweep ||
         kind == ExperimentKind::kDensitySweep;
}

/// dr-sweep variants of a generated spec: both mismatch couplings, with
/// the generated mismatch lists and with both lists swept (the two-pass
/// axes case), under the generated group modes and under both modes.
std::vector<ScenarioSpec> dr_variants(const ScenarioSpec& spec) {
  std::vector<ScenarioSpec> out;
  for (MismatchCoupling coupling :
       {MismatchCoupling::kAxes, MismatchCoupling::kProduct}) {
    for (bool swept_mismatch : {false, true}) {
      for (bool both_modes : {false, true}) {
        ScenarioSpec v = spec;
        v.mismatch_coupling = coupling;
        if (swept_mismatch) {
          v.actual_sigmas = {20.0, 35.5, 60.0};
          v.jitters = {1.0, 2.5};
        }
        if (both_modes) {
          v.group_threshold_modes = {GroupThresholdMode::kPerGroup,
                                     GroupThresholdMode::kGlobal};
        }
        out.push_back(std::move(v));
      }
    }
  }
  return out;
}

// For fuzzer-generated specs of every grid kind, at shard 0/1 and at each
// i/3, the axis walk yields the same (item -> axis values) sequence, dim
// columns and row-prefix cells as the loop nests it replaced.
TEST(KindTable, GridAxisWalkMatchesTheLoopNests) {
  std::set<ExperimentKind> kinds_seen;
  int dr_specs = 0;
  for (std::uint64_t stream = 0; stream < 240; ++stream) {
    Rng rng = Rng::stream(31337, stream);
    const std::string text = generate_valid_scn(rng);
    const ScenarioSpec spec = parse(text);
    if (!is_grid_kind(spec.kind)) continue;
    kinds_seen.insert(spec.kind);
    std::vector<ScenarioSpec> variants = {spec};
    if (spec.kind == ExperimentKind::kDrSweep) {
      ++dr_specs;
      variants = dr_variants(spec);
    }
    for (const ScenarioSpec& v : variants) {
      SCOPED_TRACE("stream " + std::to_string(stream) + ":\n" + text);
      const long long total =
          static_cast<long long>(reference_walk(v, {0, 1}).items.size());
      EXPECT_EQ(kind_spec(v.kind).num_items(v), total);
      for (const ShardRange shard : {ShardRange{0, 1}, ShardRange{0, 3},
                                     ShardRange{1, 3}, ShardRange{2, 3}}) {
        const Walk want = reference_walk(v, shard);
        const Walk got = axis_walk(v, shard);
        EXPECT_EQ(got.dims, want.dims);
        EXPECT_EQ(got.items, want.items) << "shard " << shard.index;
        EXPECT_EQ(got.cells, want.cells) << "shard " << shard.index;
        EXPECT_EQ(got.prefixes, want.prefixes) << "shard " << shard.index;
      }
    }
  }
  EXPECT_EQ(kinds_seen.size(), 3u);
  EXPECT_GE(dr_specs, 5);
}

// A grid kind accepts exactly the [sweep] lists its axes expand.
TEST(KindTable, GridKindsAcceptTheirAxesLists) {
  const KindSpec& roc = kind_spec(ExperimentKind::kRoc);
  const KindSpec& dr = kind_spec(ExperimentKind::kDrSweep);
  const KindSpec& density = kind_spec(ExperimentKind::kDensitySweep);
  for (KindAccepts bit : {kMultiMetrics, kMultiAttacks, kMultiDamages,
                          kMultiCompromised}) {
    EXPECT_TRUE(roc.accepts(bit) && dr.accepts(bit) && density.accepts(bit))
        << "bit " << bit;
  }
  for (KindAccepts bit : {kMultiShapes, kMultiLocalizers, kMultiActualSigmas,
                          kMultiJitters, kKeyGroupThresholds}) {
    EXPECT_TRUE(dr.accepts(bit)) << "bit " << bit;
    EXPECT_FALSE(roc.accepts(bit) || density.accepts(bit)) << "bit " << bit;
  }
  EXPECT_TRUE(density.accepts(kKeyDensities));
  EXPECT_FALSE(roc.accepts(kKeyDensities) || dr.accepts(kKeyDensities));
  EXPECT_FALSE(roc.accepts(kKeyBundle) || dr.accepts(kKeyBundle) ||
               density.accepts(kKeyBundle));
}

}  // namespace
}  // namespace lad
