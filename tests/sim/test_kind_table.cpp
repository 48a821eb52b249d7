// Invariants of the experiment-kind table (sim/kind_table.h): every row's
// name, own section and section-key domains must agree with what the
// parser accepts, and the fuzzer's generator must reach every row.
#include "sim/kind_table.h"

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "rng/rng.h"
#include "sim/scenario.h"
#include "sim/scenario_fuzz.h"
#include "util/assert.h"
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

}  // namespace
}  // namespace lad
