// The experiment-kind table: every ExperimentKind is described exactly
// once, as one KindSpec row (defined next to the run functions in
// scenario_runner.cpp).  The spec parser, the runner and the .scn fuzzer
// all read their per-kind knowledge from that row, so none of them keeps
// a copy that could drift.
//
// Adding a kind = one ExperimentKind enumerator, one KindSpec row, one
// run function, and its quick-mode golden CSVs.
#pragma once

#include <string>
#include <vector>

#include "sim/scenario.h"
#include "util/kvconfig.h"

namespace lad {

/// Bits of KindSpec::accepted: the [sweep] axes a kind expands (and so may
/// carry more than one value), then the kind-only keys it consumes.
enum KindAccepts : unsigned {
  kMultiShapes = 1u << 0,
  kMultiLocalizers = 1u << 1,
  kMultiActualSigmas = 1u << 2,
  kMultiJitters = 1u << 3,
  kMultiMetrics = 1u << 4,
  kMultiAttacks = 1u << 5,
  kMultiDamages = 1u << 6,
  kMultiCompromised = 1u << 7,
  kKeyDensities = 1u << 8,  ///< [sweep] densities (then required)
  /// [sweep] group_thresholds and [detector] group_min_samples
  kKeyGroupThresholds = 1u << 9,
  kKeyBundle = 1u << 10,  ///< [detector] bundle
};

/// One key of a kind's own section with the range of valid values the
/// fuzzer draws from.
struct SectionKey {
  const char* key;
  double lo;
  double hi;
  int decimals;    ///< 0 = integer values
  int max_values;  ///< > 1: a list of 1..max_values values
  double chance;   ///< how often a generated spec sets the key
};

struct KindSpec {
  ExperimentKind kind;
  const char* name;     ///< the `[scenario] experiment =` value
  const char* section;  ///< the kind's own section, "" = none
  unsigned accepted;    ///< KindAccepts bits
  /// Reads the own section into `spec` (nullptr when there is none).
  void (*parse_section)(const KvConfig::Section& section, ScenarioSpec& spec);
  std::vector<SectionKey> section_keys;
  /// Work items in the full (unsharded) expansion.
  long long (*items)(const ScenarioSpec& spec);
  /// Result-table ids in emission order.
  std::vector<std::string> (*table_ids)(const ScenarioSpec& spec);
  ScenarioResult (ScenarioRunState::*run)(const ShardRange& shard);

  bool accepts(KindAccepts bit) const { return (accepted & bit) != 0; }
};

/// Every row, in ExperimentKind order.
const std::vector<KindSpec>& kind_table();
const KindSpec& kind_spec(ExperimentKind kind);
/// The row whose name is `name` (case-insensitive); throws
/// AssertionError "unknown experiment kind" otherwise.
const KindSpec& find_kind(const std::string& name);

namespace detail {

/// Spec-parsing helpers shared by the common sections (scenario.cpp) and
/// the kind sections (scenario_runner.cpp).
int get_positive_int(const KvConfig::Section& s, const std::string& key,
                     long long def);
void require_non_empty(const std::vector<double>& v, const char* what);

}  // namespace detail

}  // namespace lad
