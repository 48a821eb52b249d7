// The experiment-kind table: every ExperimentKind is described exactly
// once, as one KindSpec row (defined next to the run functions in
// scenario_runner.cpp).  The spec parser, the runner and the .scn fuzzer
// all read their per-kind knowledge from that row, so none of them keeps
// a copy that could drift.
//
// A grid kind (roc, dr-sweep, density-sweep) is an axis list plus a body:
// its row lists the sweep axes, outermost first, and everything else - the
// item count, the dim columns every row starts with, the accepted [sweep]
// lists and the item -> cell decode - derives from that list.  One shard
// walk (KindSpec::for_each_cell) hands each decoded GridCell to the kind's
// body, which emits the row's measured tail.
//
// A single-network kind (correction, echo-comparison, time-evolving,
// in-network) runs trials on one deployed network.  Its rows share one
// item count, trial_cells: a summary item, then one item per (attack, D)
// cell, D fastest.  One shard walk (ScenarioRunState::run_cells) hands
// each item its own rng stream, keyed by item id.  A bespoke kind keeps
// its own item count and run function.
//
// Adding a kind = one ExperimentKind enumerator, one KindSpec row (a grid
// kind's axes, trial_cells, or a bespoke kind's item count), one run
// function (a grid kind's body), and its quick-mode golden CSVs.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/deployment_model.h"
#include "sim/scenario.h"
#include "util/csv.h"
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

/// One work item of a grid kind: the value each of the kind's sweep axes
/// sets.  Fields of axes the kind does not sweep keep these defaults; its
/// body reads those settings from the spec.
struct GridCell {
  GroupThresholdMode mode = GroupThresholdMode::kGlobal;
  double actual_sigma = 0.0;
  double jitter = 0.0;
  DeploymentShape shape = DeploymentShape::kGrid;
  std::string localizer;
  int m = 0;
  MetricKind metric = MetricKind::kDiff;
  AttackClass attack = AttackClass::kDecBounded;
  double x = 0.0;
  double d = 0.0;
};

namespace detail {

/// One sweep axis of a grid kind.  Only the kind table's rows build these.
struct GridAxis {
  /// A dim column the axis writes at the head of every row.
  struct Column {
    const char* name;
    /// Length of the [sweep] list that gates the column: it appears only
    /// while that list holds more than one value.  nullptr = always.
    std::size_t (*gate)(const ScenarioSpec& spec);
    void (*print)(const GridCell& cell, Table& row);

    bool shown(const ScenarioSpec& spec) const {
      return gate == nullptr || gate(spec) > 1;
    }
  };

  unsigned bits;  ///< KindAccepts bits of the [sweep] lists it expands
  std::size_t (*size)(const ScenarioSpec& spec);
  /// Sets the cell's field(s) from the axis's value `i`.
  void (*set)(const ScenarioSpec& spec, std::size_t i, GridCell& cell);
  std::vector<Column> columns;
};

}  // namespace detail

struct KindSpec {
  ExperimentKind kind;
  const char* name;     ///< the `[scenario] experiment =` value
  const char* section;  ///< the kind's own section, "" = none
  unsigned accepted;    ///< KindAccepts bits beyond those of `axes`
  /// Reads the own section into `spec` (nullptr when there is none).
  void (*parse_section)(const KvConfig::Section& section, ScenarioSpec& spec);
  std::vector<SectionKey> section_keys;
  /// A grid kind's sweep, outermost axis first (item ids count in this
  /// order, the last axis fastest); empty for a bespoke kind.
  std::vector<detail::GridAxis> axes;
  /// A single-network or bespoke kind's work items in the full
  /// (unsharded) expansion; nullptr for a grid kind, whose count is the
  /// product of its axes.
  long long (*items)(const ScenarioSpec& spec);
  /// Result-table ids in emission order.
  std::vector<std::string> (*table_ids)(const ScenarioSpec& spec);
  ScenarioResult (ScenarioRunState::*run)(const ShardRange& shard);

  bool accepts(KindAccepts bit) const;
  /// Work items in the full (unsharded) expansion.
  long long num_items(const ScenarioSpec& spec) const;

  // --- grid kinds ---------------------------------------------------------
  /// The dim columns every result table of a grid kind starts with.
  std::vector<std::string> dim_columns(const ScenarioSpec& spec) const;
  /// Appends the cell's dim values (the row prefix) to `row`.
  void add_dims(const ScenarioSpec& spec, const GridCell& cell,
                Table& row) const;
  /// The shard walk: calls `body(item, cell)` for every item `shard`
  /// owns, in item order, with the cell its id decodes to.
  void for_each_cell(
      const ScenarioSpec& spec, const ShardRange& shard,
      const std::function<void(long long item, const GridCell& cell)>& body)
      const;
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
