// ScenarioSpec parsing/validation, overrides, shard syntax, the localizer
// registry, and tagged-CSV persistence.  Everything kind-specific (own
// section, sweepable axes, kind-only keys) comes from the kind table; its
// rows, the work-item expansion and execution live in scenario_runner.cpp.
#include "sim/scenario.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/deployment_model.h"
#include "loc/amorphous.h"
#include "loc/dvhop.h"
#include "loc/truth_noise.h"
#include "loc/weighted_centroid.h"
#include "sim/kind_table.h"
#include "sim/pipeline.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/kvconfig.h"
#include "util/string_util.h"

namespace lad {

namespace {

constexpr std::uint64_t kDefaultScenarioSeed = 20050404;  // IPDPS 2005 opened

const std::vector<std::string>& common_sections() {
  static const std::vector<std::string> sections = {
      "scenario", "pipeline", "quick", "sweep", "detector", "run", "output"};
  return sections;
}

/// The name of the (first) kind whose row accepts the kind-only key `bit`.
const char* kind_accepting(KindAccepts bit) {
  for (const KindSpec& row : kind_table()) {
    if (row.accepts(bit)) return row.name;
  }
  return "?";
}

/// A repeated value would expand to a second identical work item: throws,
/// naming the list and the value as its dim column prints it.
void require_distinct(const SweepList& list, const ScenarioSpec& spec) {
  std::vector<GridCell> cells(list.size(spec));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    list.set(spec, i, cells[i]);
    for (std::size_t j = 0; j < i; ++j) {
      if (cells[j] != cells[i]) continue;
      Table shown({list.column});
      list.print(cells[i], shown.new_row());
      LAD_REQUIRE_MSG(false, "[sweep] " << list.key << " repeats "
                                        << shown.cell(0, 0));
    }
  }
}

}  // namespace

namespace detail {

int get_positive_int(const KvConfig::Section& s, const std::string& key,
                     long long def) {
  const long long v = s.get_int(key, def);
  LAD_REQUIRE_MSG(v > 0, "[" << s.name() << "] " << key
                             << " must be positive, got " << v);
  return static_cast<int>(v);
}

void require_non_empty(std::size_t size, const char* what) {
  LAD_REQUIRE_MSG(size > 0, "sweep list '" << what << "' is empty");
}

std::string known_localizer(const std::string& name) {
  bool known = name == "beaconless-mle" || name == "weighted-centroid" ||
               name == "dv-hop" || name == "amorphous" ||
               name == "truth-noise";
  if (!known && starts_with(name, "truth-noise:")) {
    try {
      known = parse_double(name.substr(std::string("truth-noise:").size())) >=
              0.0;
    } catch (const AssertionError&) {
      known = false;  // not a number
    }
  }
  LAD_REQUIRE_MSG(known,
                  "unknown localizer '" << name
                                        << "' (known: beaconless-mle, "
                                           "weighted-centroid, dv-hop, "
                                           "amorphous, truth-noise:<sigma>)");
  return name;
}

}  // namespace detail

using detail::get_positive_int;
using detail::require_non_empty;

const char* detail::group_threshold_mode_name(GroupThresholdMode mode) {
  switch (mode) {
    case GroupThresholdMode::kGlobal: return "global";
    case GroupThresholdMode::kPerGroup: return "per_group";
  }
  return "?";
}

LocalizerFactory localizer_factory_from_name(const std::string& name,
                                             const Pipeline& pipeline) {
  detail::known_localizer(name);
  if (name == "beaconless-mle") {
    return beaconless_mle_factory(pipeline.model(), pipeline.gz());
  }
  if (name == "weighted-centroid") {
    const DeploymentModel& model = pipeline.model();
    return [&model](std::uint64_t) {
      return std::make_unique<WeightedCentroidLocalizer>(model);
    };
  }
  if (name == "dv-hop") {
    return [](std::uint64_t) { return std::make_unique<DvHopLocalizer>(4, 4); };
  }
  if (name == "amorphous") {
    return [](std::uint64_t) {
      return std::make_unique<AmorphousLocalizer>(4, 4);
    };
  }
  double sigma = 10.0;
  if (starts_with(name, "truth-noise:")) {
    sigma = parse_double(name.substr(std::string("truth-noise:").size()));
  }
  return [sigma](std::uint64_t seed) {
    return std::make_unique<TruthNoiseLocalizer>(sigma, seed);
  };
}

ScenarioSpec ScenarioSpec::from_config(const KvConfig& config) {
  ScenarioSpec spec;
  const KvConfig::Section& sc = config.section("scenario");
  spec.name = sc.get_string("name", "");
  LAD_REQUIRE_MSG(!spec.name.empty(),
                  config.origin() << ": [scenario] name is required");
  spec.title = sc.get_string("title", spec.name);
  spec.note = sc.get_string("note", "");
  const std::string kind_name = sc.get_string("experiment", "");
  LAD_REQUIRE_MSG(!kind_name.empty(),
                  config.origin() << ": [scenario] experiment is required");
  const KindSpec& kind = find_kind(kind_name);
  spec.kind = kind.kind;

  // Section allowlist is kind-aware: a [gz] section in a dr-sweep spec is
  // dead configuration and almost certainly a mistake.
  for (const KvConfig::Section& s : config.sections()) {
    const auto& common = common_sections();
    if (std::find(common.begin(), common.end(), s.name()) != common.end() ||
        s.name() == kind.section) {
      continue;
    }
    for (const KindSpec& other : kind_table()) {
      LAD_REQUIRE_MSG(s.name() != other.section,
                      config.origin()
                          << ": section [" << s.name()
                          << "] is only valid for experiment = " << other.name
                          << " (this is " << kind.name << ")");
    }
    LAD_REQUIRE_MSG(false, config.origin() << ": unknown section ["
                                           << s.name() << "]");
  }

  spec.pipeline.seed = kDefaultScenarioSeed;
  if (const KvConfig::Section* p = config.find_section("pipeline")) {
    spec.pipeline.seed = static_cast<std::uint64_t>(
        p->get_int("seed", static_cast<long long>(kDefaultScenarioSeed)));
    spec.pipeline.networks = get_positive_int(*p, "networks", 10);
    spec.pipeline.victims_per_network = get_positive_int(*p, "victims", 200);
    spec.pipeline.deploy.nodes_per_group = get_positive_int(*p, "m", 300);
    spec.pipeline.deploy.radio_range = p->get_double("r", 50.0);
    spec.pipeline.deploy.sigma = p->get_double("sigma", 50.0);
    spec.pipeline.deploy.field_side = p->get_double("field", 1000.0);
    spec.pipeline.deploy.grid_nx = get_positive_int(*p, "grid_nx", 10);
    spec.pipeline.deploy.grid_ny = get_positive_int(*p, "grid_ny", 10);
    spec.pipeline.gz_omega = get_positive_int(*p, "gz_omega", 256);
    // GzTable's floor: fewer samples give a useless g(z) table.
    LAD_REQUIRE_MSG(spec.pipeline.gz_omega >= 8,
                    "[pipeline] gz_omega must be >= 8, got "
                        << spec.pipeline.gz_omega);
    spec.pipeline.shape =
        deployment_shape_from_name(p->get_string("shape", "grid"));
    spec.pipeline.victims_in_field_only =
        p->get_bool("in_field_victims", true);
    spec.pipeline.deploy.validate();
  }

  if (const KvConfig::Section* q = config.find_section("quick")) {
    if (q->has("networks")) spec.quick.networks = get_positive_int(*q, "networks", 3);
    if (q->has("victims")) spec.quick.victims = get_positive_int(*q, "victims", 60);
    if (q->has("m")) spec.quick.m = get_positive_int(*q, "m", 60);
    if (q->has("trials")) spec.quick.trials = get_positive_int(*q, "trials", 60);
    if (q->has("dvhop_trials")) {
      spec.quick.dvhop_trials = get_positive_int(*q, "dvhop_trials", 30);
    }
    // Dead configuration anywhere but its kind (fail-fast contract).
    LAD_REQUIRE_MSG(!q->has("densities") || kind.accepts(kKeyDensities),
                    "[quick] densities is only consumed by "
                        << kind_accepting(kKeyDensities) << " (this is "
                        << kind.name << ")");
    for (long long m : q->get_int_list("densities", {})) {
      sweep_list("densities").require_in_range(static_cast<double>(m),
                                               "quick");
      const int density = static_cast<int>(m);
      std::vector<int>& densities = spec.quick.densities;
      LAD_REQUIRE_MSG(std::find(densities.begin(), densities.end(),
                                density) == densities.end(),
                      "[quick] densities repeats " << density);
      densities.push_back(density);
    }
  }

  spec.shapes = {spec.pipeline.shape};
  spec.localizers = {"beaconless-mle"};
  spec.metrics = {MetricKind::kDiff};
  spec.attacks = {AttackClass::kDecBounded};
  spec.damages = {120.0};
  spec.compromised = {0.10};
  spec.actual_sigmas = {0.0};
  spec.jitters = {0.0};
  if (const KvConfig::Section* s = config.find_section("sweep")) {
    for (const SweepList& list : sweep_lists()) {
      if (!s->has(list.key)) continue;
      // A kind-only list elsewhere is dead configuration (fail-fast).
      LAD_REQUIRE_MSG(!list.kind_only() || kind.accepts(list.bit),
                      "[sweep] " << list.key << " is only swept by "
                                 << kind_accepting(list.bit) << " (this is "
                                 << kind.name << ")");
      list.read(list, *s, spec);
      require_non_empty(list.size(spec), list.key);
      require_distinct(list, spec);
    }
    LAD_REQUIRE_MSG(!s->has("mismatch_coupling") ||
                        kind.accepts(kMultiActualSigmas),
                    "[sweep] mismatch_coupling is only consumed by "
                        << kind_accepting(kMultiActualSigmas) << " (this is "
                        << kind.name << ")");
    const std::string coupling = s->get_string("mismatch_coupling", "axes");
    LAD_REQUIRE_MSG(coupling == "axes" || coupling == "product",
                    "[sweep] mismatch_coupling must be 'axes' or 'product', "
                    "got '" << coupling << "'");
    spec.mismatch_coupling = coupling == "axes" ? MismatchCoupling::kAxes
                                                : MismatchCoupling::kProduct;
  }
  for (const SweepList& list : sweep_lists()) {
    const std::size_t n = list.size(spec);
    const bool swept = kind.accepts(list.bit);
    LAD_REQUIRE_MSG(n > 0 || !swept, kind.name << " needs a non-empty [sweep] "
                                               << list.key << " list");
    // More values on a list the kind does not sweep: the runner would
    // silently use only the first, which breaks the fail-fast contract.
    LAD_REQUIRE_MSG(swept || n <= 1,
                    "experiment '" << kind.name << "' does not sweep [sweep] "
                                   << list.key << " (got " << n
                                   << " values; only the first would run)");
  }

  if (const KvConfig::Section* d = config.find_section("detector")) {
    spec.fp_budget = d->get_double("fp_budget", spec.fp_budget);
    spec.tau = d->get_double("tau", spec.tau);
    if (d->has("group_min_samples")) {
      LAD_REQUIRE_MSG(kind.accepts(kKeyGroupThresholds),
                      "[detector] group_min_samples is only consumed by "
                          << kind_accepting(kKeyGroupThresholds)
                          << " (this is " << kind.name << ")");
      spec.group_min_samples = get_positive_int(*d, "group_min_samples",
                                                spec.group_min_samples);
    }
    spec.bundle = d->get_string("bundle", "");
    // Anywhere but its kind a saved bundle would be dead configuration
    // (fail-fast contract).
    LAD_REQUIRE_MSG(spec.bundle.empty() || kind.accepts(kKeyBundle),
                    "[detector] bundle is only consumed by "
                        << kind_accepting(kKeyBundle) << " (this is "
                        << kind.name << ")");
  }
  LAD_REQUIRE_MSG(spec.fp_budget > 0 && spec.fp_budget < 1,
                  "[detector] fp_budget must be in (0,1)");
  LAD_REQUIRE_MSG(spec.tau > 0 && spec.tau < 1,
                  "[detector] tau must be in (0,1)");

  if (const KvConfig::Section* r = config.find_section("run")) {
    spec.jobs = get_positive_int(*r, "jobs", 1);
  }

  if (const KvConfig::Section* o = config.find_section("output")) {
    spec.fp_grid = o->get_double_list("fp_grid", spec.fp_grid);
    require_non_empty(spec.fp_grid.size(), "fp_grid");
    const long long pts = o->get_int("curve_points", spec.curve_points);
    LAD_REQUIRE_MSG(pts >= 0, "[output] curve_points must be >= 0");
    spec.curve_points = static_cast<int>(pts);
    spec.loc_error = o->get_bool("loc_error", spec.loc_error);
  }

  if (*kind.section != '\0') {
    if (const KvConfig::Section* own = config.find_section(kind.section)) {
      kind.parse_section(*own, spec);
    }
  }

  const std::vector<std::string> unknown = config.unused();
  LAD_REQUIRE_MSG(unknown.empty(), config.origin() << ": unknown key(s): "
                                                   << join(unknown, ", "));
  return spec;
}

ScenarioSpec ScenarioSpec::load(const std::string& path) {
  return from_config(KvConfig::parse_file(path));
}

ScenarioSpec apply_overrides(ScenarioSpec spec, const ScenarioOverrides& o) {
  if (o.quick) {
    // Explicit [quick] values win; the fallback only ever shrinks the run
    // (a spec already smaller than the 3x60 default stays as it is).
    spec.pipeline.networks =
        spec.quick.networks.value_or(std::min(spec.pipeline.networks, 3));
    spec.pipeline.victims_per_network = spec.quick.victims.value_or(
        std::min(spec.pipeline.victims_per_network, 60));
    if (spec.quick.m) spec.pipeline.deploy.nodes_per_group = *spec.quick.m;
    if (spec.quick.trials) spec.trials = *spec.quick.trials;
    if (spec.quick.dvhop_trials) spec.dvhop_trials = *spec.quick.dvhop_trials;
    if (!spec.quick.densities.empty()) spec.densities = spec.quick.densities;
  }
  if (o.seed) spec.pipeline.seed = *o.seed;
  if (o.m) spec.pipeline.deploy.nodes_per_group = *o.m;
  if (o.networks) spec.pipeline.networks = *o.networks;
  if (o.victims) spec.pipeline.victims_per_network = *o.victims;
  if (o.threads) spec.pipeline.threads = *o.threads;
  if (o.jobs) spec.jobs = *o.jobs;
  if (o.r) spec.pipeline.deploy.radio_range = *o.r;
  if (o.sigma) spec.pipeline.deploy.sigma = *o.sigma;
  spec.pipeline.deploy.validate();
  return spec;
}

ScenarioOverrides overrides_from_flags(const Flags& flags) {
  ScenarioOverrides o;
  o.quick = flags.get_bool("quick", false);
  if (flags.has("seed")) {
    o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
  }
  if (flags.has("m")) o.m = static_cast<int>(flags.get_int("m", 0));
  if (flags.has("networks")) {
    o.networks = static_cast<int>(flags.get_int("networks", 0));
  }
  if (flags.has("victims")) {
    o.victims = static_cast<int>(flags.get_int("victims", 0));
  }
  if (flags.has("threads")) {
    o.threads = static_cast<int>(flags.get_int("threads", 0));
  }
  if (flags.has("jobs")) {
    const long long jobs = flags.get_int("jobs", 1);
    // Rejected by name (never silently sequential or all-cores): a caller
    // computing jobs from a subtraction must see its bug immediately.
    LAD_REQUIRE_MSG(jobs >= 1,
                    "--jobs must be >= 1 (1 = sequential), got " << jobs);
    o.jobs = static_cast<int>(jobs);
  }
  if (flags.has("r")) o.r = flags.get_double("r", 0.0);
  if (flags.has("sigma")) o.sigma = flags.get_double("sigma", 0.0);
  return o;
}

ShardRange parse_shard(const std::string& text) {
  const auto parts = split(text, '/');
  LAD_REQUIRE_MSG(parts.size() == 2,
                  "bad shard '" << text << "': expected i/n (e.g. 0/4)");
  long long index = 0, count = 0;
  try {
    index = parse_int(trim(parts[0]));
    count = parse_int(trim(parts[1]));
  } catch (const AssertionError&) {
    LAD_REQUIRE_MSG(false,
                    "bad shard '" << text << "': expected i/n (e.g. 0/4)");
  }
  LAD_REQUIRE_MSG(count >= 1,
                  "bad shard '" << text << "': shard count must be >= 1");
  LAD_REQUIRE_MSG(index >= 0 && index < count,
                  "bad shard '" << text
                                << "': shard index must be in [0, count)");
  return ShardRange{static_cast<int>(index), static_cast<int>(count)};
}

std::vector<std::string> write_result_csvs(const ScenarioResult& result,
                                           const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  LAD_REQUIRE_MSG(!ec, "cannot create output directory '" << dir << "': "
                                                          << ec.message());
  std::vector<std::string> paths;
  for (const ResultTable& t : result.tables) {
    LAD_REQUIRE_MSG(t.row_items.size() == t.table.num_rows(),
                    "table '" << t.id << "': item tags out of sync");
    const fs::path path =
        fs::path(dir) / (result.scenario + "." + t.id + ".csv");
    // Write-then-rename so a killed run never leaves a truncated CSV
    // behind - `run --resume` treats a present file as complete.
    const fs::path tmp_path = path.string() + ".tmp";
    {
      std::ofstream os(tmp_path);
      LAD_REQUIRE_MSG(static_cast<bool>(os),
                      "cannot open '" << tmp_path.string()
                                      << "' for writing");
      os << "item";
      for (const std::string& col : t.table.columns()) {
        os << ',' << csv_escape(col);
      }
      os << '\n';
      for (std::size_t r = 0; r < t.table.num_rows(); ++r) {
        os << t.row_items[r];
        for (std::size_t c = 0; c < t.table.num_cols(); ++c) {
          os << ',' << csv_escape(t.table.cell(r, c));
        }
        os << '\n';
      }
      // Flush before checking: a tail-of-file write failure otherwise
      // hides in the stream buffer until the destructor, and the rename
      // below would install a truncated CSV that --resume trusts.
      os.flush();
      LAD_REQUIRE_MSG(static_cast<bool>(os),
                      "failed writing '" << tmp_path.string() << "'");
    }
    fs::rename(tmp_path, path, ec);
    LAD_REQUIRE_MSG(!ec, "cannot rename '" << tmp_path.string() << "' to '"
                                           << path.string()
                                           << "': " << ec.message());
    paths.push_back(path.string());
  }
  return paths;
}

void merge_result_csvs(const std::vector<std::string>& shard_dirs,
                       const std::string& out_dir, bool require_complete) {
  namespace fs = std::filesystem;
  LAD_REQUIRE_MSG(!shard_dirs.empty(), "merge: need at least one shard dir");

  const auto list_csvs = [](const std::string& dir) {
    std::vector<std::string> out;
    std::error_code list_ec;
    for (const auto& entry : fs::directory_iterator(dir, list_ec)) {
      if (entry.path().extension() == ".csv") {
        out.push_back(entry.path().filename().string());
      }
    }
    LAD_REQUIRE_MSG(!list_ec,
                    "merge: cannot list '" << dir << "': " << list_ec.message());
    std::sort(out.begin(), out.end());
    return out;
  };

  const std::vector<std::string> names = list_csvs(shard_dirs.front());
  LAD_REQUIRE_MSG(!names.empty(),
                  "merge: no .csv files in '" << shard_dirs.front() << "'");
  // Every shard of the same run writes the same table files (headers are
  // emitted even for empty shards), so a differing set means the dirs are
  // not shards of one run.
  for (std::size_t i = 1; i < shard_dirs.size(); ++i) {
    LAD_REQUIRE_MSG(list_csvs(shard_dirs[i]) == names,
                    "merge: '" << shard_dirs[i]
                               << "' holds a different table-file set than '"
                               << shard_dirs.front() << "'");
  }

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  LAD_REQUIRE_MSG(!ec, "merge: cannot create '" << out_dir << "': "
                                                << ec.message());

  // Union of item tags across every table, for the completeness check:
  // a full shard set covers a contiguous 0..max range.
  std::set<long long> merged_items;

  for (const std::string& name : names) {
    std::string header;
    std::vector<std::pair<long long, std::string>> rows;
    // Work items are partitioned across shards, so the same item tag in
    // two shard dirs means overlapping shards (e.g. the same dir passed
    // twice, or dirs from runs with different --shard counts) - merging
    // them would silently duplicate rows.
    std::map<long long, const std::string*> item_origin;
    for (const std::string& dir : shard_dirs) {
      const fs::path path = fs::path(dir) / name;
      std::ifstream is(path);
      LAD_REQUIRE_MSG(static_cast<bool>(is),
                      "merge: shard file missing: " << path.string());
      std::string line;
      LAD_REQUIRE_MSG(static_cast<bool>(std::getline(is, line)),
                      "merge: empty shard file: " << path.string());
      if (header.empty()) {
        header = line;
      } else {
        LAD_REQUIRE_MSG(line == header, "merge: header mismatch in "
                                            << path.string());
      }
      while (std::getline(is, line)) {
        if (line.empty()) continue;
        const std::size_t comma = line.find(',');
        LAD_REQUIRE_MSG(comma != std::string::npos,
                        "merge: malformed row in " << path.string() << ": "
                                                   << line);
        const long long item = parse_int(line.substr(0, comma));
        const auto [it, inserted] = item_origin.emplace(item, &dir);
        LAD_REQUIRE_MSG(inserted || it->second == &dir,
                        "merge: overlapping shards: item " << item << " of "
                            << name << " appears in both '" << *it->second
                            << "' and '" << dir << "'");
        merged_items.insert(item);
        rows.emplace_back(item, line);
      }
    }
    // Items are partitioned across shards and each shard emits its items
    // in ascending order, so a stable sort by item tag reproduces the
    // unsharded row order exactly.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const fs::path out_path = fs::path(out_dir) / name;
    std::ofstream os(out_path);
    LAD_REQUIRE_MSG(static_cast<bool>(os),
                    "merge: cannot open '" << out_path.string()
                                           << "' for writing");
    os << header << '\n';
    for (const auto& [item, line] : rows) os << line << '\n';
  }

  if (require_complete && !merged_items.empty()) {
    std::vector<long long> missing;
    for (long long i = 0; i <= *merged_items.rbegin(); ++i) {
      if (!merged_items.count(i) && missing.size() < 8) missing.push_back(i);
    }
    if (!missing.empty()) {
      std::ostringstream os;
      for (std::size_t i = 0; i < missing.size(); ++i) {
        os << (i ? ", " : "") << missing[i];
      }
      LAD_REQUIRE_MSG(false, "merge: incomplete shard set: no rows for "
                             "item(s) " << os.str()
                                 << " - a shard dir is missing or its run "
                                    "died (pass every shard, or merge "
                                    "partial sets with require_complete "
                                    "off / --partial)");
    }
  }
}

}  // namespace lad
