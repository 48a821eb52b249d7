#include "sim/scenario_fuzz.h"

#include <algorithm>
#include <sstream>

#include "rng/rng.h"
#include "sim/kind_table.h"
#include "sim/scenario.h"
#include "util/assert.h"
#include "util/kvconfig.h"
#include "util/string_util.h"

namespace lad {

namespace {

// ---------------------------------------------------------------------
// Small drawing helpers over Rng (all deterministic per rng state).

int draw_int(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(static_cast<long long>(lo),
                                          static_cast<long long>(hi)));
}

bool chance(Rng& rng, double p) { return rng.uniform01() < p; }

template <class T>
const T& pick(Rng& rng, const std::vector<T>& options) {
  return options[static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::uint64_t>(options.size())))];
}

std::string fmt(double v, int decimals) {
  return format_double(v, decimals);
}

// A comma list of `n` doubles drawn from [lo, hi], strictly increasing so
// it can also render as a lo:hi:step range.
std::string double_values(Rng& rng, int n, double lo, double hi,
                          int decimals) {
  // Range syntax with a positive step; bounded expansion by construction.
  if (n > 1 && chance(rng, 0.35)) {
    const double start = rng.uniform(lo, (lo + hi) / 2);
    const double step = rng.uniform((hi - start) / (4 * n), (hi - start) / n);
    const double stop = start + (n - 1) * step;
    return fmt(start, decimals) + ":" + fmt(stop, decimals) + ":" +
           fmt(step, decimals);
  }
  std::vector<std::string> out;
  double v = lo;
  for (int i = 0; i < n; ++i) {
    v += rng.uniform(0.0, (hi - lo) / n);
    out.push_back(fmt(std::min(v, hi), decimals));
  }
  return join(out, ", ");
}

std::string int_values(Rng& rng, int n, int lo, int hi) {
  if (n > 1 && chance(rng, 0.35)) {
    const int start = draw_int(rng, lo, (lo + hi) / 2);
    const int step = std::max(1, (hi - start) / std::max(1, 2 * n));
    return std::to_string(start) + ":" +
           std::to_string(start + (n - 1) * step) + ":" +
           std::to_string(step);
  }
  std::vector<std::string> out;
  int v = lo;
  for (int i = 0; i < n; ++i) {
    v += draw_int(rng, 1, std::max(1, (hi - lo) / std::max(1, n)));
    out.push_back(std::to_string(std::min(v, hi)));
  }
  return join(out, ", ");
}

// ---------------------------------------------------------------------
// Spec writer: accumulates lines, sprinkles comments and blank lines so
// the fuzzer also exercises the lexer's trivia handling.

class ScnWriter {
 public:
  explicit ScnWriter(Rng& rng) : rng_(rng) {}

  void section(const std::string& name) {
    trivia();
    text_ += "[" + name + "]\n";
  }

  void kv(const std::string& key, const std::string& value) {
    trivia();
    // Exercise both the canonical "key = value" form and tight "key=value".
    text_ += chance(rng_, 0.85) ? key + " = " + value + "\n"
                                : key + "=" + value + "\n";
  }

  const std::string& text() const { return text_; }

 private:
  void trivia() {
    if (chance(rng_, 0.10)) text_ += "\n";
    if (chance(rng_, 0.10)) {
      text_ += std::string(chance(rng_, 0.5) ? "# " : "; ") + "fuzz trivia\n";
    }
    if (chance(rng_, 0.05)) text_ += "   \n";
  }

  Rng& rng_;
  std::string text_;
};

int axis_n(Rng& rng, bool multi) { return multi ? draw_int(rng, 1, 4) : 1; }

void emit_sweep(ScnWriter& w, Rng& rng, const KindSpec& kind) {
  w.section("sweep");
  bool any = false;
  if (chance(rng, 0.7)) {
    std::vector<std::string> ms = {"diff", "add-all", "prob"};
    const int n = std::min(axis_n(rng, kind.accepts(kMultiMetrics)), 3);
    ms.resize(static_cast<std::size_t>(n));
    w.kv("metrics", join(ms, ", "));
    any = true;
  }
  if (chance(rng, 0.7)) {
    std::vector<std::string> as = {"dec-bounded", "dec-only"};
    const int n = std::min(axis_n(rng, kind.accepts(kMultiAttacks)), 2);
    as.resize(static_cast<std::size_t>(n));
    w.kv("attacks", join(as, ", "));
    any = true;
  }
  if (chance(rng, 0.8)) {
    w.kv("damages", double_values(
                        rng, axis_n(rng, kind.accepts(kMultiDamages)), 40,
                        400, 0));
    any = true;
  }
  if (chance(rng, 0.7)) {
    w.kv("compromised",
         double_values(rng, axis_n(rng, kind.accepts(kMultiCompromised)),
                       0.05, 0.4, 2));
    any = true;
  }
  if (kind.accepts(kKeyDensities)) {
    w.kv("densities", int_values(rng, draw_int(rng, 1, 3), 50, 400));
    any = true;
  }
  if (kind.accepts(kMultiShapes) && chance(rng, 0.5)) {
    w.kv("shapes", "grid, hex");
    any = true;
  }
  if (kind.accepts(kMultiLocalizers) && chance(rng, 0.5)) {
    w.kv("localizers", "beaconless-mle, weighted-centroid");
    any = true;
  }
  if (kind.accepts(kMultiActualSigmas) && chance(rng, 0.4)) {
    w.kv("actual_sigmas",
         double_values(rng, draw_int(rng, 1, 3), 20, 80, 0));
    w.kv("mismatch_coupling", chance(rng, 0.5) ? "axes" : "product");
    any = true;
  }
  if (kind.accepts(kMultiJitters) && chance(rng, 0.4)) {
    w.kv("jitters", double_values(rng, draw_int(rng, 1, 2), 0.5, 10, 1));
    any = true;
  }
  if (kind.accepts(kKeyGroupThresholds) && chance(rng, 0.4)) {
    w.kv("group_thresholds", "global, per_group");
    any = true;
  }
  // An empty [sweep] section is legal (all axes default); keep it
  // sometimes, but usually guarantee at least one key above.
  if (!any && chance(rng, 0.5)) {
    w.kv("damages", double_values(
                        rng, axis_n(rng, kind.accepts(kMultiDamages)), 40,
                        400, 0));
  }
}

/// The kind's own section, keys drawn from the row's value domains.
void emit_kind_section(ScnWriter& w, Rng& rng, const KindSpec& kind) {
  if (*kind.section == '\0') return;
  w.section(kind.section);
  for (const SectionKey& k : kind.section_keys) {
    if (!chance(rng, k.chance)) continue;
    const int lo = static_cast<int>(k.lo);
    const int hi = static_cast<int>(k.hi);
    if (k.max_values > 1) {
      const int n = draw_int(rng, 1, k.max_values);
      w.kv(k.key, k.decimals == 0
                      ? int_values(rng, n, lo, hi)
                      : double_values(rng, n, k.lo, k.hi, k.decimals));
    } else {
      w.kv(k.key, k.decimals == 0 ? std::to_string(draw_int(rng, lo, hi))
                                  : fmt(rng.uniform(k.lo, k.hi), k.decimals));
    }
  }
}

}  // namespace

std::string generate_valid_scn(Rng& rng) {
  const KindSpec& kind = pick(rng, kind_table());
  ScnWriter w(rng);

  w.section("scenario");
  w.kv("name", "fuzz_" + std::to_string(draw_int(rng, 0, 9999)));
  w.kv("experiment", kind.name);
  if (chance(rng, 0.4)) w.kv("title", "fuzzed spec");
  if (chance(rng, 0.3)) w.kv("note", "generated by scenario_fuzz");

  if (chance(rng, 0.8)) {
    w.section("pipeline");
    if (chance(rng, 0.7)) {
      w.kv("seed", std::to_string(draw_int(rng, 1, 100000)));
    }
    if (chance(rng, 0.6)) w.kv("networks", std::to_string(draw_int(rng, 1, 8)));
    if (chance(rng, 0.6)) {
      w.kv("victims", std::to_string(draw_int(rng, 1, 200)));
    }
    if (chance(rng, 0.7)) w.kv("m", std::to_string(draw_int(rng, 10, 300)));
    if (chance(rng, 0.6)) w.kv("r", fmt(rng.uniform(20, 90), 0));
    if (chance(rng, 0.6)) w.kv("sigma", fmt(rng.uniform(10, 80), 0));
    if (chance(rng, 0.5)) w.kv("field", fmt(rng.uniform(400, 1200), 0));
    if (chance(rng, 0.5)) {
      w.kv("grid_nx", std::to_string(draw_int(rng, 2, 12)));
      w.kv("grid_ny", std::to_string(draw_int(rng, 2, 12)));
    }
    if (chance(rng, 0.3)) {
      w.kv("gz_omega", std::to_string(draw_int(rng, 8, 512)));
    }
    if (chance(rng, 0.4)) {
      w.kv("shape", pick(rng, std::vector<std::string>{
                                  "grid", "hex", "hexagonal", "random",
                                  "random-known"}));
    }
    if (chance(rng, 0.3)) {
      w.kv("in_field_victims",
           pick(rng, std::vector<std::string>{"true", "false", "yes", "no",
                                              "1", "0", "on", "off"}));
    }
  }

  if (chance(rng, 0.4)) {
    w.section("quick");
    if (chance(rng, 0.6)) w.kv("networks", std::to_string(draw_int(rng, 1, 3)));
    if (chance(rng, 0.6)) w.kv("victims", std::to_string(draw_int(rng, 1, 60)));
    if (chance(rng, 0.4)) w.kv("m", std::to_string(draw_int(rng, 10, 60)));
    if (chance(rng, 0.6)) w.kv("trials", std::to_string(draw_int(rng, 2, 60)));
    if (chance(rng, 0.3)) {
      w.kv("dvhop_trials", std::to_string(draw_int(rng, 2, 30)));
    }
    if (kind.accepts(kKeyDensities) && chance(rng, 0.5)) {
      w.kv("densities", int_values(rng, draw_int(rng, 1, 2), 50, 200));
    }
  }

  if (kind.accepts(kKeyDensities) || chance(rng, 0.8)) {
    emit_sweep(w, rng, kind);
  }

  if (chance(rng, 0.6)) {
    w.section("detector");
    if (chance(rng, 0.6)) w.kv("tau", fmt(rng.uniform(0.5, 0.999), 3));
    if (chance(rng, 0.5)) w.kv("fp_budget", fmt(rng.uniform(0.005, 0.2), 3));
    if (kind.accepts(kKeyGroupThresholds) && chance(rng, 0.4)) {
      w.kv("group_min_samples", std::to_string(draw_int(rng, 1, 200)));
    }
    if (kind.accepts(kKeyBundle) && chance(rng, 0.3)) {
      // Parse-time valid; only an actual run would open the file.
      w.kv("bundle", "artifacts/fuzz.lad");
    }
  }

  if (chance(rng, 0.4)) {
    w.section("run");
    w.kv("jobs", std::to_string(draw_int(rng, 1, 8)));
  }

  if (chance(rng, 0.4)) {
    w.section("output");
    if (chance(rng, 0.6)) {
      w.kv("fp_grid", double_values(rng, draw_int(rng, 1, 5), 0.01, 0.5, 2));
    }
    if (chance(rng, 0.5)) {
      w.kv("curve_points", std::to_string(draw_int(rng, 0, 40)));
    }
    if (chance(rng, 0.3)) {
      w.kv("loc_error", chance(rng, 0.5) ? "true" : "false");
    }
  }

  emit_kind_section(w, rng, kind);
  return w.text();
}

// ---------------------------------------------------------------------
// Mutation mode.

namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type pos = 0;
  while (pos <= text.size()) {
    const auto eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      if (pos < text.size()) lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

bool is_section_header(const std::string& line) {
  const std::string t{trim(line)};
  return !t.empty() && t.front() == '[' && t.back() == ']';
}

std::string section_name_of(const std::string& header) {
  const std::string t{trim(header)};
  return std::string{trim(t.substr(1, t.size() - 2))};
}

/// Index just after the header of `section`, or npos.
std::size_t after_section_header(const std::vector<std::string>& lines,
                                 const std::string& section) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (is_section_header(lines[i]) && section_name_of(lines[i]) == section) {
      return i + 1;
    }
  }
  return std::string::npos;
}

/// True when the (trimmed) line assigns exactly `key` (not a key that
/// merely starts with it: "m" must not match "metrics" or "majority").
bool line_sets_key(const std::string& line, const std::string& key) {
  const std::string t{trim(line)};
  if (t.rfind(key, 0) != 0) return false;
  std::string_view rest = std::string_view(t).substr(key.size());
  while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
    rest.remove_prefix(1);
  }
  return !rest.empty() && rest.front() == '=';
}

/// Removes every line assigning `key` (any section).
void drop_key(std::vector<std::string>& lines, const std::string& key) {
  lines.erase(std::remove_if(lines.begin(), lines.end(),
                             [&](const std::string& l) {
                               return line_sets_key(l, key);
                             }),
              lines.end());
}

std::string experiment_of(const std::vector<std::string>& lines) {
  for (const std::string& l : lines) {
    if (line_sets_key(l, "experiment")) {
      const std::string t{trim(l)};
      return std::string{trim(t.substr(t.find('=') + 1))};
    }
  }
  return "";
}

/// A planted edit the spec's kind must reject: a second value on an axis
/// it does not sweep, or a kind-only key it does not consume.
struct UnsweptPlant {
  KindAccepts bit;  ///< the bit that would make the edit valid
  const char* section;
  const char* key;
  const char* line;
};

const std::vector<UnsweptPlant>& unswept_plants() {
  static const std::vector<UnsweptPlant> plants = {
      {kMultiShapes, "sweep", "shapes", "shapes = grid, hex"},
      {kMultiLocalizers, "sweep", "localizers",
       "localizers = beaconless-mle, dv-hop"},
      {kMultiActualSigmas, "sweep", "actual_sigmas", "actual_sigmas = 20, 40"},
      {kMultiJitters, "sweep", "jitters", "jitters = 1, 2"},
      {kMultiMetrics, "sweep", "metrics", "metrics = diff, prob"},
      {kMultiAttacks, "sweep", "attacks", "attacks = dec-bounded, dec-only"},
      {kMultiDamages, "sweep", "damages", "damages = 40, 80"},
      {kMultiCompromised, "sweep", "compromised", "compromised = 0.1, 0.2"},
      {kKeyDensities, "sweep", "densities", "densities = 100, 300"},
      {kKeyGroupThresholds, "sweep", "group_thresholds",
       "group_thresholds = global, per_group"},
      {kKeyGroupThresholds, "detector", "group_min_samples",
       "group_min_samples = 5"},
      {kKeyBundle, "detector", "bundle", "bundle = artifacts/fuzz.lad"},
  };
  return plants;
}

}  // namespace

const std::vector<std::string>& scn_mutation_classes() {
  static const std::vector<std::string> classes = {
      "unknown-key",      "unknown-section",   "duplicate-section",
      "duplicate-key",    "malformed-range",   "foreign-kind-section",
      "bad-enum",         "bad-value",         "empty-sweep-list",
      "unswept-axis",     "unterminated-header"};
  return classes;
}

ScnMutation mutate_scn(const std::string& valid, Rng& rng,
                       const std::string& klass) {
  const std::string chosen =
      klass.empty() ? pick(rng, scn_mutation_classes()) : klass;
  std::vector<std::string> lines = split_lines(valid);
  const std::string kind = experiment_of(lines);
  ScnMutation m;
  m.klass = chosen;

  const auto insert_into = [&](const std::string& section,
                               const std::string& line) {
    std::size_t at = after_section_header(lines, section);
    if (at == std::string::npos) {
      lines.push_back("[" + section + "]");
      lines.push_back(line);
    } else {
      lines.insert(lines.begin() + static_cast<long>(at), line);
    }
  };

  // Drops every assignment of `key`, then plants `line` in `section`
  // (created at the end when absent): one bad assignment, no duplicates.
  const auto plant = [&](const std::string& section, const std::string& key,
                         const std::string& line) {
    drop_key(lines, key);
    insert_into(section, line);
  };

  if (chosen == "unknown-key") {
    m.needle = "frobnicate";
    insert_into("scenario", "frobnicate = 1");
  } else if (chosen == "unknown-section") {
    m.needle = "frobnicator";
    lines.push_back("[frobnicator]");
    lines.push_back("x = 1");
  } else if (chosen == "duplicate-section") {
    m.needle = "duplicate section";
    lines.push_back("[scenario]");
    lines.push_back("name = twice");
  } else if (chosen == "duplicate-key") {
    m.needle = "duplicate key";
    insert_into("scenario", "experiment = " + (kind.empty() ? "roc" : kind));
  } else if (chosen == "malformed-range") {
    if (chance(rng, 0.5)) {
      m.needle = "step must be > 0";
      plant("sweep", "damages", "damages = 40:160:0");
    } else {
      m.needle = "lo must be <= hi";
      plant("sweep", "damages", "damages = 160:40:20");
    }
  } else if (chosen == "foreign-kind-section") {
    // A kind section belonging to a DIFFERENT kind than the spec's: the
    // spec's own section (present or not) must not be a candidate.
    const std::string own = find_kind(kind).section;
    std::vector<std::string> foreign;
    for (const KindSpec& row : kind_table()) {
      const std::string s = row.section;
      if (!s.empty() && s != own &&
          after_section_header(lines, s) == std::string::npos) {
        foreign.push_back(s);
      }
    }
    const std::string section = pick(rng, foreign);
    m.needle = "[" + section + "]";
    lines.push_back("[" + section + "]");
    lines.push_back("trials = 4");
  } else if (chosen == "bad-enum") {
    struct Choice { const char* key; const char* line; const char* needle; };
    static const std::vector<Choice> choices = {
        {"attacks", "attacks = nuke", "nuke"},
        {"metrics", "metrics = banana", "banana"},
        {"shapes", "shapes = pentagon", "pentagon"},
        {"localizers", "localizers = gps", "gps"},
    };
    const Choice& c = pick(rng, choices);
    m.needle = c.needle;
    plant("sweep", c.key, c.line);
  } else if (chosen == "bad-value") {
    struct Choice {
      const char* section;
      const char* key;
      const char* line;
      const char* needle;
    };
    static const std::vector<Choice> choices = {
        {"detector", "tau", "tau = 1.5", "tau"},
        {"detector", "fp_budget", "fp_budget = 0", "fp_budget"},
        {"run", "jobs", "jobs = 0", "jobs"},
        {"pipeline", "m", "m = -3", "m"},
        {"pipeline", "sigma", "sigma = 0", "sigma"},
        {"sweep", "compromised", "compromised = 1.5", "compromised"},
        {"sweep", "compromised", "compromised = -0.2", "compromised"},
        {"sweep", "damages", "damages = -40", "damages"},
    };
    const Choice& c = pick(rng, choices);
    m.needle = c.needle;
    plant(c.section, c.key, c.line);
  } else if (chosen == "empty-sweep-list") {
    m.needle = "empty";
    plant("sweep", "damages", "damages =");
  } else if (chosen == "unswept-axis") {
    const KindSpec& row = find_kind(kind);
    std::vector<UnsweptPlant> candidates;
    for (const UnsweptPlant& p : unswept_plants()) {
      if (!row.accepts(p.bit)) candidates.push_back(p);
    }
    const UnsweptPlant& p = pick(rng, candidates);
    m.needle = p.key;
    plant(p.section, p.key, p.line);
  } else if (chosen == "unterminated-header") {
    m.needle = "unterminated";
    lines.push_back("[broken");
  } else {
    LAD_REQUIRE_MSG(false, "unknown mutation class '" << chosen << "'");
  }

  m.text = join_lines(lines);
  return m;
}

void check_scn_accepted(const std::string& text) {
  const ScenarioSpec spec =
      ScenarioSpec::from_config(KvConfig::parse_string(text, "fuzz.scn"));
  ScenarioRunner runner(spec);
  LAD_REQUIRE_MSG(runner.num_items() > 0,
                  "spec '" << spec.name << "' expands to no work items");
  LAD_REQUIRE_MSG(!runner.table_ids().empty(),
                  "spec '" << spec.name << "' declares no result tables");
}

std::string shrink_scn(
    std::string text,
    const std::function<bool(const std::string&)>& still_fails) {
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<std::string> lines = split_lines(text);
    // Whole sections first (big strides), then single lines.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < lines.size();) {
        std::size_t span = 1;
        if (pass == 0) {
          if (!is_section_header(lines[i])) {
            ++i;
            continue;
          }
          while (i + span < lines.size() &&
                 !is_section_header(lines[i + span])) {
            ++span;
          }
        }
        std::vector<std::string> candidate = lines;
        candidate.erase(candidate.begin() + static_cast<long>(i),
                        candidate.begin() + static_cast<long>(i + span));
        const std::string candidate_text = join_lines(candidate);
        if (still_fails(candidate_text)) {
          lines = std::move(candidate);
          text = candidate_text;
          progress = true;
        } else {
          i += span;
        }
      }
    }
  }
  return text;
}

FuzzReport fuzz_scn(const FuzzOptions& options) {
  FuzzReport report;
  std::vector<std::string> classes_seen;
  for (long long i = 0; i < options.iters; ++i) {
    ++report.iterations;
    Rng rng = Rng::stream(options.seed, static_cast<std::uint64_t>(i));
    const std::string valid = generate_valid_scn(rng);

    if (!options.invalid) {
      std::string error;
      try {
        check_scn_accepted(valid);
        continue;
      } catch (const AssertionError& e) {
        error = std::string("valid spec rejected: ") + e.what();
      } catch (const std::exception& e) {
        error = std::string("valid spec crashed the parser: ") + e.what();
      }
      FuzzFailure f;
      f.iteration = i;
      f.mode = "valid";
      f.message = error;
      f.spec = valid;
      if (options.minimize) {
        f.minimized = shrink_scn(valid, [](const std::string& t) {
          try {
            check_scn_accepted(t);
            return false;
          } catch (...) {
            return true;
          }
        });
      }
      report.failures.push_back(std::move(f));
      continue;
    }

    // Invalid mode: round-robin the classes so every run covers each one,
    // then fill with random picks.
    const auto& classes = scn_mutation_classes();
    const std::string forced =
        i < static_cast<long long>(classes.size())
            ? classes[static_cast<std::size_t>(i)]
            : "";
    const ScnMutation mutation = mutate_scn(valid, rng, forced);
    if (std::find(classes_seen.begin(), classes_seen.end(),
                  mutation.klass) == classes_seen.end()) {
      classes_seen.push_back(mutation.klass);
    }
    std::string error;
    try {
      check_scn_accepted(mutation.text);
      error = "silent acceptance of mutation class '" + mutation.klass + "'";
    } catch (const AssertionError& e) {
      const std::string what = e.what();
      if (what.find(mutation.needle) == std::string::npos) {
        error = "mutation '" + mutation.klass +
                "' rejected without naming '" + mutation.needle +
                "': " + what;
      } else if (what.find(':') == std::string::npos) {
        error = "mutation '" + mutation.klass +
                "' rejected without file:line context: " + what;
      }
    } catch (const std::exception& e) {
      error = "mutation '" + mutation.klass +
              "' crashed instead of asserting: " + e.what();
    }
    if (error.empty()) continue;
    FuzzFailure f;
    f.iteration = i;
    f.mode = "invalid";
    f.klass = mutation.klass;
    f.message = error;
    f.spec = mutation.text;
    if (options.minimize) {
      const std::string needle = mutation.needle;
      const bool accepted = error.rfind("silent acceptance", 0) == 0;
      f.minimized = shrink_scn(mutation.text, [&](const std::string& t) {
        try {
          check_scn_accepted(t);
          return accepted;  // still (wrongly) accepted
        } catch (const AssertionError& e) {
          if (accepted) return false;
          return std::string(e.what()).find(needle) == std::string::npos;
        } catch (...) {
          return !accepted;
        }
      });
    }
    report.failures.push_back(std::move(f));
  }
  report.classes_seen = std::move(classes_seen);
  return report;
}

}  // namespace lad
