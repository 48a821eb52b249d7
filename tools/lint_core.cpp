#include "lint_core.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "lint_index.h"

namespace lad::lint {

namespace {

namespace fs = std::filesystem;

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True when `needle` occurs in `code` not preceded by an identifier
/// character (so "rand(" does not fire inside "srand(").  When
/// `bound_after` is set the character following the needle must not be an
/// identifier character either (so "std::rand" does not fire inside
/// "std::random_device").
bool has_token(const std::string& code, const std::string& needle,
               bool bound_after = false) {
  std::size_t pos = 0;
  while ((pos = code.find(needle, pos)) != std::string::npos) {
    const bool ok_before = pos == 0 || !is_word(code[pos - 1]);
    const std::size_t after = pos + needle.size();
    const bool ok_after =
        !bound_after || after >= code.size() || !is_word(code[after]);
    if (ok_before && ok_after) return true;
    pos += 1;
  }
  return false;
}

/// Matches a call to lgamma/lgammaf (optionally std::-qualified) but not
/// lgamma_r or lgamma_threadsafe.
bool has_lgamma_call(const std::string& code) {
  std::size_t pos = 0;
  while ((pos = code.find("lgamma", pos)) != std::string::npos) {
    const bool ok_before = pos == 0 || !is_word(code[pos - 1]);
    std::size_t after = pos + 6;
    if (after < code.size() && code[after] == 'f') ++after;  // lgammaf
    while (after < code.size() && code[after] == ' ') ++after;
    if (ok_before && after < code.size() && code[after] == '(') return true;
    pos += 1;
  }
  return false;
}

struct StrippedLine {
  std::string code;     // comments removed, string/char literals blanked
  std::string comment;  // concatenated comment text (for allow parsing)
};

/// Multi-line scanner state: /* ... */ block comments and raw string
/// literals R"delim( ... )delim" both cross line boundaries, and the two
/// must not be confused — a banned token inside a raw string is data,
/// not code, and a raw string's closing quote must not terminate the
/// wrong construct.
struct ScanState {
  bool in_block = false;   // inside /* ... */
  bool in_raw = false;     // inside a raw string literal
  std::string raw_close;   // the ")delim\"" sequence that ends it
};

/// True when the `"` at raw[i] opens a raw string literal: an R
/// immediately before (with optional u8/u/U/L encoding prefix), itself
/// preceded by a non-identifier character.
bool opens_raw_string(const std::string& raw, std::size_t i) {
  if (i == 0 || raw[i - 1] != 'R') return false;
  std::size_t p = i - 1;  // points at 'R'
  if (p >= 1) {
    // Skip an encoding prefix: u8R" uR" UR" LR".
    if (p >= 2 && raw[p - 2] == 'u' && raw[p - 1] == '8') {
      p -= 2;
    } else if (raw[p - 1] == 'u' || raw[p - 1] == 'U' || raw[p - 1] == 'L') {
      p -= 1;
    }
  }
  return p == 0 || !is_word(raw[p - 1]);
}

/// One-pass comment/string scanner.  CMake mode swaps the comment
/// grammar: `#` to end of line, no block comments, and only double-quoted
/// strings.
StrippedLine strip_line(const std::string& raw, ScanState& st,
                        bool cmake = false) {
  StrippedLine out;
  std::size_t i = 0;
  const std::size_t n = raw.size();
  if (cmake) {
    while (i < n) {
      const char c = raw[i];
      if (c == '#') {
        out.comment.append(raw, i + 1, n - (i + 1));
        return out;
      }
      if (c == '"') {
        out.code += c;
        ++i;
        while (i < n && raw[i] != '"') {
          if (raw[i] == '\\' && i + 1 < n) {
            out.code += "  ";
            i += 2;
          } else {
            out.code += ' ';
            ++i;
          }
        }
        if (i < n) {
          out.code += '"';
          ++i;
        }
        continue;
      }
      out.code += c;
      ++i;
    }
    return out;
  }
  while (i < n) {
    if (st.in_block) {
      const std::size_t close = raw.find("*/", i);
      if (close == std::string::npos) {
        out.comment.append(raw, i, n - i);
        return out;
      }
      out.comment.append(raw, i, close - i);
      st.in_block = false;
      i = close + 2;
      continue;
    }
    if (st.in_raw) {
      const std::size_t close = raw.find(st.raw_close, i);
      if (close == std::string::npos) return out;  // still inside the literal
      st.in_raw = false;
      out.code += '"';
      i = close + st.raw_close.size();
      continue;
    }
    const char c = raw[i];
    if (c == '/' && i + 1 < n && raw[i + 1] == '/') {
      out.comment.append(raw, i + 2, n - (i + 2));
      return out;
    }
    if (c == '/' && i + 1 < n && raw[i + 1] == '*') {
      st.in_block = true;
      i += 2;
      continue;
    }
    if (c == '"' && opens_raw_string(raw, i)) {
      // R"delim( ... )delim" — the delimiter (up to 16 chars, no
      // parens/spaces) picks the only close sequence that counts.
      const std::size_t open_paren = raw.find('(', i + 1);
      if (open_paren == std::string::npos) {
        // Malformed raw literal; treat the rest of the line as opaque.
        return out;
      }
      // The emitted code already holds the prefix R (and u8/u/U/L);
      // keep one quote so token boundaries stay intact.
      out.code += '"';
      st.raw_close = ")" + raw.substr(i + 1, open_paren - (i + 1)) + "\"";
      st.in_raw = true;
      i = open_paren + 1;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      out.code += quote;
      ++i;
      while (i < n) {
        if (raw[i] == '\\' && i + 1 < n) {
          out.code += "  ";
          i += 2;
          continue;
        }
        if (raw[i] == quote) break;
        out.code += ' ';
        ++i;
      }
      if (i < n) {
        out.code += quote;
        ++i;
      }
      continue;
    }
    out.code += c;
    ++i;
  }
  return out;
}

std::string trim_copy(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parses every suppression comment (kTag below, followed by a rule
/// list, ')', and a `--`-introduced justification) in the comment text.
/// Well-formed allowances land in `allowed`; malformed ones (missing
/// justification, unknown rule, unclosed list) become `allow-syntax`
/// findings.
void parse_allow(const std::string& comment, const std::string& file, int line,
                 std::set<std::string>& allowed, std::vector<Finding>& out) {
  static const std::string kTag = "lad-lint: allow(";
  std::size_t pos = 0;
  while ((pos = comment.find(kTag, pos)) != std::string::npos) {
    const std::size_t open = pos + kTag.size();
    const std::size_t close = comment.find(')', open);
    pos = open;
    if (close == std::string::npos) {
      out.push_back({file, line, "allow-syntax",
                     "unclosed lad-lint: allow(...) comment"});
      return;
    }
    std::vector<std::string> rules;
    std::istringstream list(comment.substr(open, close - open));
    std::string item;
    while (std::getline(list, item, ',')) {
      item = trim_copy(item);
      if (!item.empty()) rules.push_back(item);
    }
    const std::string rest = trim_copy(comment.substr(close + 1));
    const bool justified =
        starts_with(rest, "--") && !trim_copy(rest.substr(2)).empty();
    if (rules.empty()) {
      out.push_back({file, line, "allow-syntax",
                     "lad-lint: allow() names no rule"});
    }
    for (const std::string& rule : rules) {
      const auto& known = rule_names();
      if (std::find(known.begin(), known.end(), rule) == known.end()) {
        out.push_back({file, line, "allow-syntax",
                       "lad-lint: allow(" + rule + ") names an unknown rule"});
        continue;
      }
      if (!justified) {
        out.push_back(
            {file, line, "allow-syntax",
             "lad-lint: allow(" + rule +
                 ") needs a justification: `allow(" + rule + ") -- why`"});
        continue;
      }
      allowed.insert(rule);
    }
    pos = close + 1;
  }
}

/// First path segment of `rel_path` under src/, or "" when not in src.
std::string src_layer_of(const std::string& rel_path) {
  if (!starts_with(rel_path, "src/")) return "";
  const std::size_t slash = rel_path.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel_path.substr(4, slash - 4);
}

bool is_cmake_file(const std::string& rel_path) {
  return ends_with(rel_path, "CMakeLists.txt") || ends_with(rel_path, ".cmake");
}

bool is_kernel_tu(const std::string& rel_path) {
  const std::size_t slash = rel_path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? rel_path : rel_path.substr(slash + 1);
  return starts_with(base, "observe_kernel");
}

const char* const kFastMathFlags[] = {
    "-ffast-math",       "-Ofast",
    "-fassociative-math", "-freciprocal-math",
    "-funsafe-math-optimizations", "-ffp-contract=fast"};

// Matches `Rng name(...)` / `Rng name{...}` / `lad::Rng name(...)` / a
// bare `Rng(...)` temporary, but not `Rng::stream(...)` (the predicate
// needs '(' or '{' right after `Rng`) or identifiers merely ending in
// Rng (ScopedTestRng — the leading word boundary).
const std::regex kRngNamed(R"((^|\W)Rng\s+[A-Za-z_]\w*\s*[({])");
const std::regex kRngTemp(R"((^|\W)Rng\s*[({])");

struct FileContext {
  std::string rel_path;
  std::string layer;        // "" outside src/
  bool cmake = false;
  bool kernel = false;
  bool timing_exempt = false;   // bench/ and tools/ may read clocks
  bool rng_exempt = false;      // src/rng/ and tests/support/ construct Rng
  bool getenv_exempt = false;   // src/util/env.cpp wraps getenv
  bool writes_output = false;   // includes util/csv.h or core/serialize.h
};

FileContext classify(const std::string& rel_path, const std::string& content) {
  FileContext ctx;
  ctx.rel_path = rel_path;
  ctx.layer = src_layer_of(rel_path);
  ctx.cmake = is_cmake_file(rel_path);
  ctx.kernel = is_kernel_tu(rel_path);
  ctx.timing_exempt =
      starts_with(rel_path, "bench/") || starts_with(rel_path, "tools/");
  // Library code must take an Rng stream; entry points (bench mains,
  // examples, tools) legitimately own their root seed, and src/rng/ and
  // tests/support/ define the constructors and fixtures themselves.
  ctx.rng_exempt = !starts_with(rel_path, "src/") ||
                   starts_with(rel_path, "src/rng/") ||
                   starts_with(rel_path, "tests/support/");
  ctx.getenv_exempt = rel_path == "src/util/env.cpp";
  ctx.writes_output = content.find("util/csv.h") != std::string::npos ||
                      content.find("core/serialize.h") != std::string::npos;
  return ctx;
}

void lint_code_line(const FileContext& ctx, const std::string& code, int line,
                    const std::set<std::string>& allowed,
                    std::vector<Finding>& out) {
  const auto emit = [&](const std::string& rule, const std::string& msg) {
    if (allowed.count(rule) == 0) {
      out.push_back({ctx.rel_path, line, rule, msg});
    }
  };

  if (ctx.cmake) {
    for (const char* flag : kFastMathFlags) {
      if (code.find(flag) != std::string::npos) {
        emit("fast-math",
             std::string(flag) +
                 " breaks bit-identity of the observe/scoring kernels");
      }
    }
    return;
  }

  // --- determinism bans ------------------------------------------------
  if (has_token(code, "std::rand", /*bound_after=*/true) ||
      has_token(code, "srand(") || has_token(code, "rand(")) {
    emit("ban-rand", "C rand() is not seedable per-stream; use lad::Rng");
  }
  if (code.find("random_device") != std::string::npos) {
    emit("ban-rand",
         "std::random_device is nondeterministic; use lad::Rng streams");
  }
  if (!ctx.timing_exempt) {
    if (has_token(code, "time(") || has_token(code, "clock(")) {
      emit("ban-time",
           "wall-clock reads in library code break replayable output");
    }
    // Matching the clock *types* (not just ::now) also catches the
    // `using Clock = std::chrono::steady_clock` alias pattern.
    if (has_token(code, "steady_clock") || has_token(code, "system_clock") ||
        has_token(code, "high_resolution_clock")) {
      emit("ban-clock-now",
           "std::chrono clock reads belong in bench/ and tools/ only");
    }
  }
  if (has_lgamma_call(code)) {
    emit("ban-lgamma",
         "std::lgamma writes the global signgam (data race); call lgamma_r");
  }
  if (ctx.writes_output && (code.find("unordered_map") != std::string::npos ||
                            code.find("unordered_set") != std::string::npos)) {
    emit("unordered-output",
         "unordered container in a TU that writes CSV/bundle output; "
         "iteration order is not reproducible — use std::map/std::set or "
         "sort before emitting");
  }

  // --- kernel float rules ----------------------------------------------
  if (ctx.kernel) {
    if (code.find("fmadd") != std::string::npos ||
        has_token(code, "std::fma", /*bound_after=*/true) ||
        has_token(code, "fma(") || has_token(code, "fmaf(")) {
      emit("kernel-no-fma",
           "fused multiply-add keeps products unrounded and can flip "
           "borderline <= a2 compares vs the scalar reference");
    }
    const bool has_cmp = code.find("_mm256_cmp_pd") != std::string::npos ||
                         code.find("_mm_cmp_pd") != std::string::npos ||
                         code.find("_mm512_cmp_pd") != std::string::npos;
    bool saw_predicate = false;
    std::size_t pos = 0;
    while ((pos = code.find("_CMP_", pos)) != std::string::npos) {
      std::size_t end = pos + 5;
      while (end < code.size() && is_word(code[end])) ++end;
      const std::string pred = code.substr(pos, end - pos);
      saw_predicate = true;
      if (!ends_with(pred, "_OQ")) {
        emit("kernel-cmp-ordered",
             pred + " is not in the ordered-quiet (_CMP_*_OQ) family the "
                    "scalar reference compare maps to");
      }
      pos = end;
    }
    if (has_cmp && !saw_predicate) {
      emit("kernel-cmp-ordered",
           "vector compare without a literal _CMP_*_OQ predicate on the "
           "same line; spell the predicate out so it can be audited");
    }
  }

  // --- rng-stream hygiene ----------------------------------------------
  if (!ctx.rng_exempt && (std::regex_search(code, kRngNamed) ||
                          std::regex_search(code, kRngTemp))) {
    emit("rng-construct",
         "direct Rng construction outside src/rng/ and tests/support/; "
         "derive a sub-stream with Rng::stream(seed, stream_id) instead");
  }

  // --- env hygiene ------------------------------------------------------
  if (!ctx.getenv_exempt && has_token(code, "getenv", /*bound_after=*/true)) {
    emit("raw-getenv",
         "raw getenv bypasses the validated lad::env_* helpers "
         "(util/env.h)");
  }
}

/// Extracts the quoted include path from a raw (un-blanked) line, or "".
std::string include_path_of(const std::string& raw) {
  const std::size_t inc = raw.find("#include");
  if (inc == std::string::npos) return "";
  // Only treat it as a directive when nothing but whitespace precedes it.
  for (std::size_t i = 0; i < inc; ++i) {
    if (!std::isspace(static_cast<unsigned char>(raw[i]))) return "";
  }
  const std::size_t q1 = raw.find('"', inc);
  if (q1 == std::string::npos) return "";
  const std::size_t q2 = raw.find('"', q1 + 1);
  if (q2 == std::string::npos) return "";
  return raw.substr(q1 + 1, q2 - q1 - 1);
}

/// Pass-1 rules over an already-scanned file.
std::vector<Finding> lint_scanned(const Config& cfg, const ScannedFile& scan,
                                  const std::string& content) {
  std::vector<Finding> out = scan.allow_findings;
  const FileContext ctx = classify(scan.rel_path, content);

  const auto* deps = ctx.layer.empty() || cfg.layer_deps.count(ctx.layer) == 0
                         ? nullptr
                         : &cfg.layer_deps.at(ctx.layer);
  const bool undeclared_layer =
      !ctx.layer.empty() && cfg.layer_deps.count(ctx.layer) == 0;
  bool reported_undeclared = false;

  static const std::set<std::string> kNoAllows;
  const auto allows_on = [&](int line) -> const std::set<std::string>& {
    const auto it = scan.allows.find(line);
    return it == scan.allows.end() ? kNoAllows : it->second;
  };

  if (!ctx.cmake) {
    for (const IncludeDirective& inc : scan.includes) {
      if (ctx.layer.empty() || inc.path.find('/') == std::string::npos) {
        continue;
      }
      const std::string target = inc.path.substr(0, inc.path.find('/'));
      const std::set<std::string>& allowed = allows_on(inc.line);
      if (undeclared_layer) {
        if (!reported_undeclared && allowed.count("layer-dag") == 0) {
          out.push_back({scan.rel_path, inc.line, "layer-dag",
                         "layer `" + ctx.layer +
                             "` is not declared in layers.txt"});
          reported_undeclared = true;
        }
      } else if (target != ctx.layer && deps != nullptr) {
        const bool allowed_dep =
            std::find(deps->begin(), deps->end(), target) != deps->end();
        if (!allowed_dep && allowed.count("layer-dag") == 0) {
          std::string allow_list = ctx.layer;
          for (const std::string& d : *deps) allow_list += " " + d;
          out.push_back({scan.rel_path, inc.line, "layer-dag",
                         "src/" + ctx.layer + "/ may not include \"" +
                             inc.path + "\" (allowed: " + allow_list + ")"});
        }
      }
    }
  }

  for (std::size_t i = 0; i < scan.code.size(); ++i) {
    const int line = static_cast<int>(i) + 1;
    lint_code_line(ctx, scan.code[i], line, allows_on(line), out);
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule, a.message) <
           std::tie(b.line, b.rule, b.message);
  });
  return out;
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      "layer-dag",       "ban-rand",           "ban-time",
      "ban-clock-now",   "ban-lgamma",         "unordered-output",
      "kernel-no-fma",   "kernel-cmp-ordered", "fast-math",
      "rng-construct",   "raw-getenv",         "allow-syntax",
      "include-cycle",   "include-unused",     "include-transitive",
      "dead-public"};
  return names;
}

std::string load_layer_rules(const std::string& path, Config& cfg) {
  std::ifstream in(path);
  if (!in.good()) return "cannot read layer rules file: " + path;
  cfg.layer_deps.clear();
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim_copy(line);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return path + ":" + std::to_string(lineno) +
             ": expected `layer: dep dep ...`";
    }
    const std::string layer = trim_copy(line.substr(0, colon));
    if (layer.empty() || cfg.layer_deps.count(layer) != 0) {
      return path + ":" + std::to_string(lineno) +
             ": empty or duplicate layer name";
    }
    std::vector<std::string> deps;
    std::istringstream rest(line.substr(colon + 1));
    std::string dep;
    while (rest >> dep) deps.push_back(dep);
    cfg.layer_deps.emplace(layer, std::move(deps));
  }
  // Every named dependency must itself be a declared layer.
  for (const auto& [layer, deps] : cfg.layer_deps) {
    for (const std::string& dep : deps) {
      if (cfg.layer_deps.count(dep) == 0) {
        return path + ": layer `" + layer + "` depends on undeclared layer `" +
               dep + "`";
      }
    }
  }
  return "";
}

ScannedFile scan_file(const std::string& rel_path, const std::string& content,
                      bool cmake) {
  ScannedFile out;
  out.rel_path = rel_path;
  std::istringstream is(content);
  std::string raw;
  ScanState st;
  int line = 0;
  std::set<std::string> pending;  // allowances from a comment-only line
  while (std::getline(is, raw)) {
    ++line;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    // Raw-string state must win over everything, including a line that
    // happens to start with #include inside the literal.
    const bool was_in_raw = st.in_raw;
    StrippedLine s = strip_line(raw, st, cmake);
    std::set<std::string> allowed = pending;
    parse_allow(s.comment, rel_path, line, allowed, out.allow_findings);

    if (!cmake && !was_in_raw) {
      const std::string inc = include_path_of(raw);
      if (!inc.empty()) {
        const bool keep =
            s.comment.find("IWYU pragma: keep") != std::string::npos;
        const bool exported =
            s.comment.find("IWYU pragma: export") != std::string::npos;
        out.includes.push_back({line, inc, keep, exported});
      }
    }

    if (!allowed.empty()) out.allows[line] = allowed;
    out.code.push_back(s.code);
    pending.clear();
    if (trim_copy(s.code).empty()) pending = allowed;
  }
  return out;
}

std::vector<Finding> lint_file(const Config& cfg, const std::string& rel_path,
                               const std::string& content) {
  const ScannedFile scan = scan_file(rel_path, content, is_cmake_file(rel_path));
  return lint_scanned(cfg, scan, content);
}

std::vector<Finding> lint_tree(const Config& cfg) {
  return lint_tree(cfg, nullptr);
}

std::vector<Finding> lint_tree(const Config& cfg, std::string* report) {
  std::vector<std::string> files;
  const fs::path root(cfg.root);

  const auto want = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    if (ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".h" ||
        ext == ".hpp" || ext == ".hh" || ext == ".inl" || ext == ".cmake") {
      return true;
    }
    return p.filename() == "CMakeLists.txt";
  };

  if (fs::exists(root / "CMakeLists.txt")) files.push_back("CMakeLists.txt");
  for (const std::string& dir : cfg.scan_dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !want(entry.path())) continue;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      // tests/data/ holds fixture payload (including deliberately
      // violating lint fixture trees); it is never project source.
      if (rel.find("tests/data/") != std::string::npos) continue;
      files.push_back(rel);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> out;
  std::map<std::string, std::string> contents;
  for (const std::string& rel : files) {
    std::ifstream in(root / rel, std::ios::binary);
    if (!in.good()) {
      out.push_back({rel, 0, "io-error", "cannot read file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    contents.emplace(rel, buf.str());
  }

  for (const auto& [rel, content] : contents) {
    std::vector<Finding> findings = lint_file(cfg, rel, content);
    out.insert(out.end(), findings.begin(), findings.end());
  }

  // Pass 2: include graph + symbol index rules.
  const TreeIndex index = TreeIndex::build(cfg, contents);
  std::vector<Finding> tree_findings = index.run_rules();
  out.insert(out.end(), tree_findings.begin(), tree_findings.end());
  if (report != nullptr) *report = index.include_report();

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.file, a.line, a.rule) <
                            std::tie(b.file, b.line, b.rule);
                   });
  return out;
}

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": " + f.rule + ": " +
         f.message;
}

std::string format_finding_github(const Finding& f) {
  return "::error file=" + f.file +
         ",line=" + std::to_string(f.line) + "::" + f.rule + ": " + f.message;
}

}  // namespace lad::lint
