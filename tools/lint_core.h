// lad_lint engine: project-invariant static analysis at the token /
// include level (deliberately no libclang — the checks below are textual
// by design, so the tool builds everywhere the project builds and runs in
// milliseconds as a ctest).
//
// The engine runs two passes.  Pass 1 is per-file and enforces the rules
// the runtime gates cannot see until after the damage is done:
//
//   layer-dag            src/<layer>/ may only include headers from its
//                        declared dependency set (tools/lint_rules/layers.txt)
//   ban-rand             std::rand/srand/random_device — all randomness
//                        flows through lad::Rng streams
//   ban-time             time()/clock() wall-clock reads in library code
//   ban-clock-now        std::chrono::*_clock::now outside bench/ + tools/
//   ban-lgamma           std::lgamma/lgammaf write the process-global
//                        `signgam` (TSan-proven race); use lgamma_r
//   unordered-output     unordered_{map,set} in a TU that writes CSV or
//                        bundle output (iteration order is not stable)
//   kernel-no-fma        no fused multiply-add in observe_kernel*.cpp —
//                        unrounded products flip borderline <= a2 compares
//   kernel-cmp-ordered   vector compares in observe_kernel*.cpp must use
//                        the ordered-quiet (_CMP_*_OQ) predicate family
//   fast-math            no -ffast-math-implying flags in any CMakeLists
//   rng-construct        direct Rng construction outside src/rng/ and
//                        tests/support/ — everything else takes a stream
//   raw-getenv           getenv outside the lad::env_* helpers (util/env.cpp)
//   allow-syntax         a suppression comment that names an unknown rule
//                        or omits its `-- justification`
//
// Pass 2 is whole-tree (lint_index.h): it builds an include graph and a
// heuristic symbol index over every project header and enforces
//
//   include-cycle        the include graph must stay acyclic
//   include-unused       a direct #include "..." whose header exports no
//                        token the including file references
//   include-transitive   a project symbol that is used but whose defining
//                        header only arrives transitively (the
//                        refactor-breaking IWYU case)
//   dead-public          a public src/ header symbol referenced by no TU
//                        outside its own layer and no test
//
// Escape hatch: a comment of the form
//
//   lad-lint: <keyword>(<rule>[,<rule>...]) -- <justification>
//
// where the keyword is "allow", placed on the offending line or alone on
// the line above it.  The justification text is mandatory; a suppression
// without one is itself a finding.  (Spelled indirectly here so the
// analyzer does not read its own documentation as a suppression.)
// Include lines additionally honor the standard `IWYU pragma: keep` /
// `IWYU pragma: export` annotations.  There is no other suppression
// mechanism: no allowlist file and no report-only mode.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace lad::lint {

struct Finding {
  std::string file;  // path as given (relative to the scan root)
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
};

struct Config {
  // Scan root; scan_dirs are joined under it.  Files are reported
  // relative to this root.  Anything under tests/data/ is fixture
  // payload, never project source, and is always skipped.
  std::string root = ".";
  std::vector<std::string> scan_dirs = {"src",      "bench", "tools",
                                        "examples", "cmake", "tests"};
  // Layer dependency DAG: layer -> layers it may include from (its own
  // name is always allowed implicitly).  Loaded from layers.txt.
  std::map<std::string, std::vector<std::string>> layer_deps;
};

/// One quoted #include directive as seen in a file.
struct IncludeDirective {
  int line = 0;
  std::string path;        // as written between the quotes
  bool iwyu_keep = false;    // carries `IWYU pragma: keep`
  bool iwyu_export = false;  // carries `IWYU pragma: export`
};

/// The scanner's view of one file: comments and string/char literals
/// stripped (block comments and raw string literals may span lines — the
/// scanner carries that state), suppression comments resolved into a
/// per-line allow map, and include directives extracted.
struct ScannedFile {
  std::string rel_path;
  std::vector<std::string> code;  // stripped code, code[i] is line i+1
  // line -> rules a well-formed suppression allows on that line (the
  // same-line hatch plus a comment-only line covering the next line).
  std::map<int, std::set<std::string>> allows;
  std::vector<IncludeDirective> includes;
  // Malformed suppressions found while scanning (allow-syntax).
  std::vector<Finding> allow_findings;
};

/// Every rule name the engine can emit, for --list-rules and for
/// validating allow() comments.
const std::vector<std::string>& rule_names();

/// Parses a layers.txt ("layer: dep dep ..." lines, '#' comments) into
/// cfg.layer_deps.  Returns "" on success or a description of the
/// malformed line.
std::string load_layer_rules(const std::string& path, Config& cfg);

/// Runs the comment/string scanner over one file body.  `cmake` swaps
/// the comment grammar (# to end of line, no block comments).
ScannedFile scan_file(const std::string& rel_path, const std::string& content,
                      bool cmake);

/// Lints one file body (pass 1 only).  `rel_path` selects which rules
/// apply (layer membership, kernel TUs, CMake files).
std::vector<Finding> lint_file(const Config& cfg, const std::string& rel_path,
                               const std::string& content);

/// Walks cfg.scan_dirs under cfg.root and runs both passes over every
/// source/CMake file.  Missing scan dirs are skipped (fixture trees
/// rarely have all of them).  Unreadable files produce findings with the
/// pseudo-rule "io-error"; the CLI maps those to exit 2, not exit 1.
std::vector<Finding> lint_tree(const Config& cfg);

/// Same walk, but also returns the include depth/fan-in report that
/// `lad_lint --include-report` prints (empty when report == nullptr).
std::vector<Finding> lint_tree(const Config& cfg, std::string* report);

/// "file:line: rule: message" — the one true diagnostic format (tests
/// assert on it verbatim).
std::string format_finding(const Finding& f);

/// GitHub Actions workflow-annotation form:
/// "::error file=<file>,line=<line>::<rule>: <message>".
std::string format_finding_github(const Finding& f);

}  // namespace lad::lint
