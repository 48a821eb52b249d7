// Project-invariant static analyzer (see lint_core.h for the rule
// catalog and docs/STATIC_ANALYSIS.md for the why behind each rule).
//
//   usage: lad_lint [--root DIR] [--layers FILE] [--format plain|github]
//                   [--include-report] [--list-rules] [dir ...]
//
// Walks src/ bench/ tools/ examples/ cmake/ tests/ under --root (default:
// the current directory), prints one `file:line: rule: message` diagnostic
// per finding, and exits:
//
//   0  clean
//   1  at least one finding (every rule is enforced; the only way to
//      suppress one is an inline `allow(<rule>) -- why` comment)
//   2  broken invocation: unknown flag, missing flag value, unreadable
//      root/layers, or an unreadable source file
//
// CI and scripts rely on the 1-vs-2 split to tell a dirty tree from a
// misconfigured run.  Runs as ctest `smoke.lint` so the gate is
// local-first, not CI-only.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint_core.h"

namespace {

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;

int usage_error(const std::string& message) {
  std::fprintf(stderr, "lad_lint: %s\n", message.c_str());
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  lad::lint::Config cfg;
  std::string layers_file;
  std::string format = "plain";
  bool include_report = false;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) return nullptr;
      (void)flag;
      return argv[++i];
    };
    if (arg == "--root") {
      const char* v = value("--root");
      if (v == nullptr) return usage_error("--root requires a value");
      cfg.root = v;
    } else if (arg == "--layers") {
      const char* v = value("--layers");
      if (v == nullptr) return usage_error("--layers requires a value");
      layers_file = v;
    } else if (arg == "--format") {
      const char* v = value("--format");
      if (v == nullptr) return usage_error("--format requires a value");
      format = v;
      if (format != "plain" && format != "github") {
        return usage_error("--format must be `plain` or `github`, got `" +
                           format + "`");
      }
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "plain" && format != "github") {
        return usage_error("--format must be `plain` or `github`, got `" +
                           format + "`");
      }
    } else if (arg == "--include-report") {
      include_report = true;
    } else if (arg == "--list-rules") {
      for (const std::string& rule : lad::lint::rule_names()) {
        std::printf("%s\n", rule.c_str());
      }
      return kExitClean;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: lad_lint [--root DIR] [--layers FILE]\n"
          "                [--format plain|github] [--include-report]\n"
          "                [--list-rules] [dir ...]\n"
          "exit codes: 0 clean, 1 findings, 2 usage/IO error\n");
      return kExitClean;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error("unknown flag '" + arg + "'");
    } else {
      dirs.push_back(arg);
    }
  }
  if (!dirs.empty()) cfg.scan_dirs = dirs;

  std::error_code ec;
  if (!std::filesystem::is_directory(cfg.root, ec)) {
    return usage_error("--root is not a directory: " + cfg.root);
  }

  if (layers_file.empty()) {
    layers_file = cfg.root + "/tools/lint_rules/layers.txt";
  }
  if (const std::string err = lad::lint::load_layer_rules(layers_file, cfg);
      !err.empty()) {
    return usage_error(err);
  }

  std::string report;
  const std::vector<lad::lint::Finding> findings =
      lad::lint::lint_tree(cfg, include_report ? &report : nullptr);

  for (const lad::lint::Finding& f : findings) {
    if (f.rule == "io-error") {
      return usage_error("cannot read " + f.file);
    }
    const std::string line = format == "github"
                                 ? lad::lint::format_finding_github(f)
                                 : lad::lint::format_finding(f);
    std::fprintf(stderr, "%s\n", line.c_str());
  }

  if (include_report) std::printf("%s", report.c_str());

  if (findings.empty()) {
    std::printf("lad_lint: clean (%zu rules, root %s)\n",
                lad::lint::rule_names().size(), cfg.root.c_str());
    return kExitClean;
  }
  std::fprintf(stderr,
               "lad_lint: %zu finding(s).  Fix, or suppress a justified "
               "exception with `// lad-lint: allow(<rule>) -- <why>`.\n",
               findings.size());
  return kExitFindings;
}
