// lad_lint engine tests: the fixture trees under tests/data/lint/ pin
// every rule's behavior — each fail file must fire with the exact rule
// name and file:line, the pass tree must be silent, and the justified
// allow hatch must suppress exactly one line.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>  // getpid

#include "lint_core.h"
#include "support/golden.h"

namespace lad::lint {
namespace {

Config fixture_config(const std::string& tree) {
  Config cfg;
  cfg.root = lad::test::golden_path("lint/" + tree);
  const std::string err = load_layer_rules(cfg.root + "/layers.txt", cfg);
  EXPECT_EQ(err, "");
  return cfg;
}

std::vector<std::string> formatted(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back(format_finding(f));
  return out;
}

bool has(const std::vector<Finding>& findings, const std::string& file,
         int line, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.file == file && f.line == line && f.rule == rule;
  });
}

TEST(LadLint, PassTreeIsSilent) {
  const Config cfg = fixture_config("pass");
  const std::vector<Finding> findings = lint_tree(cfg);
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(LadLint, FailTreeFiresEveryRuleWithFileAndLine) {
  const Config cfg = fixture_config("fail");
  const std::vector<Finding> findings = lint_tree(cfg);
  const auto dump = [&] {
    std::string all;
    for (const std::string& s : formatted(findings)) all += s + "\n";
    return all;
  };

  // One (file, line, rule) pin per rule; bad_allow.cpp additionally
  // proves a malformed suppression does NOT silence the underlying ban.
  EXPECT_TRUE(has(findings, "src/geom/bad_include.cpp", 4, "layer-dag"))
      << dump();
  EXPECT_TRUE(has(findings, "src/util/uses_rand.cpp", 3, "ban-rand"))
      << dump();
  EXPECT_TRUE(has(findings, "src/util/uses_time.cpp", 3, "ban-time"))
      << dump();
  EXPECT_TRUE(has(findings, "src/util/uses_clock.cpp", 5, "ban-clock-now"))
      << dump();
  EXPECT_TRUE(has(findings, "src/stats/uses_lgamma.cpp", 4, "ban-lgamma"))
      << dump();
  EXPECT_TRUE(has(findings, "src/core/unordered_out.cpp", 3,
                  "unordered-output"))
      << dump();
  EXPECT_TRUE(has(findings, "src/core/unordered_out.cpp", 5,
                  "unordered-output"))
      << dump();
  EXPECT_TRUE(has(findings, "src/core/constructs_rng.cpp", 5, "rng-construct"))
      << dump();
  EXPECT_TRUE(has(findings, "src/sim/uses_getenv.cpp", 4, "raw-getenv"))
      << dump();
  EXPECT_TRUE(
      has(findings, "src/deploy/observe_kernel_fma.cpp", 6, "kernel-no-fma"))
      << dump();
  EXPECT_TRUE(has(findings, "src/deploy/observe_kernel_cmp.cpp", 5,
                  "kernel-cmp-ordered"))
      << dump();
  EXPECT_TRUE(has(findings, "src/deploy/CMakeLists.txt", 3, "fast-math"))
      << dump();
  EXPECT_TRUE(has(findings, "src/util/bad_allow.cpp", 4, "allow-syntax"))
      << dump();
  EXPECT_TRUE(has(findings, "src/util/bad_allow.cpp", 5, "allow-syntax"))
      << dump();
  // The malformed suppressions must not eat the ban-rand findings.
  EXPECT_TRUE(has(findings, "src/util/bad_allow.cpp", 4, "ban-rand"))
      << dump();
  EXPECT_TRUE(has(findings, "src/util/bad_allow.cpp", 5, "ban-rand"))
      << dump();
  // Exactly the pins above — a new stray finding in the fixtures is a
  // behavior change and must be reviewed here.
  EXPECT_EQ(findings.size(), 16u) << dump();
}

TEST(LadLint, DiagnosticFormatIsFileLineRuleMessage) {
  const Config cfg = fixture_config("fail");
  const std::vector<Finding> findings = lint_tree(cfg);
  ASSERT_FALSE(findings.empty());
  bool saw = false;
  for (const std::string& s : formatted(findings)) {
    if (s.rfind("src/geom/bad_include.cpp:4: layer-dag: ", 0) == 0) saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(LadLint, SameLineAllowSuppressesOnlyThatLine) {
  Config cfg;
  cfg.layer_deps = {{"util", {}}};
  const std::string body =
      "long a() { return time(nullptr); }  "
      "// lad-lint: allow(ban-time) -- pinned fixture\n"
      "long b() { return time(nullptr); }\n";
  const std::vector<Finding> findings =
      lint_file(cfg, "src/util/t.cpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule, "ban-time");
}

TEST(LadLint, CommentLineAllowCoversTheNextLine) {
  Config cfg;
  cfg.layer_deps = {{"util", {}}};
  const std::string body =
      "// lad-lint: allow(ban-time) -- pinned fixture\n"
      "long a() { return time(nullptr); }\n"
      "long b() { return time(nullptr); }\n";
  const std::vector<Finding> findings =
      lint_file(cfg, "src/util/t.cpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LadLint, BannedTokensInsideStringsAndCommentsDoNotFire) {
  Config cfg;
  cfg.layer_deps = {{"util", {}}};
  const std::string body =
      "// calls std::rand() and time() all day\n"
      "const char* kDoc = \"std::rand() time( lgamma( getenv\";\n"
      "/* std::random_device everywhere */\n";
  EXPECT_TRUE(lint_file(cfg, "src/util/t.cpp", body).empty());
}

// ---- whole-tree hygiene rules (PR 10) ---------------------------------

TEST(LadLint, HygieneFailTreeFiresEachTreeRule) {
  const Config cfg = fixture_config("hygiene_fail");
  const std::vector<Finding> findings = lint_tree(cfg);
  const auto dump = [&] {
    std::string all;
    for (const std::string& s : formatted(findings)) all += s + "\n";
    return all;
  };
  EXPECT_TRUE(has(findings, "src/core/unused_inc.cpp", 1, "include-unused"))
      << dump();
  EXPECT_TRUE(
      has(findings, "src/core/uses_transitive.cpp", 5, "include-transitive"))
      << dump();
  EXPECT_TRUE(has(findings, "src/util/cyc_b.h", 3, "include-cycle")) << dump();
  EXPECT_TRUE(has(findings, "src/util/dead.h", 4, "dead-public")) << dump();
  EXPECT_EQ(findings.size(), 4u) << dump();
}

TEST(LadLint, HygienePassTreeIsSilent) {
  const Config cfg = fixture_config("hygiene_pass");
  const std::vector<Finding> findings = lint_tree(cfg);
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(LadLint, InlineAllowIsWhatKeepsSpareApiAlive) {
  // A copy of the pass tree with SpareApi's allow(dead-public) comment
  // removed has exactly one finding: the deliberately-dead SpareApi.  This
  // pins that the inline allow is load-bearing, not redundant.
  namespace fs = std::filesystem;
  Config cfg = fixture_config("hygiene_pass");
  const fs::path copy = fs::path(testing::TempDir()) /
                        ("lad_lint_spare_" + std::to_string(::getpid()));
  fs::remove_all(copy);
  fs::copy(cfg.root, copy, fs::copy_options::recursive);
  const fs::path spare = copy / "src/util/spare.h";
  std::string kept;
  {
    std::ifstream in(spare);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("allow(dead-public)") == std::string::npos) {
        kept += line + "\n";
      }
    }
  }
  std::ofstream(spare) << kept;
  cfg.root = copy.string();

  const std::vector<Finding> findings = lint_tree(cfg);
  fs::remove_all(copy);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/util/spare.h");
  EXPECT_EQ(findings[0].rule, "dead-public");
  EXPECT_NE(findings[0].message.find("SpareApi"), std::string::npos);
}

TEST(LadLint, IncludeReportListsHeadersByTransitiveWeight) {
  const Config cfg = fixture_config("hygiene_fail");
  std::string report;
  (void)lint_tree(cfg, &report);
  EXPECT_NE(report.find("src/util/thing.h"), std::string::npos) << report;
  EXPECT_NE(report.find("fan-in"), std::string::npos) << report;
}

// ---- scanner near-misses: block comments, raw strings, allows ---------

TEST(LadLint, BlockCommentSpanningLinesHidesNothingAndFakesNothing) {
  Config cfg;
  cfg.layer_deps = {{"util", {}}};
  const std::string body =
      "/* a comment that opens here and keeps going\n"
      "   time(nullptr) std::rand() getenv(\"HOME\")\n"
      "*/ long a() { return time(nullptr); }\n";
  const std::vector<Finding> findings = lint_file(cfg, "src/util/t.cpp", body);
  // Banned tokens inside the comment are inert; the live call on the
  // closing line still fires, at the closing line.
  ASSERT_EQ(findings.size(), 1u) << format_finding(findings.front());
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[0].rule, "ban-time");
}

TEST(LadLint, RawStringLiteralContentIsInert) {
  Config cfg;
  cfg.layer_deps = {{"util", {}}};
  const std::string body =
      "const char* kDoc = R\"(std::rand() time(nullptr) getenv)\";\n"
      "const char* kTwo = R\"x(lgamma( rand() )\" still raw )x\";\n"
      "long b() { return time(nullptr); }\n";
  const std::vector<Finding> findings = lint_file(cfg, "src/util/t.cpp", body);
  ASSERT_EQ(findings.size(), 1u) << format_finding(findings.front());
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[0].rule, "ban-time");
}

TEST(LadLint, MultiLineRawStringDoesNotSwallowFollowingCode) {
  Config cfg;
  cfg.layer_deps = {{"util", {}}};
  const std::string body =
      "const char* kBlob = R\"(first line\n"
      "  time(nullptr) inside the raw string\n"
      "  #include \"util/fake.h\"\n"
      ")\";\n"
      "long c() { return time(nullptr); }\n";
  const std::vector<Finding> findings = lint_file(cfg, "src/util/t.cpp", body);
  ASSERT_EQ(findings.size(), 1u) << format_finding(findings.front());
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_EQ(findings[0].rule, "ban-time");
}

TEST(LadLint, AllowInsideBlockCommentStillAttaches) {
  Config cfg;
  cfg.layer_deps = {{"util", {}}};
  const std::string body =
      "/* lad-lint: allow(ban-time) -- block-comment hatch */\n"
      "long a() { return time(nullptr); }\n"
      "long b() { return time(nullptr); }\n";
  const std::vector<Finding> findings = lint_file(cfg, "src/util/t.cpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LadLint, LayerRulesRejectUndeclaredDependency) {
  Config cfg;
  const std::string path =
      lad::test::golden_path("lint/bad_layers.txt");
  const std::string err = load_layer_rules(path, cfg);
  EXPECT_NE(err.find("undeclared layer"), std::string::npos) << err;
}

TEST(LadLint, RuleNamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names = rule_names();
  EXPECT_FALSE(names.empty());
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end());
}

}  // namespace
}  // namespace lad::lint
