// lad_lint pass 2: the whole-tree include graph and the heuristic symbol
// index behind include-cycle / include-unused / include-transitive /
// dead-public, plus the --include-report depth/fan-in table.
//
// The index is token-level by design (same contract as lint_core: no
// compiler front end).  What the heuristics can see: namespace-scope
// classes/structs/unions/enums (definitions and forward declarations),
// enumerators, free function declarations, `using` aliases and typedefs,
// object-like and function-like macros, and `kName = ...` constants.
// What they cannot see: operator overloads (a header exporting only
// operators is exempt from include-unused), template specializations,
// symbols minted by macro expansion, and overload resolution — usage is
// matched by identifier, so any mention of an exported name counts.
// docs/STATIC_ANALYSIS.md documents the consequences.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint_core.h"

namespace lad::lint {

/// One namespace-scope symbol extracted from a project file.
struct Symbol {
  enum class Kind { kType, kFunction, kMacro, kAlias, kEnumerator, kConstant };
  std::string name;
  Kind kind = Kind::kType;
  int line = 0;
  // Types: definition (brace body seen) vs forward declaration.  Only
  // definitions and function/macro declarations are dead-public
  // candidates; forward declarations still satisfy include hygiene.
  bool definition = false;
  // Declared inside a detail/internal/anonymous namespace: exported for
  // usage matching but never a dead-public candidate.
  bool internal = false;
};

/// Extracts symbols from stripped code lines (ScannedFile::code order).
/// Exposed for the fixture tests; lint_index_tree drives it internally.
std::vector<Symbol> extract_symbols(const std::vector<std::string>& code);

/// One analyzed file in the tree pass.
struct IndexedFile {
  ScannedFile scan;
  std::vector<Symbol> symbols;        // what this file defines
  std::set<std::string> idents;       // every identifier referenced
  std::map<std::string, int> first_use;  // identifier -> first line
  // Resolved project includes: parallel to scan.includes, "" when the
  // include does not land on a scanned project file.
  std::vector<std::string> resolved;
};

/// The whole-tree analysis: files keyed by root-relative path.
struct TreeIndex {
  std::map<std::string, IndexedFile> files;
  // header -> names it exports (symbols of the header itself).
  std::map<std::string, std::set<std::string>> exports;
  // name -> headers defining it (definition sites only, src/tools
  // headers).
  std::map<std::string, std::vector<std::string>> def_sites;

  /// Builds the index from scanned files (contents already read).
  static TreeIndex build(const Config& cfg,
                         const std::map<std::string, std::string>& contents);

  /// Runs the four tree rules; findings honor the per-line allow map and
  /// IWYU pragmas.
  std::vector<Finding> run_rules() const;

  /// Human-readable depth/fan-in report over project headers.
  std::string include_report() const;

  /// Transitive project-include closure of one file (excluding itself
  /// unless it is part of a cycle).
  std::set<std::string> closure_of(const std::string& rel_path) const;
};

}  // namespace lad::lint
