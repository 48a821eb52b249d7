#include "lint_index.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <sstream>

#include "lint_core.h"

namespace lad::lint {

namespace {

namespace fs = std::filesystem;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header(const std::string& rel_path) {
  return ends_with(rel_path, ".h") || ends_with(rel_path, ".hpp") ||
         ends_with(rel_path, ".hh") || ends_with(rel_path, ".inl");
}

bool is_cmake_file(const std::string& rel_path) {
  return ends_with(rel_path, "CMakeLists.txt") || ends_with(rel_path, ".cmake");
}

std::string src_layer_of(const std::string& rel_path) {
  if (!starts_with(rel_path, "src/")) return "";
  const std::size_t slash = rel_path.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel_path.substr(4, slash - 4);
}

/// Filename without directory or extension: "src/deploy/network.h" ->
/// "network".  Used for the self-header exemption (foo.cpp includes
/// foo.h to pin its own interface, whether or not it names a symbol).
std::string stem_of(const std::string& rel_path) {
  return fs::path(rel_path).stem().generic_string();
}

// `observe_kernel_avx2.cpp` belongs to `observe_kernel.h`: a TU whose
// stem extends a header's stem at a `_` boundary (or vice versa) is part
// of the same header family, so the pair is exempt from the per-symbol
// include rules just like an exact self-header match.
bool associated_stems(const std::string& a, const std::string& b) {
  if (a == b) return true;
  const auto extends = [](const std::string& longer,
                          const std::string& shorter) {
    return longer.size() > shorter.size() + 1 &&
           longer.compare(0, shorter.size(), shorter) == 0 &&
           longer[shorter.size()] == '_';
  };
  return extends(a, b) || extends(b, a);
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident(const std::string& t) {
  return !t.empty() && !std::isdigit(static_cast<unsigned char>(t[0])) &&
         std::all_of(t.begin(), t.end(), is_ident_char);
}

const std::set<std::string>& cpp_keywords() {
  static const std::set<std::string> kw = {
      "alignas",  "alignof",  "auto",     "bool",      "break",    "case",
      "catch",    "char",     "class",    "concept",   "const",    "constexpr",
      "consteval","constinit","continue", "decltype",  "default",  "delete",
      "do",       "double",   "else",     "enum",      "explicit", "export",
      "extern",   "false",    "final",    "float",     "for",      "friend",
      "goto",     "if",       "inline",   "int",       "long",     "mutable",
      "namespace","new",      "noexcept", "nullptr",   "operator", "override",
      "private",  "protected","public",   "register",  "requires", "return",
      "short",    "signed",   "sizeof",   "static",    "static_assert",
      "struct",   "switch",   "template", "this",      "throw",    "true",
      "try",      "typedef",  "typeid",   "typename",  "union",    "unsigned",
      "using",    "virtual",  "void",     "volatile",  "wchar_t",  "while"};
  return kw;
}

struct Tok {
  std::string text;
  int line = 0;
};

/// Tokenizes stripped code into identifiers and the punctuation the
/// symbol scanner cares about ("::" is one token).  Preprocessor lines
/// (and their backslash continuations) are handled by the caller, so
/// they never reach this tokenizer's brace tracking.
void tokenize_line(const std::string& s, int line, std::vector<Tok>& out) {
  std::size_t i = 0;
  const std::size_t n = s.size();
  while (i < n) {
    const char c = s[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (is_ident_char(c)) {
      std::size_t j = i;
      while (j < n && is_ident_char(s[j])) ++j;
      out.push_back({s.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < n && s[i + 1] == ':') {
      out.push_back({"::", line});
      i += 2;
      continue;
    }
    out.push_back({std::string(1, c), line});
    ++i;
  }
}

struct Scope {
  char kind = 'x';  // 'n' namespace/extern, 't' type, 'e' enum, 'x' other
  bool internal = false;
};

/// True when every open scope is a namespace (or extern "C") block —
/// i.e. we are at namespace scope, where public declarations live.
bool at_ns_scope(const std::vector<Scope>& scopes) {
  return std::all_of(scopes.begin(), scopes.end(),
                     [](const Scope& s) { return s.kind == 'n'; });
}

bool enclosing_internal(const std::vector<Scope>& scopes) {
  return std::any_of(scopes.begin(), scopes.end(),
                     [](const Scope& s) { return s.internal; });
}

}  // namespace

std::vector<Symbol> extract_symbols(const std::vector<std::string>& code) {
  std::vector<Symbol> out;
  std::vector<Tok> toks;
  bool continuation = false;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const int line = static_cast<int>(i) + 1;
    const std::string& s = code[i];
    std::size_t b = 0;
    while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    const bool backslash_tail = !s.empty() && s.back() == '\\';
    if (continuation) {
      continuation = backslash_tail;
      continue;
    }
    if (b < s.size() && s[b] == '#') {
      // Preprocessor: only #define mints a symbol; bodies (which may
      // contain unbalanced braces) must not reach the scope tracker.
      std::istringstream dir(s.substr(b + 1));
      std::string word;
      dir >> word;
      if (word == "define") {
        std::string name;
        dir >> name;
        const std::size_t paren = name.find('(');
        if (paren != std::string::npos) name.erase(paren);
        if (is_ident(name) && !ends_with(name, "_H") &&
            !ends_with(name, "_H_")) {  // skip include guards
          out.push_back({name, Symbol::Kind::kMacro, line, true, false});
        }
      }
      continuation = backslash_tail;
      continue;
    }
    tokenize_line(s, line, toks);
  }

  std::vector<Scope> scopes;
  // Statement context: identifier/keyword tokens at paren depth 0 and
  // angle depth 0, up to the first '=' of the statement.
  std::vector<Tok> ctx;
  int paren_depth = 0;
  int angle_depth = 0;
  int bracket_depth = 0;
  bool saw_eq = false;
  char enum_prev = '{';  // inside an enum: previous separator token

  const auto ns_internal = [&](const std::string& name) {
    return name.empty() || name == "detail" || name == "internal" ||
           name == "impl";
  };

  const auto find_kw = [&](std::initializer_list<const char*> kws) {
    for (std::size_t k = 0; k < ctx.size(); ++k) {
      for (const char* kw : kws) {
        if (ctx[k].text == kw) return static_cast<int>(k);
      }
    }
    return -1;
  };

  // The identifier following ctx[from], skipping specifier noise.
  const auto name_after = [&](int from, Tok& name) {
    static const std::set<std::string> skip = {"class", "struct", "alignas",
                                              "final", "inline"};
    for (std::size_t k = static_cast<std::size_t>(from) + 1; k < ctx.size();
         ++k) {
      const std::string& t = ctx[k].text;
      if (skip.count(t) != 0) continue;
      if (!is_ident(t)) return false;
      name = ctx[k];
      return true;
    }
    return false;
  };

  const auto reset_stmt = [&] {
    ctx.clear();
    saw_eq = false;
    angle_depth = 0;
  };

  for (std::size_t ti = 0; ti < toks.size(); ++ti) {
    const Tok& tok = toks[ti];
    const std::string& t = tok.text;

    if (t == "(") {
      if (paren_depth == 0 && !saw_eq && at_ns_scope(scopes) &&
          angle_depth == 0 && ctx.size() >= 2 && find_kw({"operator"}) < 0 &&
          find_kw({"using", "typedef", "namespace", "class", "struct",
                   "union", "enum", "friend"}) < 0) {
        const Tok& prev = ctx.back();
        const Tok& before = ctx[ctx.size() - 2];
        if (is_ident(prev.text) && cpp_keywords().count(prev.text) == 0 &&
            before.text != "::") {
          out.push_back({prev.text, Symbol::Kind::kFunction, prev.line, true,
                         enclosing_internal(scopes)});
        }
      }
      ++paren_depth;
      continue;
    }
    if (t == ")") {
      if (paren_depth > 0) --paren_depth;
      continue;
    }
    if (paren_depth > 0) continue;
    if (t == "[") {
      ++bracket_depth;
      continue;
    }
    if (t == "]") {
      if (bracket_depth > 0) --bracket_depth;
      continue;
    }
    if (bracket_depth > 0) continue;

    if (t == "{") {
      Scope sc;
      if (!scopes.empty() && scopes.back().kind == 'e') {
        // Nested brace inside an enum body cannot happen; defensive.
        sc.kind = 'x';
      } else if (find_kw({"namespace"}) >= 0) {
        sc.kind = 'n';
        Tok name;
        const bool named = name_after(find_kw({"namespace"}), name);
        sc.internal = enclosing_internal(scopes) ||
                      !named || ns_internal(name.text);
      } else if (find_kw({"enum"}) >= 0) {
        sc.kind = 'e';
        enum_prev = '{';
        Tok name;
        if (at_ns_scope(scopes) && name_after(find_kw({"enum"}), name)) {
          out.push_back({name.text, Symbol::Kind::kType, name.line, true,
                         enclosing_internal(scopes)});
        }
      } else if (find_kw({"class", "struct", "union"}) >= 0 && !saw_eq) {
        sc.kind = 't';
        Tok name;
        if (at_ns_scope(scopes) &&
            name_after(find_kw({"class", "struct", "union"}), name)) {
          out.push_back({name.text, Symbol::Kind::kType, name.line, true,
                         enclosing_internal(scopes)});
        }
      } else if (find_kw({"extern"}) >= 0 && ctx.size() <= 2) {
        sc.kind = 'n';  // extern "C" { ... }
        sc.internal = enclosing_internal(scopes);
      } else {
        sc.kind = 'x';
      }
      scopes.push_back(sc);
      reset_stmt();
      continue;
    }
    if (t == "}") {
      if (!scopes.empty()) scopes.pop_back();
      reset_stmt();
      continue;
    }
    if (t == ";") {
      // Forward declarations and typedefs complete at the semicolon.
      if (!saw_eq && at_ns_scope(scopes)) {
        const int kw = find_kw({"class", "struct", "union", "enum"});
        if (kw >= 0 && find_kw({"typedef", "using", "friend", "template"}) < 0) {
          Tok name;
          if (name_after(kw, name)) {
            out.push_back({name.text, Symbol::Kind::kType, name.line, false,
                           enclosing_internal(scopes)});
          }
        } else if (!ctx.empty() && ctx[0].text == "typedef") {
          for (std::size_t k = ctx.size(); k-- > 1;) {
            if (is_ident(ctx[k].text) &&
                cpp_keywords().count(ctx[k].text) == 0) {
              out.push_back({ctx[k].text, Symbol::Kind::kAlias, ctx[k].line,
                             true, enclosing_internal(scopes)});
              break;
            }
          }
        }
      }
      reset_stmt();
      continue;
    }
    if (t == "=") {
      if (!saw_eq && paren_depth == 0 && angle_depth == 0 &&
          at_ns_scope(scopes) && !ctx.empty()) {
        if (ctx[0].text == "using" && ctx.size() >= 2 &&
            is_ident(ctx[1].text) && ctx[1].text != "namespace") {
          out.push_back({ctx[1].text, Symbol::Kind::kAlias, ctx[1].line, true,
                         enclosing_internal(scopes)});
        } else if (ctx.size() >= 2 && is_ident(ctx.back().text) &&
                   cpp_keywords().count(ctx.back().text) == 0 &&
                   find_kw({"class", "struct", "union", "enum", "template",
                            "typedef"}) < 0) {
          out.push_back({ctx.back().text, Symbol::Kind::kConstant,
                         ctx.back().line, true, enclosing_internal(scopes)});
        }
      }
      saw_eq = true;
      continue;
    }

    // Enumerators: identifiers in an enum body right after '{' or ','.
    if (!scopes.empty() && scopes.back().kind == 'e') {
      if (t == ",") {
        enum_prev = ',';
      } else if (is_ident(t) && (enum_prev == '{' || enum_prev == ',')) {
        const bool ns_enum =
            at_ns_scope(std::vector<Scope>(scopes.begin(), scopes.end() - 1));
        if (ns_enum) {
          out.push_back({t, Symbol::Kind::kEnumerator, tok.line, true,
                         enclosing_internal(scopes)});
        }
        enum_prev = 'i';
      } else {
        enum_prev = 'o';
      }
      continue;
    }

    if (saw_eq) continue;
    if (t == "<") {
      if (!ctx.empty() &&
          (is_ident(ctx.back().text) || ctx.back().text == "template")) {
        ++angle_depth;
      }
      continue;
    }
    if (t == ">") {
      if (angle_depth > 0) --angle_depth;
      continue;
    }
    if (angle_depth > 0) continue;
    if (t == "operator") {
      // Sentinel: the header exports something usage cannot be matched
      // to by name (see lint_index.h).
      if (at_ns_scope(scopes)) {
        out.push_back({"operator", Symbol::Kind::kFunction, tok.line, true,
                       enclosing_internal(scopes)});
      }
      ctx.push_back(tok);
      continue;
    }
    if (is_ident(t) || t == "::" || t == ":") {
      ctx.push_back(tok);
    }
  }
  return out;
}

namespace {

/// Resolves one quoted include against the scanned file set: relative to
/// the including file first (the tools/ and in-layer style), then against
/// the project include roots (src/, tests/, tools/, bench/).
std::string resolve_include(const std::set<std::string>& all,
                            const std::string& includer,
                            const std::string& inc) {
  std::vector<std::string> candidates;
  const fs::path dir = fs::path(includer).parent_path();
  candidates.push_back((dir / inc).lexically_normal().generic_string());
  for (const char* base : {"src/", "tests/", "tools/", "bench/"}) {
    candidates.push_back(
        (fs::path(base) / inc).lexically_normal().generic_string());
  }
  candidates.push_back(fs::path(inc).lexically_normal().generic_string());
  for (const std::string& c : candidates) {
    if (all.count(c) != 0) return c;
  }
  return "";
}

const std::set<std::string> kNoAllows;

const std::set<std::string>& allows_on(const ScannedFile& scan, int line) {
  const auto it = scan.allows.find(line);
  return it == scan.allows.end() ? kNoAllows : it->second;
}

}  // namespace

TreeIndex TreeIndex::build([[maybe_unused]] const Config& cfg,
                           const std::map<std::string, std::string>& contents) {
  TreeIndex index;
  std::set<std::string> names;
  for (const auto& [rel, content] : contents) {
    if (is_cmake_file(rel)) continue;
    names.insert(rel);
  }
  for (const auto& [rel, content] : contents) {
    if (is_cmake_file(rel)) continue;
    IndexedFile f;
    f.scan = scan_file(rel, content, /*cmake=*/false);
    f.symbols = extract_symbols(f.scan.code);

    std::set<int> include_lines;
    for (const IncludeDirective& inc : f.scan.includes) {
      include_lines.insert(inc.line);
      f.resolved.push_back(resolve_include(names, rel, inc.path));
    }
    for (std::size_t i = 0; i < f.scan.code.size(); ++i) {
      const int line = static_cast<int>(i) + 1;
      if (include_lines.count(line) != 0) continue;
      std::vector<Tok> toks;
      tokenize_line(f.scan.code[i], line, toks);
      for (const Tok& t : toks) {
        if (!is_ident(t.text)) continue;
        f.idents.insert(t.text);
        f.first_use.emplace(t.text, line);
      }
    }

    if (is_header(rel)) {
      auto& ex = index.exports[rel];
      for (const Symbol& s : f.symbols) {
        ex.insert(s.name);
        const bool def_site = s.name != "operator" &&
                              (s.definition || s.kind == Symbol::Kind::kFunction);
        if (def_site) {
          auto& sites = index.def_sites[s.name];
          if (std::find(sites.begin(), sites.end(), rel) == sites.end()) {
            sites.push_back(rel);
          }
        }
      }
    }
    index.files.emplace(rel, std::move(f));
  }

  // An `IWYU pragma: export` include makes the including header a
  // legitimate provider of the target's names (the umbrella-header
  // contract): absorb the target's exports, to a fixpoint so umbrellas
  // can nest.  Definition sites deliberately stay at the true definer —
  // only `exports` (what a direct include satisfies) widens.
  bool absorbed = true;
  while (absorbed) {
    absorbed = false;
    for (auto& [rel, ex] : index.exports) {
      const IndexedFile& f = index.files.at(rel);
      for (std::size_t i = 0; i < f.scan.includes.size(); ++i) {
        if (!f.scan.includes[i].iwyu_export) continue;
        const std::string& target = f.resolved[i];
        if (target.empty() || target == rel) continue;
        const auto it = index.exports.find(target);
        if (it == index.exports.end()) continue;
        for (const std::string& name : it->second) {
          if (ex.insert(name).second) absorbed = true;
        }
      }
    }
  }
  return index;
}

std::set<std::string> TreeIndex::closure_of(const std::string& rel_path) const {
  std::set<std::string> seen;
  std::vector<std::string> stack;
  const auto push_includes = [&](const std::string& rel) {
    const auto it = files.find(rel);
    if (it == files.end()) return;
    for (const std::string& r : it->second.resolved) {
      if (!r.empty() && seen.insert(r).second) stack.push_back(r);
    }
  };
  push_includes(rel_path);
  while (!stack.empty()) {
    const std::string cur = stack.back();
    stack.pop_back();
    push_includes(cur);
  }
  return seen;
}

std::vector<Finding> TreeIndex::run_rules() const {
  std::vector<Finding> out;

  // --- include-cycle ----------------------------------------------------
  {
    std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
    std::vector<std::string> path;     // current DFS chain
    struct Frame {
      std::string file;
      std::size_t next = 0;
    };
    for (const auto& [start, unused_file] : files) {
      if (color[start] != 0) continue;
      std::vector<Frame> stack;
      stack.push_back({start, 0});
      color[start] = 1;
      path.push_back(start);
      while (!stack.empty()) {
        Frame& fr = stack.back();
        const IndexedFile& f = files.at(fr.file);
        if (fr.next >= f.resolved.size()) {
          color[fr.file] = 2;
          path.pop_back();
          stack.pop_back();
          continue;
        }
        const std::size_t i = fr.next++;
        const std::string& target = f.resolved[i];
        if (target.empty()) continue;
        if (color[target] == 1) {
          // Back edge: the chain from `target` around to here is a cycle.
          const IncludeDirective& inc = f.scan.includes[i];
          if (allows_on(f.scan, inc.line).count("include-cycle") != 0) continue;
          std::string chain = target;
          const auto from = std::find(path.begin(), path.end(), target);
          for (auto it = from + 1; it != path.end(); ++it) chain += " -> " + *it;
          chain += " -> " + target;
          out.push_back({fr.file, inc.line, "include-cycle",
                         "include cycle: " + chain});
          continue;
        }
        if (color[target] == 0) {
          color[target] = 1;
          path.push_back(target);
          stack.push_back({target, 0});
        }
      }
    }
  }

  // --- include-unused ---------------------------------------------------
  for (const auto& [rel, f] : files) {
    for (std::size_t i = 0; i < f.resolved.size(); ++i) {
      const std::string& target = f.resolved[i];
      const IncludeDirective& inc = f.scan.includes[i];
      if (target.empty() || target == rel) continue;
      if (inc.iwyu_keep || inc.iwyu_export) continue;
      if (allows_on(f.scan, inc.line).count("include-unused") != 0) continue;
      if (associated_stems(stem_of(target), stem_of(rel))) continue;
      const auto ex = exports.find(target);
      // No visible exports (or only operator overloads): cannot judge.
      if (ex == exports.end() || ex->second.empty()) continue;
      bool judgeable = false;
      bool used = false;
      for (const std::string& name : ex->second) {
        if (name == "operator") continue;
        judgeable = true;
        if (f.idents.count(name) != 0) {
          used = true;
          break;
        }
      }
      if (!judgeable || used) continue;
      out.push_back(
          {rel, inc.line, "include-unused",
           "\"" + inc.path + "\" is included but none of its " +
               std::to_string(ex->second.size()) +
               " exported symbols are referenced here; drop the include "
               "(or annotate `// IWYU pragma: keep` if it is re-exported "
               "or needed for side effects)"});
    }
  }

  // --- include-transitive -----------------------------------------------
  for (const auto& [rel, f] : files) {
    std::set<std::string> direct;
    for (const std::string& r : f.resolved) {
      if (!r.empty()) direct.insert(r);
    }
    const std::set<std::string> closure = closure_of(rel);
    std::set<std::string> own;
    for (const Symbol& s : f.symbols) own.insert(s.name);

    // One finding per missing header, anchored at the earliest use.
    std::map<std::string, std::pair<int, std::string>> missing;  // hdr -> (line, sym)
    for (const auto& [name, first_line] : f.first_use) {
      if (own.count(name) != 0) continue;
      const auto ds = def_sites.find(name);
      if (ds == def_sites.end() || ds->second.size() != 1) continue;
      const std::string& hdr = ds->second.front();
      if (hdr == rel || direct.count(hdr) != 0) continue;
      if (closure.count(hdr) == 0) continue;
      if (associated_stems(stem_of(hdr), stem_of(rel))) continue;
      // A direct include that exports the name (e.g. a forward
      // declaration or an umbrella header) satisfies the use.
      bool satisfied = false;
      for (const std::string& d : direct) {
        const auto ex = exports.find(d);
        if (ex != exports.end() && ex->second.count(name) != 0) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      if (allows_on(f.scan, first_line).count("include-transitive") != 0) {
        continue;
      }
      const auto it = missing.find(hdr);
      if (it == missing.end() || first_line < it->second.first) {
        missing[hdr] = {first_line, name};
      }
    }
    for (const auto& [hdr, use] : missing) {
      out.push_back({rel, use.first, "include-transitive",
                     "uses `" + use.second + "` from \"" + hdr +
                         "\", which only arrives transitively; include it "
                         "directly so refactors of intermediate headers "
                         "cannot break this TU"});
    }
  }

  // --- dead-public --------------------------------------------------------
  for (const auto& [rel, f] : files) {
    const std::string layer = src_layer_of(rel);
    if (layer.empty() || !is_header(rel)) continue;
    const std::string layer_dir = "src/" + layer + "/";
    for (const Symbol& s : f.symbols) {
      if (s.internal || s.name == "operator") continue;
      const bool candidate =
          (s.kind == Symbol::Kind::kType && s.definition) ||
          s.kind == Symbol::Kind::kFunction || s.kind == Symbol::Kind::kMacro;
      if (!candidate) continue;
      if (allows_on(f.scan, s.line).count("dead-public") != 0) continue;
      bool alive = false;
      for (const auto& [other_rel, other] : files) {
        if (other_rel == rel || starts_with(other_rel, layer_dir)) continue;
        if (other.idents.count(s.name) != 0) {
          alive = true;
          break;
        }
      }
      if (alive) continue;
      out.push_back({rel, s.line, "dead-public",
                     "public symbol `" + s.name +
                         "` is referenced by no TU outside " + layer_dir +
                         " and no test; remove it, or justify it with "
                         "`// lad-lint: allow(dead-public) -- why`"});
    }
  }

  return out;
}

std::string TreeIndex::include_report() const {
  struct Row {
    std::string header;
    int fan_in = 0;        // direct includers
    int transitive = 0;    // files whose closure contains it
    int depth = 0;         // height of its own include subtree
  };
  std::map<std::string, Row> rows;
  for (const auto& [rel, f] : files) {
    if (!is_header(rel)) continue;
    rows[rel].header = rel;
  }
  for (const auto& [rel, f] : files) {
    std::set<std::string> direct;
    for (const std::string& r : f.resolved) {
      if (!r.empty()) direct.insert(r);
    }
    for (const std::string& d : direct) {
      const auto it = rows.find(d);
      if (it != rows.end()) ++it->second.fan_in;
    }
    for (const std::string& c : closure_of(rel)) {
      if (c == rel) continue;
      const auto it = rows.find(c);
      if (it != rows.end()) ++it->second.transitive;
    }
  }
  // Depth via memoized DFS; cycles (already reported) are cut at repeat.
  std::map<std::string, int> depth_memo;
  const std::function<int(const std::string&, std::set<std::string>&)> depth =
      [&](const std::string& rel, std::set<std::string>& on_path) -> int {
    const auto memo = depth_memo.find(rel);
    if (memo != depth_memo.end()) return memo->second;
    if (!on_path.insert(rel).second) return 0;
    int best = 0;
    const auto it = files.find(rel);
    if (it != files.end()) {
      for (const std::string& r : it->second.resolved) {
        if (!r.empty()) best = std::max(best, 1 + depth(r, on_path));
      }
    }
    on_path.erase(rel);
    depth_memo[rel] = best;
    return best;
  };
  std::vector<Row> sorted;
  for (auto& [rel, row] : rows) {
    std::set<std::string> on_path;
    row.depth = depth(rel, on_path);
    sorted.push_back(row);
  }
  std::sort(sorted.begin(), sorted.end(), [](const Row& a, const Row& b) {
    return std::tie(b.transitive, b.fan_in, a.header) <
           std::tie(a.transitive, a.fan_in, b.header);
  });

  std::ostringstream os;
  os << "include graph: " << files.size() << " files, " << sorted.size()
     << " headers\n";
  os << std::left << std::setw(44) << "header" << std::right << std::setw(10)
     << "fan-in" << std::setw(14) << "transitive" << std::setw(8) << "depth"
     << "\n";
  for (const Row& r : sorted) {
    os << std::left << std::setw(44) << r.header << std::right << std::setw(10)
       << r.fan_in << std::setw(14) << r.transitive << std::setw(8) << r.depth
       << "\n";
  }
  return os.str();
}

}  // namespace lad::lint
