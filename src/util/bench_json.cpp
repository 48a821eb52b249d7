#include "util/bench_json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#if !defined(_WIN32)
#include <sys/utsname.h>
#endif

#include "util/assert.h"
#include "util/env.h"
#include "util/string_util.h"

namespace lad {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  // Fixed one-decimal form: enough resolution for ns/op while keeping
  // checked-in artifacts diff-friendly run to run.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string run_git_rev() {
  const std::string env = detail::env_string("LAD_GIT_REV");
  if (!env.empty()) return env;
#if !defined(_WIN32)
  if (FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[128];
    std::string out;
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    const int rc = pclose(pipe);
    out = std::string(trim(out));
    if (rc == 0 && !out.empty()) return out;
  }
#endif
  return "unknown";
}

std::string host_description() {
  std::ostringstream os;
#if !defined(_WIN32)
  utsname u{};
  if (uname(&u) == 0) {
    os << u.sysname << " " << u.release << " " << u.machine << " / ";
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  os << (hw == 0 ? 1 : hw) << " core(s)";
  return os.str();
}

std::string utc_date() {
  // lad-lint: allow(ban-time) -- the date stamps BENCH_*.json metadata;
  // it never feeds simulation output, which stays replayable.
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[16];
  std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm);
  return buf;
}

// --- Minimal JSON reader for the validator -------------------------------
//
// Full JSON values (objects, arrays, strings with escapes, numbers,
// true/false/null) — small enough to audit, strict enough that a
// truncated or hand-mangled artifact is a parse error, not a shrug.

struct JsonValue {
  enum class Kind { Object, Array, String, Number, Bool, Null };
  Kind kind = Kind::Null;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0;
  bool boolean = false;
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  /// Parses the whole document; on failure `error` describes the problem.
  bool parse(JsonValue& out, std::string& error) {
    try {
      skip_ws();
      out = parse_value();
      skip_ws();
      if (pos_ != text_.size()) fail("trailing characters after document");
      return true;
    } catch (const std::runtime_error& e) {
      error = e.what();
      return false;
    }
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + what);
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::String;
      v.string = parse_string();
      return v;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return parse_number();
    }
    JsonValue v;
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::Bool;
      v.boolean = true;
    } else if (consume_literal("false")) {
      v.kind = JsonValue::Kind::Bool;
      v.boolean = false;
    } else if (consume_literal("null")) {
      v.kind = JsonValue::Kind::Null;
    } else {
      fail("unexpected character");
    }
    return v;
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (!v.object.emplace(std::move(key), parse_value()).second) {
        fail("duplicate object key");
      }
      skip_ws();
      const char sep = next();
      if (sep == '}') return v;
      if (sep != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char sep = next();
      if (sep == ']') return v;
      if (sep != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
        out += c;
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Validation only: preserve as '?' placeholders, the schema
          // checker never compares escaped content.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string tok = text_.substr(start, pos_ - start);
    char* rest = nullptr;
    const double num = std::strtod(tok.c_str(), &rest);
    if (rest == tok.c_str() || *rest != '\0' || !std::isfinite(num)) {
      fail("malformed number '" + tok + "'");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = num;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

const JsonValue* find_key(const JsonValue& obj, const std::string& key) {
  const auto it = obj.object.find(key);
  return it == obj.object.end() ? nullptr : &it->second;
}

/// Checks one required key; returns "" or the problem.
std::string require_kind(const JsonValue& obj, const std::string& key,
                         JsonValue::Kind kind, const std::string& where) {
  const JsonValue* v = find_key(obj, key);
  if (v == nullptr) return where + ": missing required key \"" + key + "\"";
  if (v->kind != kind) return where + ": key \"" + key + "\" has wrong type";
  if (kind == JsonValue::Kind::String && v->string.empty()) {
    return where + ": key \"" + key + "\" must be a non-empty string";
  }
  return "";
}

std::string require_count(const JsonValue& obj, const std::string& key,
                          double min, const std::string& where) {
  if (std::string err = require_kind(obj, key, JsonValue::Kind::Number, where);
      !err.empty()) {
    return err;
  }
  const double num = find_key(obj, key)->number;
  if (num < min || num != std::floor(num)) {
    return where + ": key \"" + key + "\" must be an integer >= " +
           format_double(min);
  }
  return "";
}

}  // namespace

void fill_bench_environment(BenchReport& report) {
  report.git_rev = run_git_rev();
  report.host = host_description();
  report.date = utc_date();
}

std::string bench_json(const BenchReport& report) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"lad-bench-1\",\n";
  os << "  \"name\": \"" << json_escape(report.name) << "\",\n";
  os << "  \"threads\": " << report.threads << ",\n";
  os << "  \"git_rev\": \"" << json_escape(report.git_rev) << "\",\n";
  os << "  \"host\": \"" << json_escape(report.host) << "\",\n";
  os << "  \"date\": \"" << json_escape(report.date) << "\",\n";
  os << "  \"results\": [";
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const BenchResult& r = report.results[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"name\": \"" << json_escape(r.name) << "\", \"nodes\": "
       << r.nodes << ", \"ns_per_op\": " << format_double(r.ns_per_op)
       << ", \"ops\": " << r.ops << "}";
  }
  os << (report.results.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

void prepare_bench_out_dir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  LAD_REQUIRE_MSG(!ec, "cannot create output directory '" << dir << "': "
                                                          << ec.message());
}

std::string write_bench_json(const BenchReport& report,
                             const std::string& dir) {
  LAD_REQUIRE_MSG(!report.name.empty(), "bench report has no name");
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "BENCH_" + report.name + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  LAD_REQUIRE_MSG(out.good(), "cannot open '" << path << "' for writing");
  out << bench_json(report);
  out.flush();
  LAD_REQUIRE_MSG(out.good(), "failed writing '" << path << "'");
  return path;
}

std::string validate_bench_json(const std::string& text) {
  JsonValue doc;
  std::string error;
  if (!JsonReader(text).parse(doc, error)) return error;
  if (doc.kind != JsonValue::Kind::Object) return "document is not an object";

  const JsonValue* schema = find_key(doc, "schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::String) {
    return "missing \"schema\" string";
  }
  if (schema->string != "lad-bench-1") {
    return "unsupported schema \"" + schema->string + "\"";
  }
  for (const char* key : {"name", "git_rev", "host"}) {
    if (std::string err =
            require_kind(doc, key, JsonValue::Kind::String, "document");
        !err.empty()) {
      return err;
    }
  }
  if (std::string err = require_count(doc, "threads", 1, "document");
      !err.empty()) {
    return err;
  }
  if (std::string err =
          require_kind(doc, "results", JsonValue::Kind::Array, "document");
      !err.empty()) {
    return err;
  }
  const JsonValue& results = *find_key(doc, "results");
  for (std::size_t i = 0; i < results.array.size(); ++i) {
    const JsonValue& row = results.array[i];
    const std::string where = "results[" + std::to_string(i) + "]";
    if (row.kind != JsonValue::Kind::Object) return where + ": not an object";
    if (std::string err =
            require_kind(row, "name", JsonValue::Kind::String, where);
        !err.empty()) {
      return err;
    }
    for (const char* key : {"nodes", "ops"}) {
      if (std::string err = require_count(row, key, 0, where); !err.empty()) {
        return err;
      }
    }
    if (std::string err =
            require_kind(row, "ns_per_op", JsonValue::Kind::Number, where);
        !err.empty()) {
      return err;
    }
    if (find_key(row, "ns_per_op")->number < 0) {
      return where + ": key \"ns_per_op\" must be >= 0";
    }
  }
  return "";
}

}  // namespace lad
