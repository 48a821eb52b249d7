#include "trace.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "measure.h"

namespace lad::bench {

std::int64_t covered_ns(std::vector<Interval> intervals, std::int64_t lo,
                        std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t reach = lo;  // everything before `reach` is already counted
  for (const auto& [a, b] : intervals) {
    const std::int64_t from = std::max(a, reach);
    const std::int64_t to = std::min(b, hi);
    if (to > from) {
      total += to - from;
      reach = to;
    }
  }
  return total;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                 s.end_ns);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t covered = covered_ns(children[i], s.start_ns, s.end_ns);
    out[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = current_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

void Tracer::add(const std::string& counter, double value) {
  if (!enabled_) return;
  for (auto& [name, v] : counters_) {
    if (name == counter) {
      v += value;
      return;
    }
  }
  counters_.emplace_back(counter, value);
}

double Tracer::counter(const std::string& name) const {
  for (const auto& [n, v] : counters_) {
    if (n == name) return v;
  }
  return 0.0;
}

long long Tracer::calls(const char* name) const {
  long long n = 0;
  for (const Span& s : spans_) n += std::strcmp(s.name, name) == 0 ? 1 : 0;
  return n;
}

double Tracer::total_seconds(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += s.seconds();
  }
  return total;
}

std::vector<double> Tracer::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.seconds());
  }
  return out;
}

double Tracer::layer_busy_seconds() const {
  std::vector<Interval> busy;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  for (const Span& s : spans_) {
    if (std::strncmp(s.name, "sim.", 4) == 0) continue;
    if (busy.empty() || s.start_ns < lo) lo = s.start_ns;
    hi = std::max(hi, s.end_ns);
    busy.emplace_back(s.start_ns, s.end_ns);
  }
  return static_cast<double>(covered_ns(std::move(busy), lo, hi)) * 1e-9;
}

std::string Tracer::to_json(const std::string& provenance_json) const {
  std::ostringstream os;
  os << "{\"provenance\": " << provenance_json << ",\n \"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    os << (i ? ", " : "") << '"' << counters_[i].first
       << "\": " << format_number(counters_[i].second);
  }
  os << "},\n \"summary\": {";
  // Per span name: calls, total (inclusive) seconds and self seconds.
  const std::vector<double> self = self_seconds(spans_);
  std::vector<std::string> names;
  for (const Span& s : spans_) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.emplace_back(s.name);
    }
  }
  for (std::size_t n = 0; n < names.size(); ++n) {
    double self_total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (names[n] == spans_[i].name) self_total += self[i];
    }
    os << (n ? ",\n  " : "\n  ") << '"' << names[n] << "\": {\"calls\": "
       << calls(names[n].c_str()) << ", \"total_s\": "
       << format_number(total_seconds(names[n].c_str()))
       << ", \"self_s\": " << format_number(self_total) << "}";
  }
  os << "},\n \"span_fields\": [\"name\", \"parent\", \"start_ns\", \"end_ns\"],"
        "\n \"spans\": [";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n  " : "\n  ") << "[\"" << s.name << "\", " << s.parent
       << ", " << s.start_ns - origin << ", " << s.end_ns - origin << "]";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace lad::bench
