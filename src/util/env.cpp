#include "util/env.h"

#include <cerrno>
#include <cstdlib>

#include "util/assert.h"

namespace lad {

namespace {

// The one sanctioned getenv call site (lad_lint rule `raw-getenv`).
const char* env_raw(const char* name) { return std::getenv(name); }

}  // namespace

bool env_flag(const char* name) {
  const char* v = env_raw(name);
  return v != nullptr && *v != '\0';
}

std::string detail::env_string(const char* name, const std::string& fallback) {
  const char* v = env_raw(name);
  return v == nullptr || *v == '\0' ? fallback : std::string(v);
}

long env_int(const char* name, long fallback, long min, long max) {
  const char* v = env_raw(name);
  if (v == nullptr || *v == '\0') return fallback;
  errno = 0;
  char* rest = nullptr;
  const long parsed = std::strtol(v, &rest, 10);
  LAD_REQUIRE_MSG(errno == 0 && rest != v && *rest == '\0' && parsed >= min &&
                      parsed <= max,
                  "invalid " << name << " value '" << v
                             << "' (expected an integer in [" << min << ", "
                             << max << "])");
  return parsed;
}

}  // namespace lad
