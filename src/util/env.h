// Centralized environment-variable access with named validation errors.
//
// Every LAD_* knob goes through these helpers instead of raw getenv:
// a mistyped value must be a loud, named error, never a silent fallback
// (a garbled LAD_THREADS=1e9 quietly using all cores would defeat the
// reproducibility pin the variable exists for).  lad_lint bans raw
// getenv outside util/env.cpp (rule `raw-getenv`) so new knobs cannot
// bypass the validation.
#pragma once

#include <string>

namespace lad {

/// True when `name` is set to a non-empty value.  The convention for
/// boolean knobs (LAD_NO_AVX2, LAD_REGOLD): any non-empty value enables,
/// unset or empty disables.
bool env_flag(const char* name);

namespace detail {

/// The value of `name`, or `fallback` when unset or empty.
std::string env_string(const char* name, const std::string& fallback = "");

}  // namespace detail

/// Integer knob: returns `fallback` when `name` is unset or empty;
/// otherwise the value must parse as an integer in [min, max] or the
/// call fails with a named error (lad::AssertionError) quoting the
/// variable, the offending text, and the accepted range.
long env_int(const char* name, long fallback, long min, long max);

}  // namespace lad
