// Minimum-mean-square-error multilateration.
//
// "Almost all of the range-based localization schemes and some range-free
// schemes eventually reduce localization to a Minimum Mean Square
// Estimation (MMSE) problem" (Section 6.3).  Given reference points a_i and
// distance estimates d_i, find p minimizing sum_i (|p - a_i| - d_i)^2.
//
// Implementation: the standard linearization (subtracting the last
// equation) solved by 2x2 normal equations, refined by a few Gauss-Newton
// iterations on the true nonlinear residual.
#pragma once

#include <optional>
#include <vector>

#include "geom/vec2.h"

namespace lad {

// lad-lint: allow(dead-public) -- the return type of mmse_multilaterate
struct MmseResult {
  Vec2 position;
  double residual_rms;  ///< sqrt(mean((|p-a_i| - d_i)^2)) at the solution
};

/// Requires at least 3 non-collinear references; returns nullopt when the
/// system is degenerate (fewer than 3 references or collinear geometry).
std::optional<MmseResult> mmse_multilaterate(
    const std::vector<Vec2>& references, const std::vector<double>& distances,
    int gauss_newton_iters = 8);

}  // namespace lad
