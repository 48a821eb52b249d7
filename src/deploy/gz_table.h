// Section 3.3's table-lookup for g(z): "we precompute g(z), and store the
// values in a table ... divide the range of z into omega equal-size
// sub-ranges ... uses the interpolation ... takes only constant time."
//
// GzTable precomputes omega+1 points of gz_exact on [0, support_radius] and
// interpolates linearly.  Past the support radius g is numerically zero.
#pragma once

#include <memory>

#include "deploy/gz.h"
#include "geom/vec2.h"
#include "stats/interp.h"

namespace lad {

class GzTable {
 public:
  /// Default omega follows the paper's observation that "omega does not
  /// need to be very large"; 256 gives max abs error ~1e-5 for the paper's
  /// parameters (measured by
  /// `lad_cli run --scenario bench/scenarios/tab_gz_accuracy.scn`).
  explicit GzTable(const GzParams& params, int omega = 256);

  /// g at scalar distance z (constant-time lookup).
  double operator()(double z) const;

  /// g_i(theta): probability that a node of the group deployed at
  /// `deployment_point` lands in the radio neighborhood of `theta`.
  double at(Vec2 theta, Vec2 deployment_point) const;

  const GzParams& params() const { return params_; }
  int omega() const { return table_.omega(); }
  double support_radius() const { return table_.hi(); }

  /// Max absolute interpolation error vs the exact integral (for tests and
  /// the accuracy ablation).
  double max_abs_error(int probes = 2000) const;

 private:
  GzParams params_;
  InterpTable table_;
};

}  // namespace lad
