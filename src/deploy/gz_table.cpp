#include "deploy/gz_table.h"

#include "geom/vec2.h"
#include "util/assert.h"

namespace lad {

GzTable::GzTable(const GzParams& params, int omega, int threads)
    : params_(params),
      table_([&params](double z) { return gz_exact(z, params); }, 0.0,
             gz_support_radius(params), omega, threads) {
  LAD_REQUIRE_MSG(omega >= 8, "omega < 8 gives useless accuracy");
}

double GzTable::operator()(double z) const {
  if (z >= table_.hi()) return 0.0;
  return table_(z < 0 ? 0.0 : z);
}

double GzTable::at(Vec2 theta, Vec2 deployment_point) const {
  return (*this)(distance(theta, deployment_point));
}

double GzTable::max_abs_error(int probes, int threads) const {
  return table_.max_abs_error(
      [this](double z) { return gz_exact(z, params_); }, probes, threads);
}

}  // namespace lad
