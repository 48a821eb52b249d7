#include "geom/grid_index.h"

#include <algorithm>
#include <cmath>

#include "geom/aabb.h"
#include "geom/vec2.h"
#include "util/assert.h"

namespace lad {

GridIndex::GridIndex(const std::vector<Vec2>& points, const Aabb& bounds,
                     double cell_size)
    : bounds_(bounds), cell_size_(cell_size) {
  LAD_REQUIRE_MSG(cell_size > 0, "cell size must be positive");
  nx_ = std::max(1, static_cast<int>(std::ceil(bounds_.width() / cell_size_)));
  ny_ = std::max(1, static_cast<int>(std::ceil(bounds_.height() / cell_size_)));

  const std::size_t ncells = static_cast<std::size_t>(nx_) * ny_;
  // Stable counting sort of points into cells: within a cell, slots keep
  // ascending original index, so visitation order matches the historical
  // index-list layout exactly.  cell_start_ serves as histogram, running
  // scatter cursor, and final CSR offsets in turn — no separate counts /
  // cursor temporaries (the build path is deployment-cost-critical at
  // 10^5-10^6 nodes; see docs/PERFORMANCE.md).
  cell_start_.assign(ncells + 1, 0);
  std::vector<std::uint32_t> cell_of_point(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t c = cell_of(points[i]);
    cell_of_point[i] = static_cast<std::uint32_t>(c);
    ++cell_start_[c + 1];
  }
  for (std::size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  order_.resize(points.size());
  xs_.resize(points.size());
  ys_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint32_t k = cell_start_[cell_of_point[i]]++;
    order_[k] = static_cast<std::uint32_t>(i);
    xs_[k] = points[i].x;
    ys_[k] = points[i].y;
  }
  // The scatter advanced cell_start_[c] to end(c) == start(c+1); shift
  // right one slot to restore the starts.
  for (std::size_t c = ncells; c > 0; --c) cell_start_[c] = cell_start_[c - 1];
  cell_start_[0] = 0;
}

void GridIndex::cell_coords(Vec2 p, int& cx, int& cy) const {
  cx = static_cast<int>(std::floor((p.x - bounds_.lo.x) / cell_size_));
  cy = static_cast<int>(std::floor((p.y - bounds_.lo.y) / cell_size_));
  cx = std::clamp(cx, 0, nx_ - 1);
  cy = std::clamp(cy, 0, ny_ - 1);
}

std::size_t GridIndex::cell_of(Vec2 p) const {
  int cx, cy;
  cell_coords(p, cx, cy);
  return static_cast<std::size_t>(cy) * nx_ + cx;
}

std::vector<std::size_t> GridIndex::query(Vec2 p, double radius) const {
  std::vector<std::size_t> out;
  for_each_in_radius(p, radius, [&](std::size_t i) { out.push_back(i); });
  return out;
}

std::size_t GridIndex::count_in_radius(Vec2 p, double radius,
                                       std::size_t exclude) const {
  std::size_t n = 0;
  for_each_in_radius(p, radius, [&](std::size_t i) {
    if (i != exclude) ++n;
  });
  return n;
}

}  // namespace lad
