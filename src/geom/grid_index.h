// Uniform-grid spatial index over 2-D points, cell-sorted into a
// structure-of-arrays layout.
//
// Neighbor queries (all points within radius r of a query point) are the
// innermost operation of every simulated deployment: a 30k-node network
// computes one observation per sampled sensor, each a radius query.  The
// grid makes that O(points in the 3x3 cell neighborhood); the SoA layout
// makes the per-cell scan a contiguous read of (x, y) rows instead of an
// index indirection per candidate, and the templated visitor lets the
// distance test + callback inline into one tight loop.
//
// Layout: points are permuted into cell order at build time ("slots").
// Slot k holds xs_[k]/ys_[k]; order_[k] maps the slot back to the
// caller's original point index.  cell_start_ is the usual CSR offsets
// array, so cell c owns slots [cell_start_[c], cell_start_[c+1]).  The
// permutation is stable (counting sort), so visitation order is identical
// to the historical index-list layout — callers relying on deterministic
// enumeration order are unaffected.  See docs/PERFORMANCE.md.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geom/aabb.h"
#include "geom/vec2.h"
#include "util/assert.h"

namespace lad {

class GridIndex {
 public:
  /// Builds an index over `points` covering `bounds` with cells of size
  /// `cell_size` (typically the radio range).  Points outside the bounds are
  /// clamped into the border cells, so queries remain correct for them.
  GridIndex(const std::vector<Vec2>& points, const Aabb& bounds,
            double cell_size);

  /// Build overload that additionally permutes per-point payload columns
  /// (group ids, transmit ranges, ...) into cell order, in place, so
  /// slot-level queries can read them contiguously alongside xs()/ys().
  /// Each column must have exactly points.size() entries.
  template <class... Cols>
  GridIndex(const std::vector<Vec2>& points, const Aabb& bounds,
            double cell_size, std::vector<Cols>&... columns)
      : GridIndex(points, bounds, cell_size) {
    (permute_in_place(columns), ...);
  }

  std::size_t size() const { return order_.size(); }

  /// Calls fn(index) for every point with distance(p, point) <= radius,
  /// where `index` is the point's position in the build-time vector.
  /// The query point itself is included if it is in the index; callers that
  /// want "neighbors of node i" should skip i in the callback.  The visitor
  /// is a template parameter so the distance test and callback fuse into
  /// one inlined loop.
  template <class Visitor>
  void for_each_in_radius(Vec2 p, double radius, Visitor&& fn) const {
    for_each_slot_in_radius(p, radius,
                            [&](std::uint32_t slot, double /*dist2*/) {
                              fn(static_cast<std::size_t>(order_[slot]));
                            });
  }

  /// Slot-level visitation for batched kernels: calls fn(slot, dist2) for
  /// every slot whose point lies within `radius` of p.  `slot` indexes the
  /// cell-ordered rows — xs()/ys(), permutation(), and any payload column
  /// permuted by the build overload — and `dist2` is the already-computed
  /// squared distance, so hot paths never recompute it.
  template <class SlotVisitor>
  void for_each_slot_in_radius(Vec2 p, double radius, SlotVisitor&& fn) const {
    for_each_slot_in_disk2(p, radius, radius * radius,
                           static_cast<SlotVisitor&&>(fn));
  }

  /// Lowest-level scan, for callers whose acceptance threshold is an exact
  /// squared distance rather than radius*radius (e.g. the network's
  /// audibility filter): visits the cells covering the disk of
  /// `cover_radius` around p and calls fn(slot, dist2) where dist2 <= r2.
  /// Requires r2 <= cover_radius^2 or hits beyond the covered cells are
  /// missed.
  template <class SlotVisitor>
  void for_each_slot_in_disk2(Vec2 p, double cover_radius, double r2,
                              SlotVisitor&& fn) const {
    const double* const xs = xs_.data();
    const double* const ys = ys_.data();
    for_each_slot_span(p, cover_radius,
                       [&](std::uint32_t begin, std::uint32_t end) {
                         for (std::uint32_t k = begin; k < end; ++k) {
                           const double dx = xs[k] - p.x;
                           const double dy = ys[k] - p.y;
                           const double d2 = dx * dx + dy * dy;
                           if (d2 <= r2) fn(k, d2);
                         }
                       });
  }

  /// Yields the contiguous slot ranges [begin, end) covering the disk of
  /// `cover_radius` around p — one span per grid row, since horizontally
  /// adjacent cells are adjacent in slot space.  Batched kernels run their
  /// own tight loop over xs()/ys() and cell-ordered payload columns inside
  /// each span (no per-candidate distance filtering is applied here).
  ///
  /// Each row's span is trimmed to the cells the disk actually reaches at
  /// that row's y-band, so with cells smaller than the radius the scanned
  /// area hugs the disk instead of its bounding square.  Trimming only
  /// skips cells whose nearest point is farther than `cover_radius`; it
  /// never drops a candidate a distance test could accept, and it leaves
  /// the visitation order of surviving candidates untouched.
  template <class SpanVisitor>
  void for_each_slot_span(Vec2 p, double cover_radius,
                          SpanVisitor&& fn) const {
    LAD_REQUIRE_MSG(cover_radius >= 0, "negative query radius");
    const double r2 = cover_radius * cover_radius;
    int cy0 = static_cast<int>(
        std::floor((p.y - cover_radius - bounds_.lo.y) / cell_size_));
    int cy1 = static_cast<int>(
        std::floor((p.y + cover_radius - bounds_.lo.y) / cell_size_));
    cy0 = std::clamp(cy0, 0, ny_ - 1);
    cy1 = std::clamp(cy1, 0, ny_ - 1);
    for (int cy = cy0; cy <= cy1; ++cy) {
      // Lower bound on |q.y - p.y| over every point q stored in this row:
      // the distance to the row's y-band — except at a border row when p
      // itself lies beyond that border, where clamped points share p's
      // side of the field and can be arbitrarily close in y.
      double dy = 0.0;
      if (!(cy == 0 && p.y < bounds_.lo.y) &&
          !(cy == ny_ - 1 && p.y > bounds_.hi.y)) {
        const double band_lo = bounds_.lo.y + cy * cell_size_;
        const double band_hi = band_lo + cell_size_;
        dy = std::max({0.0, band_lo - p.y, p.y - band_hi});
      }
      const double dy2 = dy * dy;
      if (dy2 > r2) continue;
      // Half-extent of the disk at this y-distance bounds the x span.
      // (Clamped-in-x points need no special case: a hit's true x always
      // lies inside [p.x - hx, p.x + hx], and the clamp of cx0/cx1 into
      // the grid pulls the border columns in whenever that interval
      // leaves the field.)
      const double hx = std::sqrt(std::max(0.0, r2 - dy2));
      int cx0 = static_cast<int>(
          std::floor((p.x - hx - bounds_.lo.x) / cell_size_));
      int cx1 = static_cast<int>(
          std::floor((p.x + hx - bounds_.lo.x) / cell_size_));
      cx0 = std::clamp(cx0, 0, nx_ - 1);
      cx1 = std::clamp(cx1, 0, nx_ - 1);
      const std::size_t row = static_cast<std::size_t>(cy) * nx_;
      fn(cell_start_[row + cx0], cell_start_[row + cx1 + 1]);
    }
  }

  /// Collects indices within `radius` of p (convenience wrapper).
  std::vector<std::size_t> query(Vec2 p, double radius) const;

  /// Number of points within `radius` of p, excluding `exclude`
  /// (pass SIZE_MAX to exclude nothing).
  std::size_t count_in_radius(Vec2 p, double radius,
                              std::size_t exclude = SIZE_MAX) const;

  /// Maps slot -> original point index (the cell-sort permutation).
  const std::vector<std::uint32_t>& permutation() const { return order_; }

  /// Cell-ordered coordinate rows (indexed by slot).
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }

  /// Rewrites `column` so column[slot] = old_column[permutation()[slot]].
  /// This is what the payload build overload applies to each column.
  template <class T>
  void permute_in_place(std::vector<T>& column) const {
    LAD_REQUIRE_MSG(column.size() == order_.size(),
                    "payload column size != point count");
    std::vector<T> sorted(column.size());
    for (std::size_t k = 0; k < order_.size(); ++k) {
      sorted[k] = std::move(column[order_[k]]);
    }
    column = std::move(sorted);
  }

 private:
  std::size_t cell_of(Vec2 p) const;
  void cell_coords(Vec2 p, int& cx, int& cy) const;

  Aabb bounds_;
  double cell_size_;
  int nx_ = 0;
  int ny_ = 0;
  // SoA rows, permuted into cell order (slot-indexed).
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<std::uint32_t> order_;  // slot -> original index (stable)
  // CSR layout: cell c owns slots [cell_start_[c], cell_start_[c+1]).
  std::vector<std::uint32_t> cell_start_;
};

}  // namespace lad
