#include "geom/grid_index.h"

#include <gtest/gtest.h>

#include "util/assert.h"

#include <algorithm>

#include "geom/aabb.h"
#include "geom/vec2.h"
#include "rng/rng.h"

namespace lad {
namespace {

std::vector<Vec2> random_points(std::size_t n, const Aabb& box, Rng& rng) {
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y)});
  }
  return pts;
}

std::vector<std::size_t> brute_force_query(const std::vector<Vec2>& pts, Vec2 q,
                                           double r) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (distance(pts[i], q) <= r) out.push_back(i);
  }
  return out;
}

TEST(GridIndex, MatchesBruteForceOnRandomQueries) {
  Rng rng(42);
  const Aabb box = Aabb::square(100.0);
  const auto pts = random_points(500, box, rng);
  const GridIndex index(pts, box, 10.0);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 q{rng.uniform(0, 100), rng.uniform(0, 100)};
    const double r = rng.uniform(0.0, 30.0);
    auto got = index.query(q, r);
    auto want = brute_force_query(pts, q, r);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "query at (" << q.x << "," << q.y << ") r=" << r;
  }
}

TEST(GridIndex, FindsPointsOutsideTheNominalBounds) {
  // Points outside the bounds are clamped into border cells but must still
  // be discoverable (deployment scatter can leave the field).
  const std::vector<Vec2> pts = {{-5, -5}, {105, 50}, {50, 50}};
  const GridIndex index(pts, Aabb::square(100.0), 10.0);
  const auto got = index.query({-5, -5}, 1.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0u);
  const auto got2 = index.query({105, 50}, 1.0);
  ASSERT_EQ(got2.size(), 1u);
  EXPECT_EQ(got2[0], 1u);
}

TEST(GridIndex, QueryRadiusLargerThanCellSize) {
  Rng rng(7);
  const Aabb box = Aabb::square(100.0);
  const auto pts = random_points(300, box, rng);
  const GridIndex index(pts, box, 5.0);
  const Vec2 q{50, 50};
  auto got = index.query(q, 40.0);  // spans many cells
  auto want = brute_force_query(pts, q, 40.0);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(GridIndex, CountInRadiusExcludesRequestedIndex) {
  const std::vector<Vec2> pts = {{0, 0}, {1, 0}, {2, 0}};
  const GridIndex index(pts, Aabb::square(10.0), 5.0);
  EXPECT_EQ(index.count_in_radius({0, 0}, 1.5), 2u);
  EXPECT_EQ(index.count_in_radius({0, 0}, 1.5, 0), 1u);
}

TEST(GridIndex, EmptyPointSet) {
  const GridIndex index({}, Aabb::square(10.0), 1.0);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.query({5, 5}, 100.0).empty());
}

TEST(GridIndex, ZeroRadiusFindsCoincidentPointOnly) {
  const std::vector<Vec2> pts = {{5, 5}, {5.0001, 5}};
  const GridIndex index(pts, Aabb::square(10.0), 1.0);
  const auto got = index.query({5, 5}, 0.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0u);
}

TEST(GridIndex, RejectsBadCellSizeAndNegativeRadius) {
  EXPECT_THROW(GridIndex({}, Aabb::square(1.0), 0.0), AssertionError);
  const GridIndex index({{0, 0}}, Aabb::square(1.0), 1.0);
  EXPECT_THROW(index.query({0, 0}, -1.0), AssertionError);
}

TEST(GridIndex, PointsExactlyOnCellBoundaries) {
  // Corners, edge midpoints, and the exact field corners: every boundary
  // point must land in exactly one cell and be found by queries from both
  // sides of the boundary.
  std::vector<Vec2> pts;
  for (double x : {0.0, 10.0, 20.0, 50.0, 100.0}) {
    for (double y : {0.0, 10.0, 20.0, 50.0, 100.0}) {
      pts.push_back({x, y});
    }
  }
  const Aabb box = Aabb::square(100.0);
  const GridIndex index(pts, box, 10.0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto got = index.query(pts[i], 0.0);
    ASSERT_EQ(got.size(), 1u) << "boundary point " << i;
    EXPECT_EQ(got[0], i);
  }
  // A query on a cell boundary with a radius that exactly reaches a
  // boundary point includes it (<=, not <).
  const auto reach = index.query({10.0, 10.0}, 10.0);
  const auto want = brute_force_query(pts, {10.0, 10.0}, 10.0);
  EXPECT_EQ(reach.size(), want.size());
}

TEST(GridIndex, RadiusLargerThanFieldDiagonalFindsEverything) {
  Rng rng(11);
  const Aabb box = Aabb::square(100.0);
  const auto pts = random_points(200, box, rng);
  const GridIndex index(pts, box, 7.0);
  // Diagonal is ~141; query from a corner with a far larger radius.
  EXPECT_EQ(index.query({0, 0}, 1000.0).size(), pts.size());
  EXPECT_EQ(index.count_in_radius({100, 100}, 500.0), pts.size());
  EXPECT_EQ(index.count_in_radius({100, 100}, 500.0, 3), pts.size() - 1);
}

TEST(GridIndex, ClampedPointsAndOutOfBoundsQueriesWithFineCells) {
  // Points outside the bounds are clamped into border cells.  With cells
  // much smaller than the query radius, the border rows/columns must still
  // be scanned when the query disk (or the query point itself) leaves the
  // field — the row-trimmed scan cannot skip them.
  const std::vector<Vec2> pts = {{-5, -5},   {105, 50}, {50, -9},
                                 {50, 109},  {-20, 50}, {50, 50},
                                 {503, -9},  {0, 0},    {100, 100}};
  const Aabb box = Aabb::square(100.0);
  const GridIndex index(pts, box, 2.0);
  for (int trial = 0; trial < 200; ++trial) {
    Rng rng(1000 + trial);
    // Query points both inside and well outside the bounds.
    const Vec2 q{rng.uniform(-30, 130), rng.uniform(-30, 130)};
    const double r = rng.uniform(0.0, 40.0);
    auto got = index.query(q, r);
    auto want = brute_force_query(pts, q, r);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "query at (" << q.x << "," << q.y << ") r=" << r;
  }
  // The regression that motivates this: query below the field close in y
  // to a clamped point but offset in x by more than one fine cell.
  const auto got = index.query({500, -10}, 5.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 6u);  // (503, -9)
}

TEST(GridIndex, TemplatedVisitorMatchesQueryAndBruteForce) {
  Rng rng(21);
  const Aabb box = Aabb::square(100.0);
  const auto pts = random_points(400, box, rng);
  const GridIndex index(pts, box, 9.0);
  for (int trial = 0; trial < 30; ++trial) {
    const Vec2 q{rng.uniform(-10, 110), rng.uniform(-10, 110)};
    const double r = rng.uniform(0.0, 35.0);
    std::vector<std::size_t> via_template;
    index.for_each_in_radius(
        q, r, [&](std::size_t i) { via_template.push_back(i); });
    // Identical contents *and* identical visitation order.
    EXPECT_EQ(via_template, index.query(q, r));
    auto want = brute_force_query(pts, q, r);
    std::sort(via_template.begin(), via_template.end());
    EXPECT_EQ(via_template, want);
  }
}

TEST(GridIndex, SlotQueriesExposeCellOrderedRows) {
  Rng rng(31);
  const Aabb box = Aabb::square(50.0);
  const auto pts = random_points(120, box, rng);
  const GridIndex index(pts, box, 5.0);
  const auto& order = index.permutation();
  ASSERT_EQ(order.size(), pts.size());
  // xs/ys are the original coordinates permuted by `order`.
  for (std::size_t slot = 0; slot < order.size(); ++slot) {
    EXPECT_EQ(index.xs()[slot], pts[order[slot]].x);
    EXPECT_EQ(index.ys()[slot], pts[order[slot]].y);
  }
  // Slot-level visitation returns the same points as the index-level API,
  // with the correct squared distances.
  const Vec2 q{25, 25};
  const double r = 12.0;
  std::vector<std::size_t> via_slots;
  index.for_each_slot_in_radius(q, r, [&](std::uint32_t slot, double d2) {
    EXPECT_NEAR(d2, distance2(pts[order[slot]], q), 1e-12);
    via_slots.push_back(order[slot]);
  });
  std::vector<std::size_t> via_index;
  index.for_each_in_radius(q, r,
                           [&](std::size_t i) { via_index.push_back(i); });
  EXPECT_EQ(via_slots, via_index);
}

TEST(GridIndex, PayloadBuildOverloadPermutesColumnsIntoCellOrder) {
  Rng rng(41);
  const Aabb box = Aabb::square(80.0);
  const auto pts = random_points(90, box, rng);
  // One numeric and one wider payload column, tagged by original index.
  std::vector<int> tags(pts.size());
  std::vector<double> weights(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    tags[i] = static_cast<int>(i);
    weights[i] = 10.0 * static_cast<double>(i);
  }
  const GridIndex index(pts, box, 8.0, tags, weights);
  const auto& order = index.permutation();
  for (std::size_t slot = 0; slot < order.size(); ++slot) {
    EXPECT_EQ(tags[slot], static_cast<int>(order[slot]));
    EXPECT_EQ(weights[slot], 10.0 * order[slot]);
  }
  // A column of the wrong length is rejected.
  std::vector<int> short_col(pts.size() - 1);
  EXPECT_THROW(index.permute_in_place(short_col), AssertionError);
}

TEST(GridIndex, RandomizedSoAVsBruteForceFuzz) {
  // Fixed-seed fuzz across point counts, cell sizes, and radii, checking
  // both query APIs against brute force — including queries at radius 0,
  // beyond the diagonal, and centered outside the bounds.
  for (std::uint64_t seed : {7u, 77u, 777u}) {
    Rng rng(seed);
    const double side = rng.uniform(20.0, 200.0);
    const Aabb box = Aabb::square(side);
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(400));
    // Scatter ~10% of the points outside the bounds (clamped cells).
    std::vector<Vec2> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double pad = (i % 10 == 0) ? 0.3 * side : 0.0;
      pts.push_back({rng.uniform(-pad, side + pad),
                     rng.uniform(-pad, side + pad)});
    }
    const double cell = rng.uniform(side / 40.0, side / 2.0);
    const GridIndex index(pts, box, cell);
    for (int trial = 0; trial < 40; ++trial) {
      const Vec2 q{rng.uniform(-0.5 * side, 1.5 * side),
                   rng.uniform(-0.5 * side, 1.5 * side)};
      double r;
      switch (trial % 4) {
        case 0: r = 0.0; break;
        case 1: r = rng.uniform(0.0, cell); break;
        case 2: r = rng.uniform(0.0, side); break;
        default: r = 3.0 * side; break;  // > diagonal
      }
      auto got = index.query(q, r);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, brute_force_query(pts, q, r))
          << "seed=" << seed << " trial=" << trial << " q=(" << q.x << ","
          << q.y << ") r=" << r << " cell=" << cell;
      EXPECT_EQ(index.count_in_radius(q, r), got.size());
    }
  }
}

}  // namespace
}  // namespace lad
