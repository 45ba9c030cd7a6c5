#include "geo/grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/random.h"

namespace spq::geo {
namespace {

UniformGrid MakeUnitGrid(uint32_t nx, uint32_t ny) {
  auto grid = UniformGrid::Make(Rect{0, 0, 1, 1}, nx, ny);
  EXPECT_TRUE(grid.ok());
  return *grid;
}

TEST(GridTest, MakeRejectsInvalidArguments) {
  EXPECT_TRUE(UniformGrid::Make(Rect{0, 0, 1, 1}, 0, 4).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(UniformGrid::Make(Rect{0, 0, 1, 1}, 4, 0).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(UniformGrid::Make(Rect{0, 0, 0, 1}, 4, 4).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(UniformGrid::Make(Rect{5, 5, 1, 1}, 4, 4).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(UniformGrid::Make(Rect{0, 0, 1, 1}, 1u << 16, 1u << 16)
                  .status()
                  .IsInvalidArgument());

  // Bounds with an infinite side, or finite bounds whose width overflows
  // a double, give an infinite cell edge (NaN cell rectangles); an edge
  // that underflows to 0 is no better.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Rect rejected[] = {
      {-inf, 0, 1, 1},        {0, 0, inf, 1},       {0, -inf, 1, 1},
      {0, 0, 1, inf},         {nan, 0, 1, 1},       {0, 0, 1, nan},
      {-1e308, 0, 1e308, 1},  {0, -1e308, 1, 1e308},
      {0, 0, 5e-324, 1},  // the edge, 5e-324 / 4, rounds to 0
  };
  for (const Rect& bounds : rejected) {
    EXPECT_TRUE(UniformGrid::Make(bounds, 4, 4).status().IsInvalidArgument())
        << bounds.min_x << " " << bounds.min_y << " " << bounds.max_x << " "
        << bounds.max_y;
  }
  // Wide but representable: every edge is finite.
  auto wide = UniformGrid::Make(Rect{-1e307, 0, 1e307, 1}, 4, 4);
  ASSERT_TRUE(wide.ok());
  EXPECT_DOUBLE_EQ(wide->cell_width(), 5e306);
  EXPECT_EQ(wide->CellOf({0.0, 0.5}), wide->CellAt(2, 2));
}

TEST(GridTest, BasicGeometry) {
  UniformGrid grid = MakeUnitGrid(4, 4);
  EXPECT_EQ(grid.num_cells(), 16u);
  EXPECT_DOUBLE_EQ(grid.cell_width(), 0.25);
  EXPECT_DOUBLE_EQ(grid.cell_height(), 0.25);
}

TEST(GridTest, CellOfMapsInteriorPoints) {
  UniformGrid grid = MakeUnitGrid(4, 4);
  EXPECT_EQ(grid.CellOf({0.1, 0.1}), grid.CellAt(0, 0));
  EXPECT_EQ(grid.CellOf({0.9, 0.1}), grid.CellAt(3, 0));
  EXPECT_EQ(grid.CellOf({0.1, 0.9}), grid.CellAt(0, 3));
  EXPECT_EQ(grid.CellOf({0.6, 0.3}), grid.CellAt(2, 1));
}

TEST(GridTest, BoundaryPointsClampIntoEdgeCells) {
  UniformGrid grid = MakeUnitGrid(4, 4);
  EXPECT_EQ(grid.CellOf({1.0, 1.0}), grid.CellAt(3, 3));
  EXPECT_EQ(grid.CellOf({0.0, 0.0}), grid.CellAt(0, 0));
  // Outside points clamp too (total partitioning).
  EXPECT_EQ(grid.CellOf({-0.5, 0.5}), grid.CellAt(0, 2));
  EXPECT_EQ(grid.CellOf({2.0, 2.0}), grid.CellAt(3, 3));
}

// The edge-cell contract holds however far out a coordinate lies: the
// index is clamped as a double before the integer cast, which is undefined
// for values of 2^32 or more (they used to wrap into column 0).
TEST(GridTest, FarAndInfiniteCoordinatesClampIntoEdgeCells) {
  UniformGrid grid = MakeUnitGrid(50, 50);
  const double inf = std::numeric_limits<double>::infinity();
  for (double x : {1e19, 1e300, inf}) {
    EXPECT_EQ(grid.ColOf(grid.CellOf({x, 0.5})), 49u) << x;
    EXPECT_EQ(grid.RowOf(grid.CellOf({0.5, x})), 49u) << x;
  }
  for (double x : {-1e19, -1e300, -inf}) {
    EXPECT_EQ(grid.ColOf(grid.CellOf({x, 0.5})), 0u) << x;
    EXPECT_EQ(grid.RowOf(grid.CellOf({0.5, x})), 0u) << x;
  }
  // NaN has no nearest edge; it lands in column 0, without undefined
  // behaviour.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(grid.ColOf(grid.CellOf({nan, 0.5})), 0u);
}

// A feature (2^32 - 0.5) cell widths east of the grid: the east end of its
// Lemma-1 window lies past 2^32 cell widths. Its window must still cover
// a point 0.63 cell widths further east (same edge cell), and with a
// radius reaching back into the grid it must find exactly the cells a
// brute-force MINDIST scan finds.
TEST(GridTest, FarPointWindowIsNotEmpty) {
  UniformGrid grid = MakeUnitGrid(50, 50);
  const double w = grid.cell_width();
  const Point f{(4294967296.0 - 0.5) * w, 0.5};
  const Point p{f.x + 0.63 * w, 0.5};
  ASSERT_LE(Distance(f, p), 0.7 * w);
  EXPECT_EQ(grid.CellOf(p), grid.CellOf(f));
  EXPECT_EQ(grid.ColOf(grid.CellOf(f)), 49u);

  const double r = f.x - 0.5;  // reaches the grid's east half
  auto targets = grid.CellsWithinDist(f, r);
  EXPECT_FALSE(targets.empty());
  std::set<CellId> brute;
  for (CellId id = 0; id < grid.num_cells(); ++id) {
    if (id != grid.CellOf(f) && MinDist2(f, grid.CellRect(id)) <= r * r) {
      brute.insert(id);
    }
  }
  EXPECT_EQ(std::set<CellId>(targets.begin(), targets.end()), brute);
}

TEST(GridTest, EveryPointBelongsToExactlyOneCell) {
  UniformGrid grid = MakeUnitGrid(7, 5);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    Point p{rng.NextDouble(), rng.NextDouble()};
    CellId id = grid.CellOf(p);
    ASSERT_LT(id, grid.num_cells());
    EXPECT_TRUE(grid.CellRect(id).Contains(p));
  }
}

TEST(GridTest, CellRectsTileTheBounds) {
  UniformGrid grid = MakeUnitGrid(3, 3);
  double area = 0.0;
  for (CellId id = 0; id < grid.num_cells(); ++id) {
    Rect r = grid.CellRect(id);
    area += r.width() * r.height();
  }
  EXPECT_NEAR(area, 1.0, 1e-12);
}

TEST(GridTest, RowColRoundTrip) {
  UniformGrid grid = MakeUnitGrid(6, 4);
  for (CellId id = 0; id < grid.num_cells(); ++id) {
    EXPECT_EQ(grid.CellAt(grid.ColOf(id), grid.RowOf(id)), id);
  }
}

// --- CellsWithinDist: the Lemma 1 duplication targets ---

TEST(GridTest, CellsWithinDistExcludesOwnCell) {
  UniformGrid grid = MakeUnitGrid(4, 4);
  Point p{0.1, 0.1};
  auto cells = grid.CellsWithinDist(p, 0.2);
  EXPECT_EQ(std::count(cells.begin(), cells.end(), grid.CellOf(p)), 0);
}

TEST(GridTest, InteriorPointFarFromBordersHasNoTargets) {
  UniformGrid grid = MakeUnitGrid(4, 4);
  // Center of cell (1,1); borders are 0.125 away.
  EXPECT_TRUE(grid.CellsWithinDist({0.375, 0.375}, 0.1).empty());
}

TEST(GridTest, PaperExampleF7Duplication) {
  // Figure 2: 4x4 grid over [0,10]², r=1.5, f7=(3.0, 8.1) in cell C14
  // (1-indexed row-major from bottom-left) must duplicate to C9, C10, C13.
  auto grid_or = UniformGrid::Make(Rect{0, 0, 10, 10}, 4, 4);
  ASSERT_TRUE(grid_or.ok());
  const UniformGrid& grid = *grid_or;
  Point f7{3.0, 8.1};
  // Our ids are 0-indexed: paper's C14 = id 13 (col 1, row 3).
  EXPECT_EQ(grid.CellOf(f7), grid.CellAt(1, 3));
  auto targets = grid.CellsWithinDist(f7, 1.5);
  std::set<CellId> expected{grid.CellAt(0, 2),   // paper C9  (id 8)
                            grid.CellAt(1, 2),   // paper C10 (id 9)
                            grid.CellAt(0, 3)};  // paper C13 (id 12)
  EXPECT_EQ(std::set<CellId>(targets.begin(), targets.end()), expected);
}

TEST(GridTest, CornerPointReachesThreeNeighbors) {
  UniformGrid grid = MakeUnitGrid(4, 4);
  // Just inside the corner shared by cells (0,0),(1,0),(0,1),(1,1).
  Point p{0.251, 0.251};
  auto targets = grid.CellsWithinDist(p, 0.05);
  std::set<CellId> expected{grid.CellAt(0, 0), grid.CellAt(1, 0),
                            grid.CellAt(0, 1)};
  EXPECT_EQ(std::set<CellId>(targets.begin(), targets.end()), expected);
}

TEST(GridTest, ZeroRadiusOnBorderTouchesNeighbor) {
  UniformGrid grid = MakeUnitGrid(4, 4);
  // Exactly on the vertical border between (0,y) and (1,y): MINDIST to the
  // left cell is 0 <= r for any r >= 0.
  Point p{0.25, 0.1};
  auto targets = grid.CellsWithinDist(p, 0.0);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], grid.CellAt(0, 0));
}

TEST(GridTest, NegativeRadiusYieldsNothing) {
  UniformGrid grid = MakeUnitGrid(4, 4);
  EXPECT_TRUE(grid.CellsWithinDist({0.5, 0.5}, -1.0).empty());
}

TEST(GridTest, HugeRadiusReachesAllOtherCells) {
  UniformGrid grid = MakeUnitGrid(5, 5);
  auto targets = grid.CellsWithinDist({0.5, 0.5}, 10.0);
  EXPECT_EQ(targets.size(), grid.num_cells() - 1);
}

TEST(GridTest, CellsWithinDistMatchesBruteForce) {
  // Property check against a brute-force MINDIST scan over all cells.
  Rng rng(71);
  UniformGrid grid = MakeUnitGrid(8, 6);
  for (int trial = 0; trial < 500; ++trial) {
    Point p{rng.NextDouble(), rng.NextDouble()};
    const double r = rng.NextDouble() * 0.3;
    auto fast = grid.CellsWithinDist(p, r);
    std::set<CellId> fast_set(fast.begin(), fast.end());
    std::set<CellId> brute;
    const CellId own = grid.CellOf(p);
    for (CellId id = 0; id < grid.num_cells(); ++id) {
      if (id != own && MinDist(p, grid.CellRect(id)) <= r) brute.insert(id);
    }
    ASSERT_EQ(fast_set, brute) << "trial " << trial << " r=" << r;
  }
}

TEST(GridTest, LemmaOneCoverage) {
  // Lemma 1 correctness: if a data point q and feature point f are within
  // distance r, then either they share a cell or f's duplication targets
  // include q's cell.
  Rng rng(73);
  UniformGrid grid = MakeUnitGrid(10, 10);
  for (int trial = 0; trial < 2000; ++trial) {
    Point f{rng.NextDouble(), rng.NextDouble()};
    const double r = 0.005 + rng.NextDouble() * 0.1;
    // Random point within distance r of f.
    const double angle = rng.NextDouble() * 2 * M_PI;
    const double dist = rng.NextDouble() * r;
    Point q{std::clamp(f.x + dist * std::cos(angle), 0.0, 1.0),
            std::clamp(f.y + dist * std::sin(angle), 0.0, 1.0)};
    if (Distance(q, f) > r) continue;  // clamping may push it out
    const CellId qc = grid.CellOf(q);
    if (qc == grid.CellOf(f)) continue;
    auto targets = grid.CellsWithinDist(f, r);
    EXPECT_NE(std::find(targets.begin(), targets.end(), qc), targets.end())
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace spq::geo
