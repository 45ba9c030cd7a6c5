#include "geo/grid.h"

#include <cmath>

namespace spq::geo {

namespace {

/// Column (or row) of an offset measured in cell edges from the bounds'
/// low side, on an axis of `n` cells: floor(v) clamped into [0, n - 1].
/// The clamp happens in the double domain BEFORE the integer cast — the
/// cast of a NaN, or of a double at or above 2^32, is undefined. NaN lands
/// in index 0.
uint32_t ClampedIndex(double v, uint32_t n) {
  if (!(v > 0.0)) return 0;
  const double hi = static_cast<double>(n - 1);
  return static_cast<uint32_t>(v < hi ? v : hi);
}

}  // namespace

StatusOr<UniformGrid> UniformGrid::Make(const Rect& bounds, uint32_t nx,
                                        uint32_t ny) {
  if (nx == 0 || ny == 0) {
    return Status::InvalidArgument("grid dimensions must be >= 1");
  }
  if (!(bounds.max_x > bounds.min_x) || !(bounds.max_y > bounds.min_y)) {
    return Status::InvalidArgument("grid bounds must be non-degenerate");
  }
  // Guard against CellId overflow on absurd grids.
  if (static_cast<uint64_t>(nx) * ny > (1ULL << 31)) {
    return Status::InvalidArgument("grid has too many cells");
  }
  // An infinite bound, or finite bounds more than a double apart, give an
  // infinite cell edge: CellRect would compute NaN bounds and Lemma-1
  // duplication would drop targets. A tiny extent can give an edge that
  // underflows to 0, which makes every cell degenerate.
  const UniformGrid grid(bounds, nx, ny);
  if (!std::isfinite(grid.cell_w_) || !std::isfinite(grid.cell_h_) ||
      !(grid.cell_w_ > 0.0) || !(grid.cell_h_ > 0.0)) {
    return Status::InvalidArgument(
        "grid bounds must be finite, with finite cell edges > 0");
  }
  return grid;
}

UniformGrid::UniformGrid(const Rect& bounds, uint32_t nx, uint32_t ny)
    : bounds_(bounds),
      nx_(nx),
      ny_(ny),
      cell_w_(bounds.width() / nx),
      cell_h_(bounds.height() / ny) {}

CellId UniformGrid::CellOf(const Point& p) const {
  // floor() then clamp: points on the max boundary (or outside the bounds)
  // land in the nearest edge cell, so every object has exactly one cell.
  const uint32_t col = ClampedIndex((p.x - bounds_.min_x) / cell_w_, nx_);
  const uint32_t row = ClampedIndex((p.y - bounds_.min_y) / cell_h_, ny_);
  return CellAt(col, row);
}

Rect UniformGrid::CellRect(CellId id) const {
  const uint32_t col = ColOf(id);
  const uint32_t row = RowOf(id);
  Rect r;
  r.min_x = bounds_.min_x + col * cell_w_;
  r.min_y = bounds_.min_y + row * cell_h_;
  r.max_x = (col + 1 == nx_) ? bounds_.max_x : bounds_.min_x + (col + 1) * cell_w_;
  r.max_y = (row + 1 == ny_) ? bounds_.max_y : bounds_.min_y + (row + 1) * cell_h_;
  return r;
}

void UniformGrid::CellsWithinDist(const Point& p, double r,
                                  std::vector<CellId>& out) const {
  out.clear();
  if (r < 0.0) return;
  const CellId own = CellOf(p);
  // Candidate window: cells whose rect could be within r. Expand the point
  // by r in each direction and convert to index ranges.
  auto to_col = [this](double x) {
    return ClampedIndex((x - bounds_.min_x) / cell_w_, nx_);
  };
  auto to_row = [this](double y) {
    return ClampedIndex((y - bounds_.min_y) / cell_h_, ny_);
  };
  // Window widened by one cell on each side: a point exactly on a cell
  // border has MINDIST 0 to the neighbor, but floor() already assigns the
  // border coordinate to the far cell. The exact MinDist2 test below
  // filters out anything the widening over-includes.
  uint32_t col_lo = to_col(p.x - r);
  uint32_t col_hi = to_col(p.x + r);
  uint32_t row_lo = to_row(p.y - r);
  uint32_t row_hi = to_row(p.y + r);
  if (col_lo > 0) --col_lo;
  if (col_hi + 1 < nx_) ++col_hi;
  if (row_lo > 0) --row_lo;
  if (row_hi + 1 < ny_) ++row_hi;
  const double r2 = r * r;
  for (uint32_t row = row_lo; row <= row_hi; ++row) {
    for (uint32_t col = col_lo; col <= col_hi; ++col) {
      const CellId id = CellAt(col, row);
      if (id == own) continue;
      if (MinDist2(p, CellRect(id)) <= r2) out.push_back(id);
    }
  }
}

}  // namespace spq::geo
