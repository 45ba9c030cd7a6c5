#ifndef SPQ_GEO_GRID_H_
#define SPQ_GEO_GRID_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace spq::geo {

/// Row-major cell index within a UniformGrid: 0 .. nx*ny-1.
using CellId = uint32_t;

/// \brief Regular uniform grid over a bounding rectangle (Section 4.1).
///
/// The grid is defined at query time, after the radius r is known. Every
/// object maps to exactly one enclosing cell (points outside the bounds are
/// clamped into the nearest boundary cell, so partitioning is total).
/// `CellsWithinDist` enumerates the *other* cells within distance r of a
/// point — the set of cells a feature object must be duplicated into per
/// Lemma 1.
class UniformGrid {
 public:
  /// Creates an nx × ny grid over `bounds`. Both dimensions must be >= 1,
  /// the bounds finite and non-degenerate, and each cell edge finite and
  /// > 0; InvalidArgument otherwise.
  static StatusOr<UniformGrid> Make(const Rect& bounds, uint32_t nx,
                                    uint32_t ny);

  uint32_t nx() const { return nx_; }
  uint32_t ny() const { return ny_; }
  uint32_t num_cells() const { return nx_ * ny_; }
  const Rect& bounds() const { return bounds_; }

  /// Cell-edge lengths. In the paper's analysis the grid is square with
  /// edge a; we support rectangular cells and expose both.
  double cell_width() const { return cell_w_; }
  double cell_height() const { return cell_h_; }

  /// The enclosing cell of p. Edge-cell contract: any finite or ±inf
  /// coordinate outside the bounds (or on the max boundary) lands in the
  /// nearest edge cell, however far out it lies; a NaN coordinate lands
  /// in column (or row) 0.
  CellId CellOf(const Point& p) const;

  /// The rectangle of cell `id`.
  Rect CellRect(CellId id) const;

  /// Column/row of cell `id`.
  uint32_t ColOf(CellId id) const { return id % nx_; }
  uint32_t RowOf(CellId id) const { return id / nx_; }
  CellId CellAt(uint32_t col, uint32_t row) const { return row * nx_ + col; }

  /// All cells c != CellOf(p) with MINDIST(p, c) <= r, i.e. the duplication
  /// targets of a feature object at p (Lemma 1). r must be >= 0. The
  /// candidate window is clamped under CellOf's edge-cell contract, so a
  /// point far outside the bounds still reaches every cell within r.
  std::vector<CellId> CellsWithinDist(const Point& p, double r) const {
    std::vector<CellId> out;
    CellsWithinDist(p, r, out);
    return out;
  }

  /// Scratch variant: clears and refills `out` (same contents as the
  /// returning overload). The mappers call this once per (feature, query)
  /// in the shuffle hot loop — reusing the caller's capacity removes a
  /// per-call allocation that multiplies by the batch size.
  void CellsWithinDist(const Point& p, double r,
                       std::vector<CellId>& out) const;

 private:
  UniformGrid(const Rect& bounds, uint32_t nx, uint32_t ny);

  Rect bounds_;
  uint32_t nx_;
  uint32_t ny_;
  double cell_w_;
  double cell_h_;
};

}  // namespace spq::geo

#endif  // SPQ_GEO_GRID_H_
