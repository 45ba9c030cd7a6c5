#include "spq/duplication.h"

#include <algorithm>
#include <cmath>

namespace spq::core {

CellAreas ComputeCellAreas(double r, double a) {
  CellAreas areas;
  // Section 6.2 formulas, Figure 3: valid for 0 <= r <= a/2.
  areas.a1 = M_PI * r * r;
  areas.a2 = (4.0 - M_PI) * r * r;
  areas.a3 = 4.0 * (a - 2.0 * r) * r;
  areas.a4 = (a - 2.0 * r) * (a - 2.0 * r);
  return areas;
}

double AnalyticDuplicationFactor(double r, double a) {
  return M_PI * r * r / (a * a) + 4.0 * r / a + 1.0;
}

double MaxDuplicationFactor() { return 3.0 + M_PI / 4.0; }

double ReducerCostModel(double r, double a) {
  return AnalyticDuplicationFactor(r, a) * a * a * a * a;
}

uint32_t AdviseGridSize(double radius, double extent, uint32_t max_per_side) {
  if (radius <= 0.0 || extent <= 0.0) return max_per_side;
  // a = extent / G >= 2r  =>  G <= extent / (2r).
  const double g = std::floor(extent / (2.0 * radius));
  if (!(g >= 1.0)) return 1;  // also a NaN extent: never cast a NaN
  return static_cast<uint32_t>(
      std::min<double>(g, static_cast<double>(max_per_side)));
}

}  // namespace spq::core
