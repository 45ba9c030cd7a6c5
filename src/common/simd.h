#ifndef SPQ_COMMON_SIMD_H_
#define SPQ_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace spq::simd {

/// \brief The batched distance kernel behind every reduce-side radius
/// probe (reduce_core.h): for each candidate i in [0, n),
///   out[i] = ((xs[i] - qx)² + (ys[i] - qy)² <= r2) ? 1 : 0.
///
/// Bit-compatibility contract: each lane performs exactly the scalar
/// sequence sub/sub/mul/mul/add/compare of geo::Distance2 — no FMA
/// contraction, no reassociation — so a lane's verdict always equals the
/// scalar expression's (including NaN => 0, matching `<=` on NaN). The
/// AVX2 backend (lanes of 4) is used when it was compiled in (SPQ_SIMD=ON
/// and the compiler supports -mavx2) AND the running CPU reports AVX2;
/// otherwise the portable loop, so a binary built with SPQ_SIMD=ON stays
/// correct on any x86-64.
void DistanceWithinMask(const double* xs, const double* ys, std::size_t n,
                        double qx, double qy, double r2, uint8_t* out);

/// The portable reference loop, exposed so tests can pin the AVX2 backend
/// against it lane-for-lane.
void DistanceWithinMaskScalar(const double* xs, const double* ys,
                              std::size_t n, double qx, double qy, double r2,
                              uint8_t* out);

}  // namespace spq::simd

#endif  // SPQ_COMMON_SIMD_H_
