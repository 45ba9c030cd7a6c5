// Distance-kernel backends. This translation unit is the only one compiled
// with -mavx2 (see the SPQ_SIMD handling in the root CMakeLists), so the
// intrinsics stay behind a function-call boundary and the rest of the
// library keeps the baseline x86-64 instruction set.

#include "common/simd.h"

#if defined(SPQ_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace spq::simd {

void DistanceWithinMaskScalar(const double* xs, const double* ys,
                              std::size_t n, double qx, double qy, double r2,
                              uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - qx;
    const double dy = ys[i] - qy;
    out[i] = (dx * dx + dy * dy <= r2) ? 1 : 0;
  }
}

#if defined(SPQ_SIMD_AVX2)

namespace {

/// 4 candidates per iteration. _CMP_LE_OQ is ordered like the scalar `<=`
/// (NaN compares false), and mul/add (not fmadd) keeps each lane's rounding
/// identical to the scalar expression.
void DistanceWithinMaskAvx2(const double* xs, const double* ys, std::size_t n,
                            double qx, double qy, double r2, uint8_t* out) {
  const __m256d vqx = _mm256_set1_pd(qx);
  const __m256d vqy = _mm256_set1_pd(qy);
  const __m256d vr2 = _mm256_set1_pd(r2);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), vqx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), vqy);
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(d2, vr2, _CMP_LE_OQ));
    out[i] = static_cast<uint8_t>(mask & 1);
    out[i + 1] = static_cast<uint8_t>((mask >> 1) & 1);
    out[i + 2] = static_cast<uint8_t>((mask >> 2) & 1);
    out[i + 3] = static_cast<uint8_t>((mask >> 3) & 1);
  }
  if (i < n) DistanceWithinMaskScalar(xs + i, ys + i, n - i, qx, qy, r2,
                                      out + i);
}

bool Avx2Available() {
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
}

}  // namespace

void DistanceWithinMask(const double* xs, const double* ys, std::size_t n,
                        double qx, double qy, double r2, uint8_t* out) {
  if (Avx2Available()) {
    DistanceWithinMaskAvx2(xs, ys, n, qx, qy, r2, out);
    return;
  }
  DistanceWithinMaskScalar(xs, ys, n, qx, qy, r2, out);
}

#else  // !SPQ_SIMD_AVX2

void DistanceWithinMask(const double* xs, const double* ys, std::size_t n,
                        double qx, double qy, double r2, uint8_t* out) {
  DistanceWithinMaskScalar(xs, ys, n, qx, qy, r2, out);
}

#endif  // SPQ_SIMD_AVX2

}  // namespace spq::simd
