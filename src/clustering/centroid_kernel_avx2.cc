// AVX2 centroid kernels. This is the only clustering translation unit
// compiled with -mavx2 (see src/CMakeLists.txt); callers reach it through
// the runtime dispatch in centroid_kernel.cc, so the binary stays safe on
// CPUs without AVX2.
//
// Both entries compute 8 centroids per vector: one row of a
// dimension-major table holds one dimension of consecutive centroids, so a
// plain load feeds 8 lanes. Each lane repeats SquaredL2's operation order
// with separate mul and add (this TU is built without -mfma), so every
// distance is bit-identical to the scalar one. Both compute two vectors
// (16 centroids) per step, sharing each broadcast of x, so each step reads
// 64 bytes of every table row it touches. `nearest` keeps per lane of each
// vector the first strict minimum of the centroids that lane saw and its
// index. It reduces the 16 lanes once at the end: the smallest distance,
// the lowest index among equal ones.

#include <cstddef>
#include <cstdint>
#include <limits>

#include <immintrin.h>

#include "clustering/centroid_kernel.h"

namespace vaq {
namespace internal {

namespace {

// Distances from `x` to the 8 centroids starting at `col`, in SquaredL2's
// order. `load` reads 8 consecutive floats of one table row.
template <typename Load>
inline __m256 Distances8(const float* x, const float* col, size_t len,
                         size_t stride, Load load) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_set1_ps(x[i]), load(col + i * stride));
    const __m256 d1 = _mm256_sub_ps(_mm256_set1_ps(x[i + 1]),
                                    load(col + (i + 1) * stride));
    const __m256 d2 = _mm256_sub_ps(_mm256_set1_ps(x[i + 2]),
                                    load(col + (i + 2) * stride));
    const __m256 d3 = _mm256_sub_ps(_mm256_set1_ps(x[i + 3]),
                                    load(col + (i + 3) * stride));
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(d0, d0));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(d1, d1));
    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(d2, d2));
    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(d3, d3));
  }
  __m256 acc =
      _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(acc0, acc1), acc2), acc3);
  for (; i < len; ++i) {
    const __m256 diff =
        _mm256_sub_ps(_mm256_set1_ps(x[i]), load(col + i * stride));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  return acc;
}

// Distances8 for the 16 centroids starting at `col`, as two vectors that
// share each broadcast of x.
inline void Distances16(const float* x, const float* col, size_t len,
                        size_t stride, __m256* lo, __m256* hi) {
  __m256 a0 = _mm256_setzero_ps(), b0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps(), b2 = _mm256_setzero_ps();
  __m256 a3 = _mm256_setzero_ps(), b3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const float* r = col + i * stride;
    const __m256 x0 = _mm256_set1_ps(x[i]);
    const __m256 x1 = _mm256_set1_ps(x[i + 1]);
    const __m256 x2 = _mm256_set1_ps(x[i + 2]);
    const __m256 x3 = _mm256_set1_ps(x[i + 3]);
    __m256 d = _mm256_sub_ps(x0, _mm256_loadu_ps(r));
    a0 = _mm256_add_ps(a0, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(x0, _mm256_loadu_ps(r + 8));
    b0 = _mm256_add_ps(b0, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(x1, _mm256_loadu_ps(r + stride));
    a1 = _mm256_add_ps(a1, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(x1, _mm256_loadu_ps(r + stride + 8));
    b1 = _mm256_add_ps(b1, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(x2, _mm256_loadu_ps(r + 2 * stride));
    a2 = _mm256_add_ps(a2, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(x2, _mm256_loadu_ps(r + 2 * stride + 8));
    b2 = _mm256_add_ps(b2, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(x3, _mm256_loadu_ps(r + 3 * stride));
    a3 = _mm256_add_ps(a3, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(x3, _mm256_loadu_ps(r + 3 * stride + 8));
    b3 = _mm256_add_ps(b3, _mm256_mul_ps(d, d));
  }
  __m256 a = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(a0, a1), a2), a3);
  __m256 b = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(b0, b1), b2), b3);
  for (; i < len; ++i) {
    const float* r = col + i * stride;
    const __m256 xi = _mm256_set1_ps(x[i]);
    __m256 d = _mm256_sub_ps(xi, _mm256_loadu_ps(r));
    a = _mm256_add_ps(a, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(xi, _mm256_loadu_ps(r + 8));
    b = _mm256_add_ps(b, _mm256_mul_ps(d, d));
  }
  *lo = a;
  *hi = b;
}

// Distances8's loads: a full vector, or only the lanes of `mask` (the
// others read as 0) for the last, partial vector of centroids.
struct Load8 {
  __m256 operator()(const float* p) const { return _mm256_loadu_ps(p); }
};
struct MaskLoad8 {
  __m256i mask;
  __m256 operator()(const float* p) const {
    return _mm256_maskload_ps(p, mask);
  }
};

// Lanes [0, remaining) set.
inline __m256i TailMask(size_t remaining) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(remaining)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Lane-wise running minimum: where `take` is set, `d` replaces `*best` and
// `idx` replaces `*best_idx`.
inline void TakeWhere(__m256 take, __m256 d, __m256i idx, __m256* best,
                      __m256i* best_idx) {
  *best = _mm256_blendv_ps(*best, d, take);
  *best_idx = _mm256_castps_si256(_mm256_blendv_ps(
      _mm256_castsi256_ps(*best_idx), _mm256_castsi256_ps(idx), take));
}

// The minimum over the 8 lanes of `v`, in every lane.
inline __m256 MinOfLanes(__m256 v) {
  v = _mm256_min_ps(v, _mm256_permute2f128_ps(v, v, 1));
  v = _mm256_min_ps(v, _mm256_shuffle_ps(v, v, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm256_min_ps(v, _mm256_shuffle_ps(v, v, _MM_SHUFFLE(2, 3, 0, 1)));
}

// The smallest unsigned 32-bit lane of `v`, in every lane.
inline __m256i MinOfLanesU32(__m256i v) {
  v = _mm256_min_epu32(v, _mm256_permute2x128_si256(v, v, 1));
  v = _mm256_min_epu32(v, _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm256_min_epu32(v, _mm256_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
}

// `idx` in the lanes where `best` equals `m`, UINT32_MAX elsewhere.
inline __m256i IndexWhereEqual(__m256 best, __m256 m, __m256i idx) {
  const __m256i none = _mm256_set1_epi32(-1);
  const __m256 eq = _mm256_cmp_ps(best, m, _CMP_EQ_OQ);
  return _mm256_blendv_epi8(none, idx, _mm256_castps_si256(eq));
}

}  // namespace

void Avx2CentroidDistances(const float* x, const float* table, size_t len,
                           size_t stride, size_t count, float* out) {
  size_t c = 0;
  for (; c + 16 <= count; c += 16) {
    __m256 lo, hi;
    Distances16(x, table + c, len, stride, &lo, &hi);
    _mm256_storeu_ps(out + c, lo);
    _mm256_storeu_ps(out + c + 8, hi);
  }
  if (c + 8 <= count) {
    _mm256_storeu_ps(out + c, Distances8(x, table + c, len, stride, Load8{}));
    c += 8;
  }
  if (c < count) {
    // Fewer than 8 centroids left (in the codebooks, only dictionaries of
    // 2 or 4 entries): masked lanes load 0 and are never stored, so
    // nothing past the requested centroids is read or written.
    const __m256i mask = TailMask(count - c);
    const __m256 d = Distances8(x, table + c, len, stride, MaskLoad8{mask});
    _mm256_maskstore_ps(out + c, mask, d);
  }
}

uint32_t Avx2CentroidNearest(const float* x, const float* table, size_t len,
                             size_t stride, size_t count, float* distance) {
  // Two running minima: `best_a` sees the first 8 of every 16 centroids
  // (and a last full vector), `best_b` the second 8, each in ascending
  // index order, so every lane holds the first minimum of its centroids.
  __m256 best_a = _mm256_set1_ps(std::numeric_limits<float>::max());
  __m256 best_b = best_a;
  __m256i idx_a = _mm256_setzero_si256();
  __m256i idx_b = _mm256_setzero_si256();
  __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i step = _mm256_set1_epi32(8);
  size_t c = 0;
  for (; c + 16 <= count; c += 16) {
    __m256 lo, hi;
    Distances16(x, table + c, len, stride, &lo, &hi);
    // Ordered '<': a NaN distance never becomes the minimum.
    TakeWhere(_mm256_cmp_ps(lo, best_a, _CMP_LT_OQ), lo, idx, &best_a, &idx_a);
    idx = _mm256_add_epi32(idx, step);
    TakeWhere(_mm256_cmp_ps(hi, best_b, _CMP_LT_OQ), hi, idx, &best_b, &idx_b);
    idx = _mm256_add_epi32(idx, step);
  }
  if (c + 8 <= count) {
    const __m256 d = Distances8(x, table + c, len, stride, Load8{});
    TakeWhere(_mm256_cmp_ps(d, best_a, _CMP_LT_OQ), d, idx, &best_a, &idx_a);
    idx = _mm256_add_epi32(idx, step);
    c += 8;
  }
  if (c < count) {
    // Masked lanes load 0 and compute a distance that is never taken.
    const __m256i mask = TailMask(count - c);
    const __m256 d = Distances8(x, table + c, len, stride, MaskLoad8{mask});
    const __m256 take = _mm256_and_ps(_mm256_cmp_ps(d, best_b, _CMP_LT_OQ),
                                      _mm256_castsi256_ps(mask));
    TakeWhere(take, d, idx, &best_b, &idx_b);
  }
  // The smallest distance, then the lowest index among the lanes holding
  // it. A lane never taken holds (FLT_MAX, 0), so with no distance below
  // FLT_MAX the answer is 0.
  const __m256 m = MinOfLanes(_mm256_min_ps(best_a, best_b));
  const __m256i cand = MinOfLanesU32(_mm256_min_epu32(
      IndexWhereEqual(best_a, m, idx_a), IndexWhereEqual(best_b, m, idx_b)));
  *distance = _mm256_cvtss_f32(m);
  return static_cast<uint32_t>(_mm256_cvtsi256_si32(cand));
}

}  // namespace internal
}  // namespace vaq
