// AVX2 kernels. This is the only translation unit compiled with -mavx2
// (see src/core/CMakeLists.txt); callers reach it through the runtime
// dispatch in scan.cc, so the binary stays safe on CPUs without AVX2.
//
// The ADC accumulation kernel is gather-bound: for each subspace stripe it
// widens 8 uint16 codes to lane indices, gathers 8 LUT floats, and adds
// them into 8 register-resident accumulators covering the 64-row block.
// A call that covers only some 8-lane groups of the block (a partition
// that starts or ends inside it) runs one register per group instead.
// Each lane adds its subspaces in ascending order — the same float addition
// sequence as the scalar kernel — so the sums are bit-identical, not just
// close.
//
// The centroid-distance kernel computes 8 centroids per vector: one row of
// a dimension-major dictionary holds one dimension of consecutive
// centroids, so a plain load feeds 8 lanes. Each lane repeats SquaredL2's
// operation order with separate mul and add (this TU is built without
// -mfma), so every distance is bit-identical to the scalar one.

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "core/scan.h"

namespace vaq {
namespace internal {

#if defined(__AVX2__)

namespace {

// Widens the 8 uint16 codes at `codes` to lane indices and gathers their
// LUT entries from `base`.
inline __m256 Gather8(const float* base, const uint16_t* codes) {
  // reinterpret_cast to const __m128i* is the documented calling
  // convention of _mm_loadu_si128 — Intel defines the intrinsic to
  // perform an unaligned, aliasing-safe 128-bit load, so this is the
  // one place the codebase's no-reinterpret_cast rule does not apply
  // (everything else goes through common/io.h LoadAs/StoreAs). A
  // memcpy into a __m128i would be equivalent but obscures that the
  // pointer never converts to an lvalue of the wrong type.
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
  const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes));
  return _mm256_i32gather_ps(base, _mm256_cvtepu16_epi32(c), 4);
}

}  // namespace

void Avx2Accumulate(const uint16_t* codes, const float* lut,
                    const uint32_t* lut_offsets, size_t subspaces,
                    size_t groups, float* acc) {
  static_assert(kScanBlockSize == 8 * kScanLaneGroup,
                "kernel unrolls 8 vectors of 8 lanes per block");
  if (groups != kScanBlockSize / kScanLaneGroup) {
    // Part of a block: one register per group, subspaces innermost.
    for (size_t lane = 0; lane < groups * kScanLaneGroup;
         lane += kScanLaneGroup) {
      __m256 a = _mm256_loadu_ps(acc + lane);
      for (size_t s = 0; s < subspaces; ++s) {
        a = _mm256_add_ps(a, Gather8(lut + lut_offsets[s],
                                     codes + s * kScanBlockSize + lane));
      }
      _mm256_storeu_ps(acc + lane, a);
    }
    return;
  }
  __m256 a0 = _mm256_loadu_ps(acc + 0);
  __m256 a1 = _mm256_loadu_ps(acc + 8);
  __m256 a2 = _mm256_loadu_ps(acc + 16);
  __m256 a3 = _mm256_loadu_ps(acc + 24);
  __m256 a4 = _mm256_loadu_ps(acc + 32);
  __m256 a5 = _mm256_loadu_ps(acc + 40);
  __m256 a6 = _mm256_loadu_ps(acc + 48);
  __m256 a7 = _mm256_loadu_ps(acc + 56);
  for (size_t s = 0; s < subspaces; ++s) {
    const float* base = lut + lut_offsets[s];
    const uint16_t* stripe = codes + s * kScanBlockSize;
    a0 = _mm256_add_ps(a0, Gather8(base, stripe + 0));
    a1 = _mm256_add_ps(a1, Gather8(base, stripe + 8));
    a2 = _mm256_add_ps(a2, Gather8(base, stripe + 16));
    a3 = _mm256_add_ps(a3, Gather8(base, stripe + 24));
    a4 = _mm256_add_ps(a4, Gather8(base, stripe + 32));
    a5 = _mm256_add_ps(a5, Gather8(base, stripe + 40));
    a6 = _mm256_add_ps(a6, Gather8(base, stripe + 48));
    a7 = _mm256_add_ps(a7, Gather8(base, stripe + 56));
  }
  _mm256_storeu_ps(acc + 0, a0);
  _mm256_storeu_ps(acc + 8, a1);
  _mm256_storeu_ps(acc + 16, a2);
  _mm256_storeu_ps(acc + 24, a3);
  _mm256_storeu_ps(acc + 32, a4);
  _mm256_storeu_ps(acc + 40, a5);
  _mm256_storeu_ps(acc + 48, a6);
  _mm256_storeu_ps(acc + 56, a7);
}

namespace {

// Distances from `sub` to the 8 centroids starting at `col`, in SquaredL2's
// order. `load` reads 8 consecutive floats of one dictionary row.
template <typename Load>
inline __m256 Distances8(const float* sub, const float* col, size_t len,
                         size_t stride, Load load) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_set1_ps(sub[i]), load(col + i * stride));
    const __m256 d1 = _mm256_sub_ps(_mm256_set1_ps(sub[i + 1]),
                                    load(col + (i + 1) * stride));
    const __m256 d2 = _mm256_sub_ps(_mm256_set1_ps(sub[i + 2]),
                                    load(col + (i + 2) * stride));
    const __m256 d3 = _mm256_sub_ps(_mm256_set1_ps(sub[i + 3]),
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
        _mm256_sub_ps(_mm256_set1_ps(sub[i]), load(col + i * stride));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  return acc;
}

}  // namespace

void Avx2CentroidDistances(const float* sub, const float* dict, size_t len,
                           size_t stride, size_t count, float* out) {
  size_t c = 0;
  for (; c + 8 <= count; c += 8) {
    _mm256_storeu_ps(out + c,
                     Distances8(sub, dict + c, len, stride,
                                [](const float* p) {
                                  return _mm256_loadu_ps(p);
                                }));
  }
  if (c < count) {
    // Fewer than 8 centroids left (in the codebooks, only dictionaries of
    // 2 or 4 entries): masked lanes load 0 and are never stored, so
    // nothing past the requested centroids is read or written.
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count - c)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_maskstore_ps(out + c, mask,
                        Distances8(sub, dict + c, len, stride,
                                   [mask](const float* p) {
                                     return _mm256_maskload_ps(p, mask);
                                   }));
  }
}

#else

// Defensive fallback: if the build system compiled this TU without AVX2
// the dispatcher never selects it, but the symbol must still link.
void Avx2Accumulate(const uint16_t* codes, const float* lut,
                    const uint32_t* lut_offsets, size_t subspaces,
                    size_t groups, float* acc) {
  GetScanKernel(ScanKernelType::kScalar)
      .accumulate_groups(codes, lut, lut_offsets, subspaces, groups, acc);
}

void Avx2CentroidDistances(const float* sub, const float* dict, size_t len,
                           size_t stride, size_t count, float* out) {
  GetScanKernel(ScanKernelType::kScalar)
      .distances(sub, dict, len, stride, count, out);
}

#endif  // __AVX2__

}  // namespace internal
}  // namespace vaq
