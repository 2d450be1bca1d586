// AVX2 scan kernel. This is the only core translation unit compiled with
// -mavx2 (see src/CMakeLists.txt); callers reach it through the runtime
// dispatch in scan.cc, so the binary stays safe on CPUs without AVX2. The centroid-distance kernels live in
// src/clustering/centroid_kernel_avx2.cc.
//
// The ADC accumulation kernel is gather-bound: for each subspace stripe it
// widens 8 uint16 codes to lane indices, gathers 8 LUT floats, and adds
// them into 8 register-resident accumulators covering the 64-row block.
// A call that covers only some 8-lane groups of the block (a partition
// that starts or ends inside it) runs one register per group instead.
// Each lane adds its subspaces in ascending order — the same float addition
// sequence as the scalar kernel — so the sums are bit-identical, not just
// close.

#include <cstddef>
#include <cstdint>

#include <immintrin.h>

#include "core/scan.h"

namespace vaq {
namespace internal {

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

}  // namespace internal
}  // namespace vaq
