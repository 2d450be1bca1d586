// AVX2 scan kernel. This is the only core translation unit compiled with
// -mavx2 (see src/CMakeLists.txt); callers reach it through the runtime
// dispatch in scan.cc, so the binary stays safe on CPUs without AVX2. The centroid-distance kernels live in
// src/clustering/centroid_kernel_avx2.cc.
//
// The ADC accumulation kernel is gather-bound: for each subspace stripe it
// widens 8 codes (uint16 in the wide stripes, uint8 in the narrow ones) to
// lane indices, gathers 8 LUT floats, and adds them into 8
// register-resident accumulators covering the 64-row block. A call that
// covers only some 8-lane groups of the block (a partition that starts or
// ends inside it) runs one register per group instead. Each lane adds its
// subspaces in ascending order — the same float addition sequence as the
// scalar kernel — so the sums are bit-identical, not just close.

#include <cstddef>
#include <cstdint>

#include <immintrin.h>

#include "core/scan.h"

namespace vaq {
namespace internal {

namespace {

// Widens the 8 codes of type Code at `codes` to lane indices and gathers
// their LUT entries from `base`.
template <typename Code>
inline __m256 Gather8(const float* base, const uint8_t* codes) {
  // reinterpret_cast to const __m128i* is the documented calling
  // convention of _mm_loadu_si128 / _mm_loadl_epi64 — Intel defines the
  // intrinsics to perform unaligned, aliasing-safe loads (of 128 and 64
  // bits), so this is the one place the codebase's no-reinterpret_cast
  // rule does not apply (everything else goes through common/io.h
  // LoadAs/StoreAs). A memcpy into a __m128i would be equivalent but
  // obscures that the pointer never converts to an lvalue of the wrong
  // type.
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
  const __m128i* p = reinterpret_cast<const __m128i*>(codes);
  __m256i lanes;
  if constexpr (sizeof(Code) == 2) {
    lanes = _mm256_cvtepu16_epi32(_mm_loadu_si128(p));
  } else {
    lanes = _mm256_cvtepu8_epi32(_mm_loadl_epi64(p));
  }
  return _mm256_i32gather_ps(base, lanes, 4);
}

}  // namespace

template <typename Code>
void Avx2Accumulate(const uint8_t* codes, const float* lut,
                    const uint32_t* lut_offsets, size_t subspaces,
                    size_t groups, float* acc) {
  static_assert(kScanBlockSize == 8 * kScanLaneGroup,
                "kernel unrolls 8 vectors of 8 lanes per block");
  constexpr size_t kStripeBytes = sizeof(Code) * kScanBlockSize;
  constexpr size_t kGroupBytes = sizeof(Code) * kScanLaneGroup;
  if (groups != kScanBlockSize / kScanLaneGroup) {
    // Part of a block: one register per group, subspaces innermost.
    for (size_t lane = 0; lane < groups * kScanLaneGroup;
         lane += kScanLaneGroup) {
      __m256 a = _mm256_loadu_ps(acc + lane);
      for (size_t s = 0; s < subspaces; ++s) {
        a = _mm256_add_ps(a, Gather8<Code>(lut + lut_offsets[s],
                                           codes + s * kStripeBytes +
                                               lane * sizeof(Code)));
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
    const uint8_t* stripe = codes + s * kStripeBytes;
    a0 = _mm256_add_ps(a0, Gather8<Code>(base, stripe + 0 * kGroupBytes));
    a1 = _mm256_add_ps(a1, Gather8<Code>(base, stripe + 1 * kGroupBytes));
    a2 = _mm256_add_ps(a2, Gather8<Code>(base, stripe + 2 * kGroupBytes));
    a3 = _mm256_add_ps(a3, Gather8<Code>(base, stripe + 3 * kGroupBytes));
    a4 = _mm256_add_ps(a4, Gather8<Code>(base, stripe + 4 * kGroupBytes));
    a5 = _mm256_add_ps(a5, Gather8<Code>(base, stripe + 5 * kGroupBytes));
    a6 = _mm256_add_ps(a6, Gather8<Code>(base, stripe + 6 * kGroupBytes));
    a7 = _mm256_add_ps(a7, Gather8<Code>(base, stripe + 7 * kGroupBytes));
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

// The two instantiations scan.cc's kernel table points at.
template void Avx2Accumulate<uint16_t>(const uint8_t*, const float*,
                                       const uint32_t*, size_t, size_t,
                                       float*);
template void Avx2Accumulate<uint8_t>(const uint8_t*, const float*,
                                      const uint32_t*, size_t, size_t,
                                      float*);

}  // namespace internal
}  // namespace vaq
