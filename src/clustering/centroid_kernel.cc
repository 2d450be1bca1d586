#include "clustering/centroid_kernel.h"

#include <algorithm>
#include <limits>

namespace vaq {
namespace internal {
// Defined in centroid_kernel_avx2.cc, the only clustering translation unit
// built with -mavx2, and linked only where the compiler has it
// (src/CMakeLists.txt).
void Avx2CentroidDistances(const float* x, const float* table, size_t len,
                           size_t stride, size_t count, float* out);
uint32_t Avx2CentroidNearest(const float* x, const float* table, size_t len,
                             size_t stride, size_t count, float* distance);
}  // namespace internal

namespace {

constexpr size_t kLanes = 16;

// SquaredL2 (common/matrix.h) from `x` to the `lanes` <= kLanes centroids
// starting at `col`, one table row (one dimension of consecutive
// centroids) per step. Each lane performs SquaredL2's operations in
// SquaredL2's order, so the lane loops vectorize on any SIMD width without
// changing a bit.
inline void DistanceTile(const float* x, const float* col, size_t len,
                         size_t stride, size_t lanes, float* out) {
  float acc0[kLanes] = {}, acc1[kLanes] = {}, acc2[kLanes] = {},
        acc3[kLanes] = {};
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const float* r0 = col + i * stride;
    const float* r1 = r0 + stride;
    const float* r2 = r1 + stride;
    const float* r3 = r2 + stride;
    for (size_t l = 0; l < lanes; ++l) {
      const float d0 = x[i] - r0[l];
      const float d1 = x[i + 1] - r1[l];
      const float d2 = x[i + 2] - r2[l];
      const float d3 = x[i + 3] - r3[l];
      acc0[l] += d0 * d0;
      acc1[l] += d1 * d1;
      acc2[l] += d2 * d2;
      acc3[l] += d3 * d3;
    }
  }
  for (size_t l = 0; l < lanes; ++l) {
    out[l] = acc0[l] + acc1[l] + acc2[l] + acc3[l];
  }
  for (; i < len; ++i) {
    const float* r = col + i * stride;
    for (size_t l = 0; l < lanes; ++l) {
      const float diff = x[i] - r[l];
      out[l] += diff * diff;
    }
  }
}

void ScalarCentroidDistances(const float* x, const float* table, size_t len,
                             size_t stride, size_t count, float* out) {
  for (size_t c0 = 0; c0 < count; c0 += kLanes) {
    DistanceTile(x, table + c0, len, stride, std::min(kLanes, count - c0),
                 out + c0);
  }
}

uint32_t ScalarCentroidNearest(const float* x, const float* table, size_t len,
                               size_t stride, size_t count, float* distance) {
  float best = std::numeric_limits<float>::max();
  uint32_t best_c = 0;
  float tile[kLanes];
  for (size_t c0 = 0; c0 < count; c0 += kLanes) {
    const size_t lanes = std::min(kLanes, count - c0);
    DistanceTile(x, table + c0, len, stride, lanes, tile);
    for (size_t l = 0; l < lanes; ++l) {
      if (tile[l] < best) {
        best = tile[l];
        best_c = static_cast<uint32_t>(c0 + l);
      }
    }
  }
  *distance = best;
  return best_c;
}

constexpr CentroidKernel kScalarKernel{&ScalarCentroidDistances,
                                       &ScalarCentroidNearest, "scalar"};
#if defined(VAQ_AVX2_KERNELS)
constexpr CentroidKernel kAvx2Kernel{&internal::Avx2CentroidDistances,
                                     &internal::Avx2CentroidNearest, "avx2"};
#else
// Never picked: without AVX2 kernels UseAvx2Kernels is always false.
constexpr CentroidKernel kAvx2Kernel = kScalarKernel;
#endif

}  // namespace

const CentroidKernel& GetCentroidKernel(ScanKernelType type) {
  return UseAvx2Kernels(type) ? kAvx2Kernel : kScalarKernel;
}

}  // namespace vaq
