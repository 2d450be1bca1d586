#ifndef VAQ_CLUSTERING_CENTROID_KERNEL_H_
#define VAQ_CLUSTERING_CENTROID_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "common/cpu_features.h"

namespace vaq {

/// Distances from one vector to the centroids of a dimension-major table,
/// the layout of the VAQ dictionaries and of k-means' centroids while it
/// assigns (DESIGN.md §7.1): dimension j of centroid i is
/// `table[j * stride + i]`, so one row of the table holds one dimension of
/// consecutive centroids and a SIMD load feeds one lane per centroid.
///
/// `distances` writes the squared L2 distance from `x` (`len` floats) to
/// each of the `count` centroids:
///
///   out[i] = SquaredL2(x, centroid i, len)   for i in [0, count)
///
/// `nearest` computes the same distances without storing them and returns
/// the lowest index among the strict minima (a distance replaces the best
/// so far only when it is `<` it, scanning from index 0), writing that
/// distance to `*distance`. When no distance is below FLT_MAX (for
/// instance all are NaN) it returns 0 with `*distance` = FLT_MAX, exactly
/// as the scalar loop `best = FLT_MAX; if (d < best) ...` does.
///
/// Every implementation repeats SquaredL2's float operation order (four
/// partial sums over groups of four dims, then their left-to-right sum,
/// then the serial tail; separate mul and add, no FMA), so each distance,
/// and hence each argmin, is bit-identical to SquaredL2's.
struct CentroidKernel {
  using DistancesFn = void (*)(const float* x, const float* table,
                               size_t len, size_t stride, size_t count,
                               float* out);
  using NearestFn = uint32_t (*)(const float* x, const float* table,
                                 size_t len, size_t stride, size_t count,
                                 float* distance);
  DistancesFn distances = nullptr;
  NearestFn nearest = nullptr;
  const char* name = "";
};

/// The centroid kernel of `type` by UseAvx2Kernels (common/cpu_features.h),
/// the same ISA the scan kernel of `type` runs on.
const CentroidKernel& GetCentroidKernel(
    ScanKernelType type = ScanKernelType::kAuto);

}  // namespace vaq

#endif  // VAQ_CLUSTERING_CENTROID_KERNEL_H_
