#ifndef VAQ_CLUSTERING_CENTROID_KERNEL_H_
#define VAQ_CLUSTERING_CENTROID_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace vaq {

/// Which instruction set computes centroid distances.
enum class CentroidKernelType {
  kAuto,    ///< AVX2 when compiled in and supported, unless the
            ///< VAQ_SCAN_KERNEL=scalar environment override is set
  kScalar,  ///< always available
  kAvx2,    ///< falls back to kScalar when the binary or CPU lacks AVX2
};

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

/// Resolves a kernel choice against what this binary/CPU supports.
const CentroidKernel& GetCentroidKernel(
    CentroidKernelType type = CentroidKernelType::kAuto);

/// True when the AVX2 centroid kernel was compiled in and the CPU
/// supports it.
bool Avx2CentroidKernelAvailable();

}  // namespace vaq

#endif  // VAQ_CLUSTERING_CENTROID_KERNEL_H_
