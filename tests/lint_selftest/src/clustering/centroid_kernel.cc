// Seeded-violation fixture (NOT compiled; see ../../README.md). Path
// mirrors src/clustering/centroid_kernel.cc so the kernel rules arm on the
// centroid kernels.

#include <vector>

namespace vaq {

// Not a kernel: building a table once per k-means iteration is legal and
// must NOT be reported.
void DimensionMajor(const float* centroids, std::vector<float>* table) {
  table->resize(64);
  (void)centroids;
}

void ScalarCentroidDistances(const float* x, const float* table, size_t len,
                             size_t stride, size_t count, float* out) {
  std::vector<float> column(len);  // seed: kernel-no-alloc
  (void)x;
  (void)table;
  (void)stride;
  for (size_t c = 0; c < count; ++c) out[c] = column[0];
}

uint32_t ScalarCentroidNearest(const float* x, const float* table,
                               size_t len, size_t stride, size_t count,
                               float* distance) {
  std::vector<float> tile(count);  // seed: kernel-no-alloc
  (void)x;
  (void)table;
  (void)len;
  (void)stride;
  *distance = tile[0];
  return 0;
}

}  // namespace vaq
