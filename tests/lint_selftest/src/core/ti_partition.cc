// Seeded-violation fixture (NOT compiled; see ../../README.md). Path
// mirrors src/core/ti_partition.cc so the kernel rules arm on
// NearestClusters.

#include <vector>

namespace vaq {

void NearestClusters(const float* luts, size_t num_clusters, float* best) {
  std::vector<float> acc(64);  // seed: kernel-no-alloc
  (void)luts;
  (void)num_clusters;
  best[0] = acc[0];
}

// Not a kernel: the build allocates its lookup tables once per call,
// which is legal and must NOT be reported.
Status TiPartition::Build(const CodeMatrix& codes,
                          const VariableCodebooks& books,
                          const TiPartitionOptions& options) {
  std::vector<float> luts(options.num_clusters);
  (void)codes;
  (void)books;
  return Status::OK();
}

}  // namespace vaq
