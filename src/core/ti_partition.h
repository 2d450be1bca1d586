#ifndef VAQ_CORE_TI_PARTITION_H_
#define VAQ_CORE_TI_PARTITION_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/codebook.h"
#include "core/scan.h"

namespace vaq {

struct TiPartitionOptions {
  /// Number of triangle-inequality clusters (the paper uses 1000 for
  /// million-scale datasets).
  size_t num_clusters = 1000;
  /// How many leading subspaces the cluster centroids span
  /// (TIClusterNumSubs in Algorithms 3-4). The triangle inequality is
  /// applied in this prefix space, which lower-bounds the full distance.
  size_t prefix_subspaces = 4;
  uint64_t seed = 42;
  /// Threads for the centroid lookup tables and the assignment pass, which
  /// split the clusters and the 64-row code blocks between them (0 =
  /// hardware concurrency). The partition does not depend on it.
  size_t num_threads = 1;
};

/// Data-skipping structure of Sections III-D/III-E.
///
/// Encoded vectors are partitioned by their nearest of `num_clusters`
/// randomly-sampled decoded codes (prefix dims only); each member caches
/// its (non-squared) prefix distance to the centroid and members are kept
/// sorted by that distance. At query time, for a best-so-far radius r and
/// query-to-centroid distance dq, only members with cached distance in
/// [dq - r, dq + r] can beat the best-so-far — found by binary search —
/// because |dq - dx| <= d(query, member) by the triangle inequality.
///
/// The clusters are a PartitionedCodes, the store VaqIndex scans: cluster
/// c is storage rows [begin(c), end(c)) of members(), its members sorted
/// ascending by (cached distance, row id), with the codes blocked in that
/// order, the prefix centroids as the partitions' (dimension-major)
/// centroids and the cached distances as distances().
class TiPartition : public PartitionedCodes {
 public:
  /// Builds the partition over `codes` using `books` to decode, then
  /// blocks `codes` in cluster order. The cluster count is capped at the
  /// number of rows.
  Status Build(const CodeMatrix& codes, const VariableCodebooks& books,
               const TiPartitionOptions& options);

  size_t prefix_subspaces() const { return prefix_subspaces_; }
  size_t prefix_dims() const { return centroids_.rows(); }

  /// Non-squared prefix distances from a projected query to every cluster
  /// centroid: the square roots of the centroid kernel's distances, which
  /// RankPartitions ranks.
  void QueryDistances(const float* projected_query,
                      std::vector<float>* out) const;

  /// Writes the TIPT section: a built flag, the prefix, the centroids
  /// (row-major, SaveCentroids) and the clusters (SavePartitions). The
  /// codes are not part of it.
  void Save(std::ostream& os) const;
  /// Reads what Save wrote; the caller validates, then blocks the codes.
  Status Load(std::istream& is);

  /// Post-load semantic validation against the index the partition serves:
  /// prefix_subspaces() in [1, layout.num_subspaces()], then the store's
  /// Validate with the width of the layout's first prefix_subspaces()
  /// spans.
  Status ValidateInvariants(size_t num_rows,
                            const SubspaceLayout& layout) const;

 private:
  size_t prefix_subspaces_ = 0;
};

}  // namespace vaq

#endif  // VAQ_CORE_TI_PARTITION_H_
