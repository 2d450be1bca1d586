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
/// The clusters are stored as one Partitioning, which is also the storage
/// order of VaqIndex's codes: cluster c is storage rows [begin(c), end(c)),
/// its members sorted ascending by (cached distance, row id).
class TiPartition {
 public:
  TiPartition() = default;

  /// Builds the partition over `codes` using `books` to decode. The
  /// cluster count is capped at the number of rows.
  Status Build(const CodeMatrix& codes, const VariableCodebooks& books,
               const TiPartitionOptions& options);

  size_t num_clusters() const { return members_.size(); }
  size_t prefix_subspaces() const { return prefix_subspaces_; }
  size_t prefix_dims() const { return centroids_.cols(); }
  /// The clusters in CSR form: storage row ranges and storage -> row id.
  const Partitioning& members() const { return members_; }
  /// Each stored member's cached centroid distance, in storage order.
  const std::vector<float>& distances() const { return distances_; }

  /// Cluster centroids in decoded (prefix) float space.
  const FloatMatrix& centroids() const { return centroids_; }

  /// Non-squared prefix distances from a projected query to every cluster
  /// centroid.
  void QueryDistances(const float* projected_query,
                      std::vector<float>* out) const;

  void Save(std::ostream& os) const;
  Status Load(std::istream& is);

  /// Post-load semantic validation against the index the partition serves:
  /// prefix bounds, centroid width, sorted finite cached distances, and —
  /// because TI is a *partition* — every row id in [0, num_rows) exactly
  /// once across clusters. `expected_prefix_dims` is the width of the
  /// layout's first prefix_subspaces() spans.
  Status ValidateInvariants(size_t num_rows, size_t num_subspaces,
                            size_t expected_prefix_dims) const;

 private:
  bool built_ = false;
  size_t prefix_subspaces_ = 0;
  FloatMatrix centroids_;
  Partitioning members_;
  std::vector<float> distances_;
};

}  // namespace vaq

#endif  // VAQ_CORE_TI_PARTITION_H_
