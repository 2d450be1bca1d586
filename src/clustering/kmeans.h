#ifndef VAQ_CLUSTERING_KMEANS_H_
#define VAQ_CLUSTERING_KMEANS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace vaq {

struct KMeansOptions {
  size_t k = 8;
  int max_iters = 25;
  uint64_t seed = 42;
};

/// Workers for the k-means++ seeding of `n` x `d` rows on up to
/// `num_threads` (0: hardware concurrency). Each round splits a distance
/// pass of n * d floats over them, then runs a serial step over the n
/// rows; more than one worker only when every worker gets at least 2^17
/// floats of rows and the floats saved outweigh a fixed cost per row of
/// splitting, so narrow rows seed on one thread.
size_t SeedWorkerCount(size_t n, size_t d, size_t num_threads);

/// Lloyd's k-means with k-means++ seeding and empty-cluster repair.
///
/// This is the dictionary learner shared by every quantizer in the library
/// (PQ/OPQ/Bolt sub-dictionaries, VAQ's variable-size dictionaries, IMI's
/// coarse quantizers). Deterministic given the seed.
class KMeans {
 public:
  KMeans() = default;

  /// Trains on `data` (n x d). Requires k >= 1 and n >= 1. When n < k the
  /// centroid set is padded with duplicated points so that exactly k
  /// centroids always exist (encoded ids then simply never reference the
  /// padded entries). `num_threads` > 1 splits the seeding's distance
  /// passes (fewer workers when the rows are few or narrow) and each
  /// assignment step over rows (0 picks the hardware concurrency); the
  /// centroids do not depend on it.
  Status Train(const FloatMatrix& data, const KMeansOptions& options,
               size_t num_threads = 1);

  bool trained() const { return trained_; }
  size_t k() const { return centroids_.rows(); }
  size_t dim() const { return centroids_.cols(); }

  /// Cluster centers, one per row.
  const FloatMatrix& centroids() const { return centroids_; }

  /// Moves the centroids out (an index adopting them as its partitions'
  /// centroids), leaving the model untrained.
  FloatMatrix TakeCentroids() {
    trained_ = false;
    return std::move(centroids_);
  }

  /// Index of the nearest centroid to `x` (length dim()): the lowest
  /// index among equally near ones. Transposes the centroids on every
  /// call; assign many rows with AssignAll.
  uint32_t Assign(const float* x) const;

  /// Nearest centroid for every row of `data`, as Assign picks it.
  /// `num_threads` as in Train.
  std::vector<uint32_t> AssignAll(const FloatMatrix& data,
                                  size_t num_threads = 1) const;

 private:
  /// k-means++ seeding; `num_threads` as in Train (the rows of each
  /// round's distance pass are split over them).
  void SeedCentroids(const FloatMatrix& data, const KMeansOptions& options,
                     size_t num_threads);

  bool trained_ = false;
  FloatMatrix centroids_;
};

}  // namespace vaq

#endif  // VAQ_CLUSTERING_KMEANS_H_
