#include "core/ti_partition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "clustering/centroid_kernel.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/ops.h"

namespace vaq {
namespace {

/// Blocks per tile of the assignment pass: each cluster's prefix lookup
/// table is read for a whole tile of rows before the next one's, so it is
/// reused while it sits in L1/L2. Block at a time (1), assigning 55k
/// SALD-like rows to 500 clusters (64 KB tables) took 0.11 s on 4 AVX2
/// cores; tiles of 16 took 0.05 s, the best of 4, 8, 16, 32 and 64.
constexpr size_t kTileBlocks = 16;

/// Nearest of `num_clusters` clusters for each row of blocks
/// [first, first + count) of `codes`, by the prefix lookup tables in
/// `luts` (`lut_size` floats per cluster, back to back): `nearest[r]` is
/// tile row r's first strict minimum over the clusters in ascending order
/// (the lowest index among exact ties; 0 when no sum is below FLT_MAX) and
/// `best[r]` that sum. Each sum starts at 0.f and adds subspaces
/// [0, prefix) in ascending order, as a row-at-a-time prefix ADC sum does,
/// so both are bit-identical to it.
void NearestClusters(const BlockedCodes& codes, size_t first, size_t count,
                     const float* luts, size_t lut_size, size_t num_clusters,
                     const uint32_t* lut_offsets, size_t prefix,
                     const ScanKernel& kernel, float* best,
                     uint32_t* nearest) {
  float acc[kScanBlockSize];
  std::fill_n(best, count * kScanBlockSize, std::numeric_limits<float>::max());
  std::fill_n(nearest, count * kScanBlockSize, 0u);
  for (size_t c = 0; c < num_clusters; ++c) {
    const float* lut = luts + c * lut_size;
    for (size_t t = 0; t < count; ++t) {
      std::fill_n(acc, kScanBlockSize, 0.f);
      kernel.accumulate(codes, first + t, lut, lut_offsets, 0, prefix, 0,
                        kScanBlockSize / kScanLaneGroup, acc);
      float* tile_best = best + t * kScanBlockSize;
      uint32_t* tile_nearest = nearest + t * kScanBlockSize;
      for (size_t i = 0; i < kScanBlockSize; ++i) {
        if (acc[i] < tile_best[i]) {
          tile_best[i] = acc[i];
          tile_nearest[i] = static_cast<uint32_t>(c);
        }
      }
    }
  }
}

}  // namespace

Status TiPartition::Build(const CodeMatrix& codes,
                          const VariableCodebooks& books,
                          const TiPartitionOptions& options) {
  if (!books.trained()) {
    return Status::FailedPrecondition("codebooks must be trained first");
  }
  if (codes.rows() == 0) {
    return Status::InvalidArgument("cannot partition an empty code set");
  }
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("need at least one TI cluster");
  }
  const size_t n = codes.rows();
  const size_t num_clusters = std::min(options.num_clusters, n);
  prefix_subspaces_ =
      std::clamp<size_t>(options.prefix_subspaces, 1, books.num_subspaces());
  const size_t prefix_dims = books.layout().span(prefix_subspaces_ - 1).offset +
                             books.layout().span(prefix_subspaces_ - 1).length;

  // Algorithm 3 lines 24-32: random encoded samples become centroids,
  // decoded over the prefix subspaces, one per row until they are stored.
  Rng rng(options.seed);
  const std::vector<size_t> picks =
      rng.SampleWithoutReplacement(n, num_clusters);
  FloatMatrix centroids(num_clusters, prefix_dims);
  std::vector<float> decoded(books.dim());
  for (size_t c = 0; c < num_clusters; ++c) {
    books.DecodeRow(codes.row(picks[c]), decoded.data());
    std::copy_n(decoded.data(), prefix_dims, centroids.row(c));
  }

  // Assign every code to its nearest centroid (Algorithm 3 lines 33-48).
  // Distances between decoded codes and centroids decompose over
  // subspaces, so with one prefix lookup table per centroid an assignment
  // is prefix_subspaces_ table adds: the query scan's accumulation, run on
  // its kernel over the codes blocked in row order.
  const size_t lut_size = books.prefix_lut_entries(prefix_subspaces_);
  std::vector<float> luts(num_clusters * lut_size);
  ParallelFor(num_clusters, options.num_threads, [&](size_t begin,
                                                      size_t end) {
    std::vector<float> lut;
    for (size_t c = begin; c < end; ++c) {
      books.BuildPrefixLookupTable(centroids.row(c), prefix_subspaces_, &lut);
      std::copy(lut.begin(), lut.end(), luts.begin() + c * lut_size);
    }
  });
  const BlockedCodes blocked = BlockedCodes::Build(codes);
  const ScanKernel& kernel = GetScanKernel(ScanKernelType::kAuto);
  std::vector<uint32_t> assignment(n);
  std::vector<float> best_dist(n);
  ParallelFor(blocked.num_blocks(), options.num_threads,
              [&](size_t begin, size_t end) {
    float best[kTileBlocks * kScanBlockSize];
    uint32_t nearest[kTileBlocks * kScanBlockSize];
    for (size_t first = begin; first < end; first += kTileBlocks) {
      const size_t count = std::min(kTileBlocks, end - first);
      NearestClusters(blocked, first, count, luts.data(), lut_size,
                      num_clusters, books.lut_offsets(), prefix_subspaces_,
                      kernel, best, nearest);
      // The last block's padded lanes are discarded.
      const size_t row0 = first * kScanBlockSize;
      const size_t rows = std::min(n - row0, count * kScanBlockSize);
      for (size_t r = 0; r < rows; ++r) {
        assignment[row0 + r] = nearest[r];
        best_dist[row0 + r] = std::sqrt(best[r]);
      }
    }
  });

  // Sort each cluster ascending by centroid distance (Section III-D keeps
  // members ordered from closest to furthest), ties by row id.
  members_ = Partitioning::FromAssignment(assignment, num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    std::sort(members_.ids.begin() + members_.begin(c),
              members_.ids.begin() + members_.end(c),
              [&](uint32_t a, uint32_t b) {
                return std::pair(best_dist[a], a) <
                       std::pair(best_dist[b], b);
              });
  }
  distances_.resize(n);
  for (size_t i = 0; i < n; ++i) distances_[i] = best_dist[members_.ids[i]];
  centroids_ = Transpose(centroids);
  BlockCodes(codes);
  return Status::OK();
}

void TiPartition::QueryDistances(const float* projected_query,
                                 std::vector<float>* out) const {
  const size_t count = num_partitions();
  out->resize(count);
  GetCentroidKernel().distances(projected_query, centroids_.data(),
                                prefix_dims(), count, count, out->data());
  for (float& d : *out) d = std::sqrt(d);
}

void TiPartition::Save(std::ostream& os) const {
  WritePod<uint8_t>(os, num_partitions() != 0 ? 1 : 0);
  WritePod<uint64_t>(os, prefix_subspaces_);
  SaveCentroids(os);
  SavePartitions(os);
}

Status TiPartition::Load(std::istream& is) {
  uint8_t built = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &built));
  if (built == 0) return Status::IoError("TI partition was saved unbuilt");
  uint64_t prefix = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &prefix));
  VAQ_RETURN_IF_ERROR(LoadCentroids(is));
  VAQ_RETURN_IF_ERROR(LoadPartitions(is, /*with_distances=*/true));
  prefix_subspaces_ = prefix;
  return Status::OK();
}

Status TiPartition::ValidateInvariants(size_t num_rows,
                                       const SubspaceLayout& layout) const {
  if (prefix_subspaces_ == 0 || prefix_subspaces_ > layout.num_subspaces()) {
    return Status::Internal("TI prefix_subspaces outside [1, m]");
  }
  const SubspaceSpan& last = layout.span(prefix_subspaces_ - 1);
  return Validate(num_rows, last.offset + last.length, "TI clusters");
}

}  // namespace vaq
