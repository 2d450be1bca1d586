#include "core/ti_partition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/scan.h"

namespace vaq {

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
  // decoded over the prefix subspaces.
  Rng rng(options.seed);
  const std::vector<size_t> picks =
      rng.SampleWithoutReplacement(n, num_clusters);
  centroids_.Resize(num_clusters, prefix_dims);
  std::vector<float> decoded(books.dim());
  for (size_t c = 0; c < num_clusters; ++c) {
    books.DecodeRow(codes.row(picks[c]), decoded.data());
    std::copy_n(decoded.data(), prefix_dims, centroids_.row(c));
  }

  // Assign every code to its nearest centroid. Distances between decoded
  // codes and centroids decompose over subspaces, so one lookup table per
  // centroid turns each assignment into prefix_subspaces_ table adds.
  std::vector<std::vector<float>> cluster_luts(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    books.BuildPrefixLookupTable(centroids_.row(c), prefix_subspaces_,
                                 &cluster_luts[c]);
  }

  clusters_.assign(num_clusters, Cluster{});
  std::vector<uint32_t> assignment(n);
  std::vector<float> best_dist(n);
  ParallelFor(n, options.num_threads, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const uint16_t* code = codes.row(r);
      float best = std::numeric_limits<float>::max();
      size_t best_c = 0;
      for (size_t c = 0; c < num_clusters; ++c) {
        const float dist = books.PrefixAdcDistance(
            code, cluster_luts[c].data(), prefix_subspaces_);
        if (dist < best) {
          best = dist;
          best_c = c;
        }
      }
      assignment[r] = static_cast<uint32_t>(best_c);
      best_dist[r] = std::sqrt(best);
    }
  });
  std::vector<std::vector<std::pair<float, uint32_t>>> staged(num_clusters);
  for (size_t r = 0; r < n; ++r) {
    staged[assignment[r]].push_back({best_dist[r], static_cast<uint32_t>(r)});
  }

  // Sort each cluster ascending by centroid distance (Section III-D keeps
  // members ordered from closest to furthest).
  for (size_t c = 0; c < num_clusters; ++c) {
    auto& members = staged[c];
    std::sort(members.begin(), members.end());
    clusters_[c].ids.reserve(members.size());
    clusters_[c].distances.reserve(members.size());
    for (const auto& [dist, id] : members) {
      clusters_[c].ids.push_back(id);
      clusters_[c].distances.push_back(dist);
    }
  }
  built_ = true;
  return Status::OK();
}

void TiPartition::QueryDistances(const float* projected_query,
                                 std::vector<float>* out) const {
  VAQ_DCHECK(built_);
  const size_t pd = prefix_dims();
  out->resize(num_clusters());
  for (size_t c = 0; c < num_clusters(); ++c) {
    (*out)[c] =
        std::sqrt(SquaredL2(projected_query, centroids_.row(c), pd));
  }
}

void TiPartition::Save(std::ostream& os) const {
  WritePod<uint8_t>(os, built_ ? 1 : 0);
  WritePod<uint64_t>(os, prefix_subspaces_);
  WriteMatrix(os, centroids_);
  WritePod<uint64_t>(os, clusters_.size());
  for (const auto& cluster : clusters_) {
    WriteVector(os, cluster.ids);
    WriteVector(os, cluster.distances);
  }
}

Status TiPartition::Load(std::istream& is) {
  uint8_t built = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &built));
  uint64_t prefix = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &prefix));
  VAQ_RETURN_IF_ERROR(ReadMatrix(is, &centroids_));
  uint64_t num = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &num));
  // Every cluster costs at least 16 payload bytes (two vector headers);
  // bound the resize on seekable streams.
  const int64_t remaining = RemainingBytes(is);
  if (remaining >= 0 && num > static_cast<uint64_t>(remaining) / 16) {
    return Status::IoError("TI cluster count exceeds remaining payload "
                           "(corrupted file?)");
  }
  clusters_.assign(num, Cluster{});
  for (auto& cluster : clusters_) {
    VAQ_RETURN_IF_ERROR(ReadVector(is, &cluster.ids));
    VAQ_RETURN_IF_ERROR(ReadVector(is, &cluster.distances));
    if (cluster.ids.size() != cluster.distances.size()) {
      return Status::IoError("corrupted TI partition: id/distance arrays "
                             "disagree in length");
    }
  }
  prefix_subspaces_ = prefix;
  built_ = built != 0;
  return Status::OK();
}

Status TiPartition::ValidateInvariants(size_t num_rows, size_t num_subspaces,
                                       size_t expected_prefix_dims) const {
  if (!built_) return Status::FailedPrecondition("TI partition is not built");
  if (prefix_subspaces_ == 0 || prefix_subspaces_ > num_subspaces) {
    return Status::Internal("TI prefix_subspaces outside [1, m]");
  }
  if (centroids_.cols() != expected_prefix_dims) {
    return Status::Internal("TI centroid width disagrees with the layout's "
                            "prefix dimensions");
  }
  if (centroids_.rows() != clusters_.size() || clusters_.empty()) {
    return Status::Internal("TI centroid/cluster counts disagree");
  }
  for (size_t i = 0; i < centroids_.size(); ++i) {
    if (!std::isfinite(centroids_.data()[i])) {
      return Status::Internal("TI centroids contain non-finite values");
    }
  }
  for (const Cluster& cluster : clusters_) {
    if (cluster.ids.size() != cluster.distances.size()) {
      return Status::Internal("TI id/distance arrays disagree in length");
    }
    float prev = 0.f;
    for (const float d : cluster.distances) {
      if (!std::isfinite(d) || d < 0.f || d < prev) {
        return Status::Internal("TI cached distances are not sorted "
                                "non-negative finite values");
      }
      prev = d;
    }
  }
  return ValidatePartitionCover(
      num_rows, clusters_.size(),
      [this](size_t c) -> const std::vector<uint32_t>& {
        return clusters_[c].ids;
      },
      "TI clusters");
}

}  // namespace vaq
