#include "clustering/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace vaq {
namespace {
/// Relative inertia improvement below which training stops early.
constexpr double kTol = 1e-4;
}  // namespace

void KMeans::SeedCentroids(const FloatMatrix& data,
                           const KMeansOptions& options) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = std::min(options.k, n);
  Rng rng(options.seed);
  centroids_.Resize(options.k, d);

  // k-means++: first centroid uniform, the rest D^2-weighted.
  std::vector<float> min_dist(n, std::numeric_limits<float>::max());
  size_t first = static_cast<size_t>(rng.NextIndex(n));
  std::copy_n(data.row(first), d, centroids_.row(0));
  for (size_t c = 1; c < k; ++c) {
    const float* last = centroids_.row(c - 1);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float dist = SquaredL2(data.row(i), last, d);
      if (dist < min_dist[i]) min_dist[i] = dist;
      total += min_dist[i];
    }
    size_t pick = 0;
    if (total > 0.0) {
      double target = rng.NextDouble() * total;
      double acc = 0.0;
      for (size_t i = 0; i < n; ++i) {
        acc += min_dist[i];
        if (acc >= target) {
          pick = i;
          break;
        }
      }
    } else {
      pick = static_cast<size_t>(rng.NextIndex(n));
    }
    std::copy_n(data.row(pick), d, centroids_.row(c));
  }

  // Pad with duplicated random points when n < k so that k centroids exist.
  for (size_t c = k; c < options.k; ++c) {
    const size_t pick = static_cast<size_t>(rng.NextIndex(n));
    std::copy_n(data.row(pick), d, centroids_.row(c));
  }
}

Status KMeans::Train(const FloatMatrix& data, const KMeansOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (data.rows() == 0) {
    return Status::InvalidArgument("k-means requires at least one sample");
  }
  if (data.cols() == 0) {
    return Status::InvalidArgument("k-means requires at least one dimension");
  }
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = options.k;

  SeedCentroids(data, options);

  std::vector<uint32_t> assign(n, 0);
  std::vector<float> point_dist(n, 0.f);
  std::vector<size_t> counts(k, 0);
  double prev_inertia = std::numeric_limits<double>::max();

  for (int iter = 0; iter < options.max_iters; ++iter) {
    // Assignment step.
    double inertia = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float* x = data.row(i);
      float best = std::numeric_limits<float>::max();
      uint32_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const float dist = SquaredL2(x, centroids_.row(c), d);
        if (dist < best) {
          best = dist;
          best_c = static_cast<uint32_t>(c);
        }
      }
      assign[i] = best_c;
      point_dist[i] = best;
      inertia += best;
    }

    // Update step.
    std::fill(counts.begin(), counts.end(), size_t{0});
    FloatMatrix sums(k, d, 0.f);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = assign[i];
      ++counts[c];
      const float* x = data.row(i);
      float* srow = sums.row(c);
      for (size_t j = 0; j < d; ++j) srow[j] += x[j];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty-cluster repair: restart at the point currently farthest
        // from its centroid (the classic FAISS/Lloyd fix).
        size_t farthest = 0;
        float worst = -1.f;
        for (size_t i = 0; i < n; ++i) {
          if (point_dist[i] > worst) {
            worst = point_dist[i];
            farthest = i;
          }
        }
        std::copy_n(data.row(farthest), d, centroids_.row(c));
        point_dist[farthest] = 0.f;  // avoid reusing the same point
        continue;
      }
      const float inv = 1.f / static_cast<float>(counts[c]);
      const float* srow = sums.row(c);
      float* crow = centroids_.row(c);
      for (size_t j = 0; j < d; ++j) crow[j] = srow[j] * inv;
    }

    // Convergence check on relative inertia improvement.
    if (prev_inertia < std::numeric_limits<double>::max()) {
      const double denom = std::max(prev_inertia, 1e-30);
      if ((prev_inertia - inertia) / denom < kTol &&
          inertia <= prev_inertia) {
        break;
      }
    }
    prev_inertia = inertia;
  }

  trained_ = true;
  return Status::OK();
}

uint32_t KMeans::Assign(const float* x) const {
  VAQ_DCHECK(trained_);
  const size_t d = dim();
  float best = std::numeric_limits<float>::max();
  uint32_t best_c = 0;
  for (size_t c = 0; c < k(); ++c) {
    const float dist = SquaredL2(x, centroids_.row(c), d);
    if (dist < best) {
      best = dist;
      best_c = static_cast<uint32_t>(c);
    }
  }
  return best_c;
}

std::vector<uint32_t> KMeans::AssignAll(const FloatMatrix& data) const {
  VAQ_CHECK(data.cols() == dim());
  std::vector<uint32_t> out(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) out[i] = Assign(data.row(i));
  return out;
}

}  // namespace vaq
