#include "clustering/kmeans.h"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <limits>

#include "clustering/centroid_kernel.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace vaq {
namespace {
/// Relative inertia improvement below which training stops early.
constexpr double kTol = 1e-4;

/// Floats of rows (rows x dims) each seeding worker needs per round to
/// repay its wait at the round's barrier. Seeding 8000 x 24 rows took
/// longer on 2 threads than on 1; 4000 x 96 rows took 40% less.
constexpr size_t kMinSeedFloatsPerWorker = size_t{1} << 17;

/// What splitting a round's distance pass costs per row, in floats of that
/// pass: the serial step then reads every row's distance back from the
/// workers' caches. Seeding (k = 256, 4 cores, medians of 11) 16000 x 24
/// rows took 17-25 ms on 1 thread and no less on 2-4; 16000 x 32 took
/// 30-35 ms on 1 and 22 on 3; 32000 x 24 took 47-49 ms on 1 and 34 on 4.
constexpr size_t kSeedSplitFloatsPerRow = 16;

/// Row pitch, in floats, of the dimension-major table of k centroids: whole
/// 64-byte lines, an odd number of them. With a power-of-two pitch every
/// row of a 96-d table of 256 centroids maps to the same few L1 sets, and
/// the kernel's walk down the rows misses L1 on nearly every load.
size_t TablePitch(size_t k) {
  size_t lines = (k + 15) / 16;
  if (lines % 2 == 0) ++lines;
  return lines * 16;
}

/// Writes `centroids` (k x d) dimension-major into `table` (d rows of
/// TablePitch(k) floats), the layout the centroid kernel reads. Seeding
/// lays the data rows out the same way.
void DimensionMajor(const FloatMatrix& centroids, FloatMatrix* table) {
  const size_t k = centroids.rows();
  const size_t d = centroids.cols();
  const size_t pitch = TablePitch(k);
  if (table->rows() != d || table->cols() != pitch) table->Resize(d, pitch);
  for (size_t c = 0; c < k; ++c) {
    const float* src = centroids.row(c);
    for (size_t j = 0; j < d; ++j) (*table)(j, c) = src[j];
  }
}

/// Nearest of the `k` centroids in `table` (DimensionMajor's output) for
/// every row of `data` into `assign`, and its squared distance into `dist`
/// when not null; rows split over `num_threads` as in ParallelFor.
void AssignRows(const FloatMatrix& data, const FloatMatrix& table, size_t k,
                size_t num_threads, uint32_t* assign, float* dist) {
  const CentroidKernel::NearestFn nearest = GetCentroidKernel().nearest;
  const size_t d = table.rows();
  const size_t pitch = table.cols();
  ParallelFor(data.rows(), num_threads, [&](size_t begin, size_t end) {
    float best = 0.f;
    for (size_t i = begin; i < end; ++i) {
      assign[i] = nearest(data.row(i), table.data(), d, pitch, k,
                          dist != nullptr ? &dist[i] : &best);
    }
  });
}

}  // namespace

size_t SeedWorkerCount(size_t n, size_t d, size_t num_threads) {
  const size_t t = std::clamp<size_t>(n * d / kMinSeedFloatsPerWorker, 1,
                                      WorkerCount(n, num_threads));
  // t workers save n * d * (1 - 1/t) floats of the distance pass a round
  // and pay kSeedSplitFloatsPerRow * n for the split.
  return d * (t - 1) > kSeedSplitFloatsPerRow * t ? t : 1;
}

void KMeans::SeedCentroids(const FloatMatrix& data,
                           const KMeansOptions& options, size_t num_threads) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = std::min(options.k, n);
  Rng rng(options.seed);
  centroids_.Resize(options.k, d);

  // k-means++: first centroid uniform, the rest D^2-weighted.
  size_t first = static_cast<size_t>(rng.NextIndex(n));
  std::copy_n(data.row(first), d, centroids_.row(0));
  if (k > 1) {
    // Each round, every row's squared distance to the newest centroid is
    // one `distances` call per thread over the rows laid out as a
    // dimension-major table. The kernel repeats SquaredL2's operations and
    // (a - b)^2 == (b - a)^2, so each equals SquaredL2(row, centroid). The
    // threads start once and meet at a barrier per round, whose completion
    // step runs the rest serially in row order: the min update, the D^2
    // total and the draw. The random stream and the centroids therefore do
    // not depend on the thread count.
    FloatMatrix table;
    DimensionMajor(data, &table);
    const CentroidKernel::DistancesFn distances =
        GetCentroidKernel().distances;
    std::vector<float> dist(n);
    std::vector<float> min_dist(n, std::numeric_limits<float>::max());
    size_t next = 1;
    auto draw = [&]() noexcept {
      double total = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (dist[i] < min_dist[i]) min_dist[i] = dist[i];
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
      std::copy_n(data.row(pick), d, centroids_.row(next++));
    };
    const size_t workers = SeedWorkerCount(n, d, num_threads);
    std::barrier round(static_cast<std::ptrdiff_t>(workers), draw);
    ParallelFor(workers, workers, [&](size_t w, size_t) {
      const size_t begin = w * n / workers;
      const size_t end = (w + 1) * n / workers;
      for (size_t c = 1; c < k; ++c) {
        distances(centroids_.row(c - 1), table.data() + begin, d,
                  table.cols(), end - begin, dist.data() + begin);
        round.arrive_and_wait();
      }
    });
  }

  // Pad with duplicated random points when n < k so that k centroids exist.
  for (size_t c = k; c < options.k; ++c) {
    const size_t pick = static_cast<size_t>(rng.NextIndex(n));
    std::copy_n(data.row(pick), d, centroids_.row(c));
  }
}

Status KMeans::Train(const FloatMatrix& data, const KMeansOptions& options,
                     size_t num_threads) {
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

  SeedCentroids(data, options, num_threads);

  std::vector<uint32_t> assign(n, 0);
  std::vector<float> point_dist(n, 0.f);
  std::vector<size_t> counts(k, 0);
  FloatMatrix table;
  double prev_inertia = std::numeric_limits<double>::max();

  for (int iter = 0; iter < options.max_iters; ++iter) {
    // Assignment step, then the inertia summed serially in row order so
    // that it does not depend on the thread count.
    DimensionMajor(centroids_, &table);
    AssignRows(data, table, k, num_threads, assign.data(), point_dist.data());
    double inertia = 0.0;
    for (size_t i = 0; i < n; ++i) inertia += point_dist[i];

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
  FloatMatrix table;
  DimensionMajor(centroids_, &table);
  float distance = 0.f;
  return GetCentroidKernel().nearest(x, table.data(), dim(), table.cols(),
                                     k(), &distance);
}

std::vector<uint32_t> KMeans::AssignAll(const FloatMatrix& data,
                                        size_t num_threads) const {
  VAQ_CHECK(data.cols() == dim());
  FloatMatrix table;
  DimensionMajor(centroids_, &table);
  std::vector<uint32_t> out(data.rows());
  AssignRows(data, table, k(), num_threads, out.data(), nullptr);
  return out;
}

}  // namespace vaq
