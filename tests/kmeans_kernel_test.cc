// k-means through the centroid kernel must be bit-identical to the
// row-at-a-time Lloyd loop it replaced: one SquaredL2 call per centroid and
// a strict '<' argmin, kept here as the reference. The suite compares
// centroids, assignments and the kernel's `nearest` output bit for bit over
// widths with and without a serial tail, dictionary sizes below, at and
// across one SIMD vector and one 16-centroid tile, fewer rows than
// centroids (padding) and duplicated rows (exact ties, where the lowest
// index must win). The k-means++ seeding, which runs on the kernel's
// `distances` over rows split across threads, is compared on its own with
// the one-thread SquaredL2 loop it replaced.
//
// KMeans itself dispatches to the best kernel the CPU supports; the ctest
// entry kmeans_kernel_scalar runs this suite again with
// VAQ_SCAN_KERNEL=scalar, so Train, Assign and AssignAll are checked on
// both kernels. `nearest` is checked on both in every run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "clustering/centroid_kernel.h"
#include "clustering/kmeans.h"
#include "common/rng.h"

namespace vaq {
namespace {

/// The k-means++ seeding KMeans::Train ran before the centroid kernel: one
/// SquaredL2 call per row and round, all on one thread; padded with
/// duplicated random rows when there are fewer rows than centroids.
FloatMatrix ReferenceSeeding(const FloatMatrix& data,
                             const KMeansOptions& options) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = options.k;
  FloatMatrix centroids(k, d);

  Rng rng(options.seed);
  const size_t seeded = std::min(k, n);
  std::vector<float> min_dist(n, std::numeric_limits<float>::max());
  std::copy_n(data.row(static_cast<size_t>(rng.NextIndex(n))), d,
              centroids.row(0));
  for (size_t c = 1; c < seeded; ++c) {
    const float* last = centroids.row(c - 1);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float dist = SquaredL2(data.row(i), last, d);
      if (dist < min_dist[i]) min_dist[i] = dist;
      total += min_dist[i];
    }
    size_t pick = 0;
    if (total > 0.0) {
      const double target = rng.NextDouble() * total;
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
    std::copy_n(data.row(pick), d, centroids.row(c));
  }
  for (size_t c = seeded; c < k; ++c) {
    std::copy_n(data.row(static_cast<size_t>(rng.NextIndex(n))), d,
                centroids.row(c));
  }
  return centroids;
}

/// The Lloyd loop KMeans::Train ran before the centroid kernel: reference
/// seeding, per-centroid SquaredL2 assignment, mean update with
/// empty-cluster repair, relative-inertia stop.
FloatMatrix ReferenceKMeans(const FloatMatrix& data,
                            const KMeansOptions& options) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = options.k;
  FloatMatrix centroids = ReferenceSeeding(data, options);

  std::vector<uint32_t> assign(n, 0);
  std::vector<float> point_dist(n, 0.f);
  std::vector<size_t> counts(k, 0);
  double prev_inertia = std::numeric_limits<double>::max();
  for (int iter = 0; iter < options.max_iters; ++iter) {
    double inertia = 0.0;
    for (size_t i = 0; i < n; ++i) {
      float best = std::numeric_limits<float>::max();
      uint32_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const float dist = SquaredL2(data.row(i), centroids.row(c), d);
        if (dist < best) {
          best = dist;
          best_c = static_cast<uint32_t>(c);
        }
      }
      assign[i] = best_c;
      point_dist[i] = best;
      inertia += best;
    }
    std::fill(counts.begin(), counts.end(), size_t{0});
    FloatMatrix sums(k, d, 0.f);
    for (size_t i = 0; i < n; ++i) {
      ++counts[assign[i]];
      for (size_t j = 0; j < d; ++j) sums(assign[i], j) += data(i, j);
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        size_t farthest = 0;
        float worst = -1.f;
        for (size_t i = 0; i < n; ++i) {
          if (point_dist[i] > worst) {
            worst = point_dist[i];
            farthest = i;
          }
        }
        std::copy_n(data.row(farthest), d, centroids.row(c));
        point_dist[farthest] = 0.f;
        continue;
      }
      const float inv = 1.f / static_cast<float>(counts[c]);
      for (size_t j = 0; j < d; ++j) centroids(c, j) = sums(c, j) * inv;
    }
    if (prev_inertia < std::numeric_limits<double>::max()) {
      const double denom = std::max(prev_inertia, 1e-30);
      if ((prev_inertia - inertia) / denom < 1e-4 && inertia <= prev_inertia) {
        break;
      }
    }
    prev_inertia = inertia;
  }
  return centroids;
}

/// The reference argmin of `x` over row-major `centroids`.
uint32_t ReferenceNearest(const FloatMatrix& centroids, const float* x,
                          float* distance) {
  float best = std::numeric_limits<float>::max();
  uint32_t best_c = 0;
  for (size_t c = 0; c < centroids.rows(); ++c) {
    const float dist = SquaredL2(x, centroids.row(c), centroids.cols());
    if (dist < best) {
      best = dist;
      best_c = static_cast<uint32_t>(c);
    }
  }
  *distance = best;
  return best_c;
}

bool SameBits(const FloatMatrix& a, const FloatMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// `n` rows of width `d`. The second half repeats the first, and values
/// sit on a coarse grid, so exact distance ties are common.
FloatMatrix TiedData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix data(n, d);
  const size_t distinct = (n + 1) / 2;
  for (size_t r = 0; r < distinct; ++r) {
    for (size_t j = 0; j < d; ++j) {
      data(r, j) = 0.25f * static_cast<float>(rng.NextIndex(9));
    }
  }
  for (size_t r = distinct; r < n; ++r) {
    std::copy_n(data.row(r - distinct), d, data.row(r));
  }
  return data;
}

/// `n` Gaussian rows with every row also stored twice (rows r and r + n/2).
FloatMatrix DuplicatedGaussian(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix data(n, d);
  const size_t distinct = (n + 1) / 2;
  for (size_t r = 0; r < distinct; ++r) {
    for (size_t j = 0; j < d; ++j) {
      data(r, j) = static_cast<float>(rng.Gaussian());
    }
  }
  for (size_t r = distinct; r < n; ++r) {
    std::copy_n(data.row(r - distinct), d, data.row(r));
  }
  return data;
}

/// TiedData or DuplicatedGaussian.
FloatMatrix TestRows(bool tied, size_t n, size_t d, uint64_t seed) {
  return tied ? TiedData(n, d, seed) : DuplicatedGaussian(n, d, seed);
}

std::vector<ScanKernelType> Kernels() {
  std::vector<ScanKernelType> kernels{ScanKernelType::kScalar};
  if (Avx2KernelsAvailable()) {
    kernels.push_back(ScanKernelType::kAvx2);
  }
  return kernels;
}

constexpr size_t kWidths[] = {1, 3, 4, 5, 7, 96};
constexpr size_t kCentroidCounts[] = {1, 7, 8, 9, 256, 300};

TEST(KMeansKernelTest, TrainAndAssignMatchReferenceLloyd) {
  SCOPED_TRACE(std::string("dispatched kernel: ") + GetCentroidKernel().name);
  for (size_t d : kWidths) {
    for (size_t k : kCentroidCounts) {
      // 40 rows: fewer than k for the larger dictionaries (padding with
      // duplicated points); 600 rows: several rows per centroid.
      for (size_t n : {size_t{40}, size_t{600}}) {
        for (bool tied : {false, true}) {
          const FloatMatrix data = TestRows(tied, n, d, 100 + d + k);
          KMeansOptions opts;
          opts.k = k;
          opts.max_iters = 4;
          opts.seed = 7 + k;
          KMeans km;
          ASSERT_TRUE(km.Train(data, opts).ok());
          const FloatMatrix expect = ReferenceKMeans(data, opts);
          ASSERT_TRUE(SameBits(km.centroids(), expect))
              << "centroids differ: d=" << d << " k=" << k << " n=" << n
              << " tied=" << tied;

          // Row-split assignment steps give the same bits.
          KMeans threaded;
          ASSERT_TRUE(threaded.Train(data, opts, 4).ok());
          ASSERT_TRUE(SameBits(threaded.centroids(), expect))
              << "4-thread centroids differ: d=" << d << " k=" << k
              << " n=" << n << " tied=" << tied;
          EXPECT_EQ(threaded.AssignAll(data, 4), km.AssignAll(data));

          const std::vector<uint32_t> all = km.AssignAll(data);
          size_t mismatches = 0;
          for (size_t r = 0; r < n; ++r) {
            float distance = 0.f;
            const uint32_t want =
                ReferenceNearest(expect, data.row(r), &distance);
            if (all[r] != want || km.Assign(data.row(r)) != want) {
              ++mismatches;
            }
          }
          EXPECT_EQ(mismatches, 0u) << "assignments differ: d=" << d
                                    << " k=" << k << " n=" << n
                                    << " tied=" << tied;
        }
      }
    }
  }
}

TEST(KMeansKernelTest, SeedingMatchesReferenceSquaredL2Loop) {
  SCOPED_TRACE(std::string("dispatched kernel: ") + GetCentroidKernel().name);
  for (size_t d : {size_t{1}, size_t{3}, size_t{4}, size_t{96}}) {
    // 30 rows < k = 50 takes the padding path; 5501 x 96 rows split
    // unevenly over 4 seeding workers (SeedWorkerCount), narrower or fewer
    // rows seed on one; identical rows make every D^2 total 0, so each
    // round draws uniformly instead.
    ASSERT_EQ(SeedWorkerCount(5501, 96, 4), 4u);
    for (size_t n : {size_t{30}, size_t{700}, size_t{5501}}) {
      for (int kind = 0; kind < 3; ++kind) {
        FloatMatrix data = TestRows(kind == 1, n, d, 40 + d + n);
        if (kind == 2) {
          for (size_t r = 1; r < n; ++r) {
            std::copy_n(data.row(0), d, data.row(r));
          }
        }
        KMeansOptions opts;
        opts.k = 50;
        opts.max_iters = 0;
        opts.seed = 11 + d;
        const FloatMatrix expect = ReferenceSeeding(data, opts);
        for (size_t threads : {size_t{1}, size_t{4}}) {
          KMeans km;
          ASSERT_TRUE(km.Train(data, opts, threads).ok());
          EXPECT_TRUE(SameBits(km.centroids(), expect))
              << "d=" << d << " n=" << n << " kind=" << kind
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(KMeansKernelTest, SeedWorkerCountWeighsSerialRowsAgainstSplitPass) {
  // Seeding 16000 x 24 rows (k = 256) was fastest on one thread: the split
  // saves too few floats of the distance pass per row.
  EXPECT_EQ(SeedWorkerCount(16000, 24, 4), 1u);
  EXPECT_EQ(SeedWorkerCount(16000, 24, 2), 1u);
  // Wider or more rows repay the split. 8000 x 96 is the coarse k-means
  // shape of the IVF benchmark, which keeps all of its threads.
  EXPECT_EQ(SeedWorkerCount(8000, 96, 4), 4u);
  EXPECT_EQ(SeedWorkerCount(16000, 32, 4), 3u);
  EXPECT_EQ(SeedWorkerCount(32000, 24, 4), 4u);
  // Too few floats per worker, or one thread: one worker.
  EXPECT_EQ(SeedWorkerCount(5000, 4, 4), 1u);
  EXPECT_EQ(SeedWorkerCount(700, 96, 4), 1u);
  EXPECT_EQ(SeedWorkerCount(8000, 96, 1), 1u);
}

TEST(KMeansKernelTest, NearestMatchesReferenceOnEveryKernel) {
  for (ScanKernelType type : Kernels()) {
    const CentroidKernel& kernel = GetCentroidKernel(type);
    for (size_t d : kWidths) {
      for (size_t k : kCentroidCounts) {
        for (bool tied : {false, true}) {
          // Centroids with repeats (so ties between centroids are exact)
          // and queries that include the centroids themselves.
          const FloatMatrix centroids = TestRows(tied, k, d, 300 + d + k);
          const FloatMatrix queries = TestRows(tied, 32, d, 500 + d);
          // Dimension-major with a row pitch wider than k, as k-means
          // lays its table out. The padding holds copies of the first
          // query, so reading it as a centroid would win that query.
          const size_t pitch = k + 5;
          FloatMatrix table(d, pitch);
          for (size_t j = 0; j < d; ++j) {
            for (size_t c = 0; c < pitch; ++c) {
              table(j, c) = c < k ? centroids(c, j) : queries(0, j);
            }
          }
          size_t mismatches = 0;
          auto check = [&](const float* x) {
            float want_distance = 0.f, got_distance = -1.f;
            const uint32_t want =
                ReferenceNearest(centroids, x, &want_distance);
            const uint32_t got =
                kernel.nearest(x, table.data(), d, pitch, k, &got_distance);
            if (got != want || std::memcmp(&got_distance, &want_distance,
                                           sizeof(float)) != 0) {
              ++mismatches;
            }
          };
          for (size_t q = 0; q < queries.rows(); ++q) check(queries.row(q));
          // Every centroid itself: distance 0, tied with its duplicates.
          for (size_t c = 0; c < k; ++c) check(centroids.row(c));
          EXPECT_EQ(mismatches, 0u) << kernel.name << " d=" << d
                                    << " k=" << k << " tied=" << tied;
        }
      }
    }
  }
}

TEST(KMeansKernelTest, NearestOfNoFiniteDistanceIsZero) {
  // The reference loop starts at FLT_MAX with index 0 and only a strictly
  // smaller distance replaces it: NaN (odd centroids) and overflowing
  // (even centroids) distances never do.
  constexpr size_t kLen = 2, kCount = 11;
  FloatMatrix table(kLen, kCount, std::numeric_limits<float>::quiet_NaN());
  for (size_t c = 0; c < kCount; c += 2) {
    table(0, c) = 3e38f;  // (x - 3e38)^2 overflows to +inf
    table(1, c) = 0.f;
  }
  const float x[kLen] = {-3e38f, 0.f};
  for (ScanKernelType type : Kernels()) {
    const CentroidKernel& kernel = GetCentroidKernel(type);
    float distance = 0.f;
    const uint32_t got =
        kernel.nearest(x, table.data(), kLen, kCount, kCount, &distance);
    EXPECT_EQ(got, 0u) << kernel.name;
    EXPECT_EQ(distance, std::numeric_limits<float>::max()) << kernel.name;
  }
}

}  // namespace
}  // namespace vaq
