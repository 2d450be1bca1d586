#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "clustering/hierarchical.h"
#include "clustering/kmeans.h"
#include "clustering/kmeans1d.h"
#include "common/rng.h"

namespace vaq {
namespace {

/// Three well-separated Gaussian blobs in 2-D.
FloatMatrix Blobs(size_t per_cluster, uint64_t seed) {
  Rng rng(seed);
  const float centers[3][2] = {{0.f, 0.f}, {10.f, 10.f}, {-10.f, 10.f}};
  FloatMatrix data(3 * per_cluster, 2);
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < per_cluster; ++i) {
      const size_t r = c * per_cluster + i;
      data(r, 0) = centers[c][0] + static_cast<float>(rng.Gaussian(0, 0.5));
      data(r, 1) = centers[c][1] + static_cast<float>(rng.Gaussian(0, 0.5));
    }
  }
  return data;
}

TEST(KMeansTest, FindsWellSeparatedBlobs) {
  const FloatMatrix data = Blobs(100, 1);
  KMeans km;
  KMeansOptions opts;
  opts.k = 3;
  ASSERT_TRUE(km.Train(data, opts).ok());
  // Every blob member must share an assignment with its blob-mates.
  const auto assign = km.AssignAll(data);
  for (size_t c = 0; c < 3; ++c) {
    std::set<uint32_t> labels;
    for (size_t i = 0; i < 100; ++i) labels.insert(assign[c * 100 + i]);
    EXPECT_EQ(labels.size(), 1u) << "blob " << c << " split across clusters";
  }
}

TEST(KMeansTest, DeterministicBySeed) {
  const FloatMatrix data = Blobs(50, 2);
  KMeans a, b;
  KMeansOptions opts;
  opts.k = 4;
  opts.seed = 99;
  ASSERT_TRUE(a.Train(data, opts).ok());
  ASSERT_TRUE(b.Train(data, opts).ok());
  EXPECT_TRUE(a.centroids() == b.centroids());
}

TEST(KMeansTest, AssignReturnsNearestCentroid) {
  const FloatMatrix data = Blobs(50, 4);
  KMeans km;
  KMeansOptions opts;
  opts.k = 3;
  ASSERT_TRUE(km.Train(data, opts).ok());
  for (size_t r = 0; r < 20; ++r) {
    const uint32_t c = km.Assign(data.row(r));
    const float assigned = SquaredL2(data.row(r), km.centroids().row(c), 2);
    for (size_t other = 0; other < km.k(); ++other) {
      EXPECT_LE(assigned,
                SquaredL2(data.row(r), km.centroids().row(other), 2) + 1e-6f);
    }
  }
}

TEST(KMeansTest, PadsWhenFewerPointsThanK) {
  FloatMatrix data(3, 2, 1.f);
  KMeans km;
  KMeansOptions opts;
  opts.k = 8;
  ASSERT_TRUE(km.Train(data, opts).ok());
  EXPECT_EQ(km.k(), 8u);
  EXPECT_EQ(km.dim(), 2u);
}

TEST(KMeansTest, SingleCluster) {
  const FloatMatrix data = Blobs(30, 5);
  KMeans km;
  KMeansOptions opts;
  opts.k = 1;
  ASSERT_TRUE(km.Train(data, opts).ok());
  // The single centroid is the global mean.
  double mean0 = 0.0;
  for (size_t r = 0; r < data.rows(); ++r) mean0 += data(r, 0);
  mean0 /= static_cast<double>(data.rows());
  EXPECT_NEAR(km.centroids()(0, 0), mean0, 1e-3);
}

TEST(KMeansTest, RejectsBadInputs) {
  KMeans km;
  KMeansOptions opts;
  opts.k = 0;
  EXPECT_FALSE(km.Train(FloatMatrix(5, 2, 1.f), opts).ok());
  opts.k = 2;
  EXPECT_FALSE(km.Train(FloatMatrix(0, 2), opts).ok());
  EXPECT_FALSE(km.Train(FloatMatrix(5, 0), opts).ok());
}

TEST(KMeansTest, NoEmptyClustersOnDuplicateHeavyData) {
  // 100 copies of one point plus a few distinct ones stress the
  // empty-cluster repair.
  FloatMatrix data(104, 1, 0.f);
  data(100, 0) = 10.f;
  data(101, 0) = 20.f;
  data(102, 0) = 30.f;
  data(103, 0) = 40.f;
  KMeans km;
  KMeansOptions opts;
  opts.k = 5;
  ASSERT_TRUE(km.Train(data, opts).ok());
  const auto assign = km.AssignAll(data);
  std::set<uint32_t> used(assign.begin(), assign.end());
  EXPECT_GE(used.size(), 4u);
}

double BruteForceBest1DSse(const std::vector<double>& values, size_t k);

/// Exhaustive segmentation cost for small inputs (test oracle).
double BruteForceBest1DSse(const std::vector<double>& values, size_t k) {
  const size_t n = values.size();
  auto sse = [&](size_t i, size_t j) {
    double sum = 0, sum_sq = 0;
    for (size_t t = i; t <= j; ++t) {
      sum += values[t];
      sum_sq += values[t] * values[t];
    }
    const double cnt = static_cast<double>(j - i + 1);
    return sum_sq - sum * sum / cnt;
  };
  std::vector<std::vector<double>> dp(
      k + 1, std::vector<double>(n, std::numeric_limits<double>::max()));
  for (size_t j = 0; j < n; ++j) dp[1][j] = sse(0, j);
  for (size_t r = 2; r <= k; ++r) {
    for (size_t j = r - 1; j < n; ++j) {
      for (size_t s = r - 1; s <= j; ++s) {
        dp[r][j] = std::min(dp[r][j], dp[r - 1][s - 1] + sse(s, j));
      }
    }
  }
  return dp[k][n - 1];
}

double SseOfSizes(const std::vector<double>& values,
                  const std::vector<size_t>& sizes) {
  double total = 0.0;
  size_t offset = 0;
  for (size_t s : sizes) {
    double sum = 0, sum_sq = 0;
    for (size_t i = offset; i < offset + s; ++i) {
      sum += values[i];
      sum_sq += values[i] * values[i];
    }
    total += sum_sq - sum * sum / static_cast<double>(s);
    offset += s;
  }
  return total;
}

TEST(KMeans1dTest, SingleClusterIsWholeRange) {
  auto sizes = SegmentSorted1D({5, 4, 3, 2, 1}, 1);
  ASSERT_TRUE(sizes.ok());
  EXPECT_EQ(*sizes, std::vector<size_t>({5}));
}

TEST(KMeans1dTest, PerfectlySeparableGroups) {
  // Two obvious groups: {100, 99} and {1, 0.5, 0}.
  auto sizes = SegmentSorted1D({100, 99, 1, 0.5, 0}, 2);
  ASSERT_TRUE(sizes.ok());
  EXPECT_EQ(*sizes, std::vector<size_t>({2, 3}));
}

TEST(KMeans1dTest, KEqualsNGivesSingletons) {
  auto sizes = SegmentSorted1D({9, 7, 5, 3}, 4);
  ASSERT_TRUE(sizes.ok());
  EXPECT_EQ(*sizes, std::vector<size_t>({1, 1, 1, 1}));
}

TEST(KMeans1dTest, RejectsBadK) {
  EXPECT_FALSE(SegmentSorted1D({1, 2}, 0).ok());
  EXPECT_FALSE(SegmentSorted1D({1, 2}, 3).ok());
}

class KMeans1dPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(KMeans1dPropertyTest, MatchesBruteForceOptimum) {
  const auto [n, k] = GetParam();
  Rng rng(n * 131 + k);
  std::vector<double> values(n);
  for (double& v : values) v = rng.NextDouble() * 10.0;
  std::sort(values.rbegin(), values.rend());
  auto sizes = SegmentSorted1D(values, k);
  ASSERT_TRUE(sizes.ok());
  ASSERT_EQ(sizes->size(), k);
  size_t total = 0;
  for (size_t s : *sizes) {
    EXPECT_GE(s, 1u);
    total += s;
  }
  EXPECT_EQ(total, n);
  EXPECT_NEAR(SseOfSizes(values, *sizes), BruteForceBest1DSse(values, k),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KMeans1dPropertyTest,
    ::testing::Values(std::make_pair(5, 2), std::make_pair(8, 3),
                      std::make_pair(12, 4), std::make_pair(16, 5),
                      std::make_pair(20, 7), std::make_pair(24, 2),
                      std::make_pair(30, 10)));

TEST(HierarchicalTest, ReturnsExactlyKCentroids) {
  const FloatMatrix data = Blobs(200, 8);
  HierarchicalKMeansOptions opts;
  opts.k = 64;
  opts.coarse_k = 8;
  auto centroids = HierarchicalKMeans(data, opts);
  ASSERT_TRUE(centroids.ok());
  EXPECT_EQ(centroids->rows(), 64u);
  EXPECT_EQ(centroids->cols(), 2u);
}

TEST(HierarchicalTest, HandlesKLargerThanData) {
  FloatMatrix data(10, 2, 1.f);
  HierarchicalKMeansOptions opts;
  opts.k = 32;
  auto centroids = HierarchicalKMeans(data, opts);
  ASSERT_TRUE(centroids.ok());
  EXPECT_EQ(centroids->rows(), 32u);
}

TEST(HierarchicalTest, QualityComparableToFlatKMeans) {
  const FloatMatrix data = Blobs(300, 9);
  HierarchicalKMeansOptions hopts;
  hopts.k = 27;
  hopts.coarse_k = 3;
  auto hier = HierarchicalKMeans(data, hopts);
  ASSERT_TRUE(hier.ok());

  KMeans flat;
  KMeansOptions fopts;
  fopts.k = 27;
  ASSERT_TRUE(flat.Train(data, fopts).ok());

  auto quantization_error = [&](const FloatMatrix& centroids) {
    double acc = 0.0;
    for (size_t r = 0; r < data.rows(); ++r) {
      float best = std::numeric_limits<float>::max();
      for (size_t c = 0; c < centroids.rows(); ++c) {
        best = std::min(best, SquaredL2(data.row(r), centroids.row(c), 2));
      }
      acc += best;
    }
    return acc;
  };
  // Hierarchical trades accuracy for speed but must stay in the ballpark.
  EXPECT_LE(quantization_error(*hier),
            3.0 * quantization_error(flat.centroids()) + 1e-3);
}

TEST(HierarchicalTest, RejectsBadInputs) {
  HierarchicalKMeansOptions opts;
  opts.k = 0;
  EXPECT_FALSE(HierarchicalKMeans(FloatMatrix(5, 2, 1.f), opts).ok());
  opts.k = 4;
  EXPECT_FALSE(HierarchicalKMeans(FloatMatrix(0, 2), opts).ok());
}

}  // namespace
}  // namespace vaq
