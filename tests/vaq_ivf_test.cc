#include "index/vaq_ivf.h"

#include <gtest/gtest.h>

#include <limits>

#include "datasets/synthetic.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

namespace vaq {
namespace {

class VaqIvfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = GenerateSpectrumMixture(2000, 32, PowerLawSpectrum(32, 1.2), 12,
                                    1.5, 51);
    queries_ = GenerateSpectrumMixture(12, 32, PowerLawSpectrum(32, 1.2), 12,
                                       1.5, 151);
    auto gt = BruteForceKnn(base_, queries_, 10, 1);
    ASSERT_TRUE(gt.ok());
    gt_ = std::move(*gt);

    VaqIvfOptions opts;
    opts.vaq.num_subspaces = 8;
    opts.vaq.total_bits = 48;
    opts.vaq.kmeans_iters = 10;
    opts.coarse_k = 32;
    auto index = VaqIvfIndex::Train(base_, opts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
  }

  FloatMatrix base_;
  FloatMatrix queries_;
  std::vector<std::vector<Neighbor>> gt_;
  VaqIvfIndex index_;
};

TEST_F(VaqIvfTest, TrainBuildsValidState) {
  EXPECT_EQ(index_.size(), 2000u);
  EXPECT_EQ(index_.dim(), 32u);
  EXPECT_EQ(index_.coarse_k(), 32u);
  int total_bits = 0;
  for (int b : index_.bits_per_subspace()) total_bits += b;
  EXPECT_EQ(total_bits, 48);
}

TEST_F(VaqIvfTest, FullProbeScansEverything) {
  SearchStats stats;
  std::vector<Neighbor> result;
  ASSERT_TRUE(
      index_.Search(queries_.row(0), 10, index_.coarse_k(), &result, &stats)
          .ok());
  EXPECT_EQ(stats.codes_visited, index_.size());
  EXPECT_EQ(result.size(), 10u);
}

TEST_F(VaqIvfTest, RecallGrowsWithNprobe) {
  auto recall_at = [&](size_t nprobe) {
    std::vector<std::vector<Neighbor>> results(queries_.rows());
    for (size_t q = 0; q < queries_.rows(); ++q) {
      EXPECT_TRUE(
          index_.Search(queries_.row(q), 10, nprobe, &results[q]).ok());
    }
    return Recall(results, gt_, 10);
  };
  const double low = recall_at(1);
  const double high = recall_at(32);
  EXPECT_GE(high + 1e-9, low);
  EXPECT_GT(high, 0.35);  // full probe == exhaustive quantized scan
}

TEST_F(VaqIvfTest, ProbingReducesWork) {
  SearchStats stats;
  std::vector<Neighbor> result;
  ASSERT_TRUE(index_.Search(queries_.row(0), 10, 4, &result, &stats).ok());
  EXPECT_LT(stats.codes_visited, index_.size());
  EXPECT_EQ(stats.clusters_visited, 4u);
}

TEST_F(VaqIvfTest, DefaultNprobeUsed) {
  SearchStats stats;
  std::vector<Neighbor> result;
  ASSERT_TRUE(index_.Search(queries_.row(0), 10, 0, &result, &stats).ok());
  EXPECT_EQ(stats.clusters_visited, 8u);  // the configured default
}

TEST_F(VaqIvfTest, RejectsBadInputs) {
  std::vector<Neighbor> out;
  EXPECT_FALSE(index_.Search(queries_.row(0), 0, 4, &out).ok());
  VaqIvfIndex untrained;
  EXPECT_FALSE(untrained.Search(queries_.row(0), 5, 4, &out).ok());
  VaqIvfOptions opts;
  opts.coarse_k = 0;
  EXPECT_FALSE(VaqIvfIndex::Train(base_, opts).ok());
  EXPECT_FALSE(VaqIvfIndex::Train(FloatMatrix(1, 32), VaqIvfOptions{}).ok());
  opts = VaqIvfOptions{};
  opts.vaq.num_subspaces = 8;
  opts.vaq.adaptive_allocation = false;
  opts.vaq.total_bits = 17 * opts.vaq.num_subspaces;  // 17 bits per subspace
  EXPECT_FALSE(VaqIvfIndex::Train(base_, opts).ok());
  opts = VaqIvfOptions{};
  opts.default_nprobe = 0;  // would probe no list and return nothing
  EXPECT_EQ(VaqIvfIndex::Train(base_, opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(VaqIvfTest, RejectsNonFiniteVectors) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  FloatMatrix poisoned = base_;
  poisoned.row(1999)[31] = nan;
  VaqIvfOptions opts;
  opts.vaq.num_subspaces = 8;
  opts.vaq.total_bits = 48;
  opts.vaq.kmeans_iters = 10;
  opts.coarse_k = 32;
  EXPECT_EQ(VaqIvfIndex::Train(poisoned, opts).status().code(),
            StatusCode::kInvalidArgument);
  poisoned.row(1999)[31] = std::numeric_limits<float>::infinity();
  EXPECT_EQ(VaqIvfIndex::Train(poisoned, opts).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<float> query(queries_.row(0), queries_.row(0) + 32);
  query[7] = nan;
  std::vector<Neighbor> out;
  EXPECT_EQ(index_.Search(query.data(), 5, 4, &out).code(),
            StatusCode::kInvalidArgument);

  FloatMatrix queries = queries_;
  queries.row(2)[0] = nan;
  std::vector<std::vector<Neighbor>> results;
  std::vector<Status> statuses;
  ASSERT_TRUE(index_
                  .SearchBatchInto(queries, 5, 4, QueryControl{}, 2, &results,
                                   &statuses)
                  .ok());
  ASSERT_EQ(statuses.size(), queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_EQ(statuses[q].code(), q == 2 ? StatusCode::kInvalidArgument
                                         : StatusCode::kOk)
        << q;
  }
}

TEST_F(VaqIvfTest, SharesEncoderWithVaqIndex) {
  // Both families train the same encoder: the same bit allocation (capped
  // at log2(n) = 8 bits for 400 rows) and, with every list probed, the
  // same early-abandon distances as a flat VaqIndex scan.
  const FloatMatrix data =
      GenerateSpectrumMixture(400, 32, PowerLawSpectrum(32, 2.0), 4, 1.0, 7);
  const FloatMatrix queries =
      GenerateSpectrumMixture(5, 32, PowerLawSpectrum(32, 2.0), 4, 1.0, 107);
  VaqIvfOptions opts;
  opts.vaq.num_subspaces = 8;
  opts.vaq.total_bits = 64;
  opts.vaq.kmeans_iters = 5;
  opts.coarse_k = 8;
  auto flat = VaqIndex::Train(data, opts.vaq);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  auto ivf = VaqIvfIndex::Train(data, opts);
  ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();

  EXPECT_EQ(flat->bits_per_subspace(), ivf->bits_per_subspace());
  for (int b : ivf->bits_per_subspace()) EXPECT_LE(b, 8);

  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kEarlyAbandon;
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::vector<Neighbor> want, got;
    ASSERT_TRUE(flat->Search(queries.row(q), params, &want).ok());
    ASSERT_TRUE(ivf->Search(queries.row(q), 10, /*nprobe=*/8, &got).ok());
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].distance, got[i].distance) << "q=" << q << " i=" << i;
    }
  }
}

TEST_F(VaqIvfTest, EveryVectorLandsInSomeList) {
  // Full probe must be able to return any specific vector as its own NN.
  std::vector<Neighbor> result;
  for (size_t r = 0; r < 25; ++r) {
    ASSERT_TRUE(
        index_.Search(base_.row(r), 1, index_.coarse_k(), &result).ok());
    ASSERT_EQ(result.size(), 1u);
    // Quantized distances may confuse near-duplicates, but the returned
    // distance cannot exceed the query's own reconstruction distance by
    // much; just require a sane, small value.
    EXPECT_LT(result[0].distance, 1e3f);
  }
}

}  // namespace
}  // namespace vaq
