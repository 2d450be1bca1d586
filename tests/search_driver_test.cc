// The partition ranking shared by TI clusters and IVF cells
// (RankPartitions, core/search_driver.h): nearest first by squared
// distance, exact ties in ascending partition id, exactly `visit` entries,
// over only the centroids' width of the query. And the query driver's
// top-k over one packed code store: the exact ADC oracle's (adc_oracle.h),
// independent of the storage order and of the seed-then-sweep order of a
// flat early-abandon scan. And the plan a reused SearchStats reports is
// the last query's own.

#include "core/search_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "adc_oracle.h"
#include "common/rng.h"
#include "core/ti_partition.h"
#include "core/vaq_encoder.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "index/vaq_ivf.h"
#include "linalg/ops.h"

namespace vaq {
namespace {

/// One-dimensional centroids at `positions`, dimension-major: one row,
/// one centroid per column.
FloatMatrix Line(const std::vector<float>& positions) {
  return FloatMatrix(1, positions.size(), positions);
}

std::vector<int64_t> Ids(const std::vector<Neighbor>& ranking) {
  std::vector<int64_t> ids;
  for (const Neighbor& r : ranking) ids.push_back(r.id);
  return ids;
}

TEST(RankPartitionsTest, NearestFirst) {
  const FloatMatrix centroids = Line({5.f, 1.f, 3.f, -2.f, 4.f});
  const float query = 0.f;
  SearchScratch scratch;
  const std::vector<Neighbor>& ranking = scratch.ranking;
  RankPartitions(&query, centroids, 5, ScanKernelType::kAuto, &scratch);
  EXPECT_EQ(Ids(ranking), (std::vector<int64_t>{1, 3, 2, 4, 0}));
  // Distances are squared, as the scan's thresholds are.
  const std::vector<float> want = {1.f, 4.f, 9.f, 16.f, 25.f};
  ASSERT_EQ(ranking.size(), want.size());
  for (size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(ranking[v].distance, want[v]);
  }
}

TEST(RankPartitionsTest, EqualDistancesComeOutInAscendingId) {
  // Mirror images around the query tie exactly.
  const FloatMatrix centroids = Line({2.f, -1.f, -2.f, 1.f, 1.f});
  const float query = 0.f;
  SearchScratch scratch;
  const std::vector<Neighbor>& ranking = scratch.ranking;
  RankPartitions(&query, centroids, 5, ScanKernelType::kAuto, &scratch);
  EXPECT_EQ(Ids(ranking), (std::vector<int64_t>{1, 3, 4, 0, 2}));
  // A cut through a tie keeps the lower ids.
  RankPartitions(&query, centroids, 2, ScanKernelType::kAuto, &scratch);
  EXPECT_EQ(Ids(ranking), (std::vector<int64_t>{1, 3}));

  // Many partitions on four distance levels, shuffled: every prefix is
  // the (distance, id)-sorted prefix of all of them.
  Rng rng(11);
  std::vector<float> positions(300);
  for (float& p : positions) p = static_cast<float>(rng.NextIndex(4));
  const FloatMatrix many = Line(positions);
  std::vector<Neighbor> all;
  for (size_t c = 0; c < positions.size(); ++c) {
    all.push_back({positions[c] * positions[c], static_cast<int64_t>(c)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  });
  for (const size_t visit : {size_t{1}, size_t{7}, size_t{75}, size_t{300}}) {
    RankPartitions(&query, many, visit, ScanKernelType::kAuto, &scratch);
    ASSERT_EQ(ranking.size(), visit);
    for (size_t v = 0; v < visit; ++v) {
      EXPECT_EQ(ranking[v].id, all[v].id) << "visit=" << visit << " v=" << v;
      EXPECT_EQ(ranking[v].distance, all[v].distance);
    }
  }
}

TEST(RankPartitionsTest, ReturnsExactlyVisitEntries) {
  Rng rng(5);
  FloatMatrix centroids(3, 40);
  for (size_t i = 0; i < centroids.size(); ++i) {
    centroids.data()[i] = static_cast<float>(rng.Gaussian());
  }
  const float query[3] = {0.25f, -0.5f, 1.f};
  SearchScratch scratch;
  RankPartitions(query, centroids, centroids.cols(), ScanKernelType::kAuto,
                 &scratch);
  const std::vector<Neighbor> full = scratch.ranking;
  ASSERT_EQ(full.size(), centroids.cols());
  // visit == total orders all of them.
  EXPECT_TRUE(std::is_sorted(full.begin(), full.end()));
  std::vector<int64_t> ids = Ids(full);
  std::sort(ids.begin(), ids.end());
  for (size_t c = 0; c < ids.size(); ++c) {
    EXPECT_EQ(ids[c], static_cast<int64_t>(c));
  }
  // Every smaller visit is a prefix of that order. The scratch vector is
  // reused across calls, as the query path reuses it.
  const std::vector<Neighbor>& ranking = scratch.ranking;
  for (size_t visit = 1; visit <= centroids.cols(); ++visit) {
    RankPartitions(query, centroids, visit, ScanKernelType::kAuto, &scratch);
    ASSERT_EQ(ranking.size(), visit);
    EXPECT_TRUE(std::equal(ranking.begin(), ranking.end(), full.begin()));
  }
  // More than the index has: all of them.
  RankPartitions(query, centroids, centroids.cols() + 5,
                 ScanKernelType::kAuto, &scratch);
  EXPECT_EQ(ranking.size(), centroids.cols());
}

TEST(RankPartitionsTest, ReadsOnlyTheCentroidWidth) {
  // IVF's full width: every query dim counts.
  // Centroids (0, 0, 3) and (0, 2, 0), dimension-major.
  const FloatMatrix full(3, 2, std::vector<float>{0.f, 0.f,  //
                                                  0.f, 2.f,  //
                                                  3.f, 0.f});
  const float query[4] = {0.f, 0.f, 0.f,
                          std::numeric_limits<float>::quiet_NaN()};
  SearchScratch scratch;
  const std::vector<Neighbor>& ranking = scratch.ranking;
  RankPartitions(query, full, 2, ScanKernelType::kAuto, &scratch);
  EXPECT_EQ(Ids(ranking), (std::vector<int64_t>{1, 0}));
  EXPECT_EQ(ranking[0].distance, 4.f);
  EXPECT_EQ(ranking[1].distance, 9.f);

  // A prefix width, as TI's centroids have: the NaN past it and the
  // far-away dim 2 are never read.
  // Centroids (0, 1) and (0, 2), dimension-major.
  const FloatMatrix prefix(2, 2, std::vector<float>{0.f, 0.f,  //
                                                    1.f, 2.f});
  const float far[4] = {0.f, 0.f, 100.f,
                        std::numeric_limits<float>::quiet_NaN()};
  RankPartitions(far, prefix, 2, ScanKernelType::kAuto, &scratch);
  EXPECT_EQ(Ids(ranking), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(ranking[0].distance, 1.f);
  EXPECT_EQ(ranking[1].distance, 4.f);
}

/// The ranking RankPartitions must return: every centroid's SquaredL2 to
/// `query` (the centroids dimension-major), sorted by (distance, id), cut
/// at visit.
std::vector<Neighbor> BruteForceRanking(const float* query,
                                        const FloatMatrix& centroids,
                                        size_t visit) {
  const FloatMatrix rows = Transpose(centroids);
  std::vector<Neighbor> all;
  for (size_t c = 0; c < rows.rows(); ++c) {
    all.push_back({SquaredL2(query, rows.row(c), rows.cols()),
                   static_cast<int64_t>(c)});
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(visit, all.size()));
  return all;
}

/// RankPartitions on the scalar and the AVX2 kernel against
/// BruteForceRanking: the same ids, the same distance bits.
void ExpectBruteForceRanking(const float* query, const FloatMatrix& centroids,
                             size_t visit, SearchScratch* scratch,
                             const std::string& what) {
  const std::vector<Neighbor> want =
      BruteForceRanking(query, centroids, visit);
  for (const ScanKernelType kernel :
       {ScanKernelType::kScalar, ScanKernelType::kAvx2}) {
    RankPartitions(query, centroids, visit, kernel, scratch);
    const std::vector<Neighbor>& got = scratch->ranking;
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t v = 0; v < want.size(); ++v) {
      ASSERT_EQ(got[v].id, want[v].id)
          << what << " kernel=" << static_cast<int>(kernel) << " v=" << v;
      ASSERT_EQ(std::bit_cast<uint32_t>(got[v].distance),
                std::bit_cast<uint32_t>(want[v].distance))
          << what << " kernel=" << static_cast<int>(kernel) << " v=" << v;
    }
  }
}

TEST(RankPartitionsTest, BucketSelectMatchesBruteForceSort) {
  // Partition counts off the kernels' 8- and 16-centroid tiles, widths off
  // SquaredL2's groups of four, and visit at 1, total - 1, total, past
  // total and in between. Half the shapes draw coordinates from a 5-point
  // grid, so exact distance ties are common and some straddle the cut.
  Rng rng(17);
  SearchScratch scratch;
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {1, 1},  {2, 3},  {7, 3},   {15, 5},  {17, 6},   {33, 7},
      {100, 13}, {255, 2}, {256, 96}, {257, 11}, {500, 9}};
  for (const auto& [total, dims] : shapes) {
    for (const bool grid : {false, true}) {
      FloatMatrix centroids(dims, total);
      std::vector<float> query(dims);
      const auto draw = [&] {
        return grid ? static_cast<float>(rng.NextIndex(5)) - 2.f
                    : static_cast<float>(rng.Gaussian());
      };
      for (size_t i = 0; i < centroids.size(); ++i) {
        centroids.data()[i] = draw();
      }
      for (float& v : query) v = draw();
      const size_t mid = 1 + rng.NextIndex(total);
      for (const size_t visit :
           {size_t{1}, total - 1, total, total + 3, mid}) {
        if (visit == 0) continue;
        ExpectBruteForceRanking(query.data(), centroids, visit, &scratch,
                                "total=" + std::to_string(total) +
                                    " dims=" + std::to_string(dims) +
                                    " grid=" + std::to_string(grid) +
                                    " visit=" + std::to_string(visit));
      }
    }
  }
}

TEST(RankPartitionsTest, AllDistancesEqualRankById) {
  // One distance for every centroid: the histogram has no range.
  const FloatMatrix centroids =
      Line({1.f, -1.f, 1.f, 1.f, -1.f, -1.f, 1.f, -1.f, 1.f, 1.f, -1.f});
  const float query = 0.f;
  SearchScratch scratch;
  RankPartitions(&query, centroids, 4, ScanKernelType::kAuto, &scratch);
  EXPECT_EQ(Ids(scratch.ranking), (std::vector<int64_t>{0, 1, 2, 3}));
  for (size_t visit = 1; visit <= centroids.cols(); ++visit) {
    ExpectBruteForceRanking(&query, centroids, visit, &scratch,
                            "visit=" + std::to_string(visit));
  }
}

TEST(RankPartitionsTest, TiesStraddlingTheCutBucketKeepTheLowerIds) {
  // Query 0, distances 0 (lo) and 256 (hi), so bucket(d) = int(d · 255 /
  // 256). Eight centroids tie at distance 4 (bucket 3) with ids spread
  // through the range, next to 3.9601 and 4.008004 in the same bucket and
  // three at 1 in bucket 0. Every visit from 1 to all cuts somewhere, and visits
  // 6-12 cut through the tie inside the cut bucket.
  const FloatMatrix centroids = Line({2.f, 16.f, -2.f, 1.f, 2.002f, 2.f, -1.f,
                                      -2.f, 0.f, 1.99f, 2.f, -2.f, 2.f, -2.f,
                                      1.f});
  const float query = 0.f;
  SearchScratch scratch;
  RankPartitions(&query, centroids, 9, ScanKernelType::kAuto, &scratch);
  EXPECT_EQ(Ids(scratch.ranking),
            (std::vector<int64_t>{8, 3, 6, 14, 9, 0, 2, 5, 7}));
  for (size_t visit = 1; visit <= centroids.cols() + 1; ++visit) {
    ExpectBruteForceRanking(&query, centroids, visit, &scratch,
                            "visit=" + std::to_string(visit));
  }
}

TEST(RankPartitionsTest, InfiniteDistancesRankLastById) {
  // A query at 1e20: (1e20)^2 overflows, so every distance to a centroid
  // near the origin is +inf. With all of them infinite the ranking is by
  // id; with some centroids out at the query the finite ones come first.
  const float query[2] = {1e20f, 0.f};
  const FloatMatrix near_origin(2, 5, std::vector<float>{
                                          0.f, 1.f, -1.f, 2.f, 0.5f,  //
                                          0.f, 0.f, 3.f, -2.f, 1.f});
  SearchScratch scratch;
  RankPartitions(query, near_origin, 3, ScanKernelType::kAuto, &scratch);
  EXPECT_EQ(Ids(scratch.ranking), (std::vector<int64_t>{0, 1, 2}));
  for (const Neighbor& r : scratch.ranking) EXPECT_TRUE(std::isinf(r.distance));

  const FloatMatrix mixed(2, 6, std::vector<float>{
                                    0.f, 1e20f, 1.f, 1e20f, -3.f, 1e20f,  //
                                    0.f, 2.f, 0.f, 1.f, 0.f, 0.f});
  RankPartitions(query, mixed, 5, ScanKernelType::kAuto, &scratch);
  EXPECT_EQ(Ids(scratch.ranking), (std::vector<int64_t>{5, 3, 1, 0, 2}));
  for (size_t visit = 1; visit <= mixed.cols(); ++visit) {
    ExpectBruteForceRanking(query, mixed, visit, &scratch,
                            "visit=" + std::to_string(visit));
    ExpectBruteForceRanking(query, near_origin, visit, &scratch,
                            "all inf, visit=" + std::to_string(visit));
  }
}

TEST(RankPartitionsTest, MatchesTiPrefixDistances) {
  // On a trained index the ranking's distances over TI's prefix centroids
  // are the squares of TiPartition::QueryDistances, bit for bit.
  const FloatMatrix data =
      GenerateSpectrumMixture(600, 16, PowerLawSpectrum(16, 1.0), 4, 1.0, 9);
  VaqOptions opts;
  opts.num_subspaces = 4;
  opts.total_bits = 24;
  opts.ti_clusters = 20;
  opts.ti_prefix_subspaces = 2;
  opts.kmeans_iters = 5;
  auto index = VaqIndex::Train(data, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const TiPartition& ti = index->ti_partition();
  ASSERT_LT(ti.prefix_dims(), index->dim());

  std::vector<float> projected, dq;
  SearchScratch scratch;
  const std::vector<Neighbor>& ranking = scratch.ranking;
  for (size_t q = 0; q < 5; ++q) {
    index->ProjectQuery(data.row(q * 100), &projected);
    ti.QueryDistances(projected.data(), &dq);
    RankPartitions(projected.data(), ti.centroids(), ti.num_partitions(),
                   ScanKernelType::kAuto, &scratch);
    ASSERT_EQ(ranking.size(), ti.num_partitions());
    for (const Neighbor& r : ranking) {
      EXPECT_EQ(std::sqrt(r.distance), dq[r.id]);
    }
  }
}

TEST(SearchEncodedTest, ExactTiesAtTheKthPlaceKeepTheSmallerIdsInAnyOrder) {
  // Every vector is stored three times, at ids r, r + 200 and r + 400, so
  // the ADC distances come in exact tie groups of a multiple of three and
  // the k-th place (k = 5) always cuts through one.
  const size_t unique = 200;
  const FloatMatrix base = GenerateSpectrumMixture(
      unique, 16, PowerLawSpectrum(16, 1.0), 4, 1.0, 19);
  FloatMatrix data(3 * unique, base.cols());
  for (size_t r = 0; r < data.rows(); ++r) {
    std::copy_n(base.row(r % unique), base.cols(), data.row(r));
  }
  VaqOptions opts;
  opts.num_subspaces = 4;
  opts.total_bits = 24;
  opts.kmeans_iters = 5;
  VaqEncoder encoder;
  VaqEncoder::TrainedRows rows;
  ASSERT_TRUE(encoder.Train(data, opts, &rows).ok());
  TiPartition ti;
  TiPartitionOptions topts;
  topts.num_clusters = 12;
  topts.prefix_subspaces = 2;
  ASSERT_TRUE(ti.Build(rows.codes, encoder.codebooks(), topts).ok());

  // Two storage orders of the same clusters and cached distances: TI's,
  // where equal distances are in ascending id, and the same with every run
  // of equal distances reversed, so each copy group is stored largest id
  // first.
  const Partitioning& ascending = ti.members();
  Partitioning descending = ascending;
  const std::vector<float>& cached = ti.distances();
  size_t reversed_runs = 0;
  for (size_t c = 0; c < ti.num_partitions(); ++c) {
    size_t i = descending.begin(c);
    while (i < descending.end(c)) {
      size_t j = i + 1;
      while (j < descending.end(c) && cached[j] == cached[i]) ++j;
      std::reverse(descending.ids.begin() + i, descending.ids.begin() + j);
      reversed_runs += j - i > 1;
      i = j;
    }
  }
  ASSERT_GT(reversed_runs, unique / 2);
  const size_t n = data.rows();
  const PartitionedCodes& store_ascending = ti;
  const PartitionedCodes store_descending(
      rows.codes, descending, Transpose(ti.centroids()), cached);

  // TI at visit 1.0: every cluster, nearest first, each in its window.
  const size_t all_clusters = ti.num_partitions();
  const size_t k = 5;
  SearchScratch scratch;
  std::vector<float> pca_space, projected;
  for (size_t q = 0; q < 20; ++q) {
    const float* query = data.row(q * 7);
    // The oracle: every row's exact ADC distance, sorted by (distance,
    // id), cut at k.
    SearchParams full;
    full.k = n;
    full.mode = SearchMode::kHeap;
    encoder.ProjectQuery(query, &pca_space, &projected);
    const std::vector<Neighbor> ranking =
        OracleSearch(encoder.codebooks(), projected.data(), store_ascending,
                     0, full);
    ASSERT_EQ(ranking.size(), n);
    ASSERT_EQ(ranking[k - 1].distance, ranking[k].distance)
        << "q=" << q << ": the k-th place must straddle a tie";
    const std::vector<Neighbor> want(ranking.begin(), ranking.begin() + k);

    for (const bool reversed : {false, true}) {
      const PartitionedCodes& store =
          reversed ? store_descending : store_ascending;
      for (const SearchMode mode :
           {SearchMode::kHeap, SearchMode::kEarlyAbandon,
            SearchMode::kTriangleInequality}) {
        for (const ScanKernelType kernel :
             {ScanKernelType::kScalar, ScanKernelType::kAvx2,
              ScanKernelType::kAuto}) {
          SearchParams params;
          params.k = k;
          params.mode = mode;
          params.kernel = kernel;
          // Flat for kHeap and EA, every TI cluster (visit 1.0) for TI.
          const bool ti_mode = mode == SearchMode::kTriangleInequality;
          std::vector<Neighbor> got;
          ASSERT_TRUE(SearchEncoded(encoder, store, ti_mode ? all_clusters : 0,
                                    query, params, &scratch, &got, nullptr)
                          .ok());
          EXPECT_EQ(Ids(got), Ids(want))
              << "q=" << q << " reversed=" << reversed
              << " mode=" << static_cast<int>(mode)
              << " kernel=" << static_cast<int>(kernel);
          for (size_t i = 0; i < got.size() && i < k; ++i) {
            EXPECT_EQ(got[i].distance, want[i].distance);
          }
        }
      }
    }
  }
}

/// A flat early-abandon query first scans the TI clusters nearest the
/// query, then sweeps the rest of the store in storage order. The order
/// must not show in the answer or in the visit counts.
class SeededSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new FloatMatrix(GenerateSpectrumMixture(
        1200, 16, PowerLawSpectrum(16, 1.0), 6, 1.0, 29));
    VaqOptions opts;
    opts.num_subspaces = 8;
    opts.total_bits = 48;
    opts.ti_clusters = 24;
    opts.kmeans_iters = 5;
    auto trained = VaqIndex::Train(*data_, opts);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    index_ = new VaqIndex(std::move(*trained));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete data_;
    index_ = nullptr;
    data_ = nullptr;
  }

  /// k = 1, a mid k, and k >= n / 8, where the seed is every cluster
  /// (ceil(8 k C / n) >= C) and the sweep is empty.
  static std::vector<size_t> Ks() { return {1, 17, data_->rows() / 8 + 1}; }

  static const FloatMatrix* data_;
  static const VaqIndex* index_;
};

const FloatMatrix* SeededSweepTest::data_ = nullptr;
const VaqIndex* SeededSweepTest::index_ = nullptr;

TEST_F(SeededSweepTest, VisitsEveryStorageRowOnceWithNoPartitionCounted) {
  const size_t n = data_->rows();
  std::vector<size_t> ks = Ks();
  ks.push_back(n);  // nothing can be abandoned: every row reaches the heap
  for (const size_t k : ks) {
    for (const ScanKernelType kernel :
         {ScanKernelType::kAuto, ScanKernelType::kScalar}) {
      for (size_t q = 0; q < 10; ++q) {
        SearchParams params;
        params.k = k;
        params.mode = SearchMode::kEarlyAbandon;
        params.kernel = kernel;
        std::vector<Neighbor> got;
        SearchStats stats;
        ASSERT_TRUE(
            index_->Search(data_->row(q * 101), params, &got, &stats).ok());
        EXPECT_EQ(stats.codes_visited, n) << "k=" << k << " q=" << q;
        EXPECT_FALSE(stats.truncated);
        EXPECT_EQ(stats.partitions_visited, 0u);
        EXPECT_EQ(stats.clusters_visited, 0u);
        EXPECT_EQ(stats.clusters_total, 0u);
        EXPECT_EQ(stats.codes_skipped_ti, 0u);
        ASSERT_EQ(got.size(), k);
        if (k == n) {
          std::vector<int64_t> ids = Ids(got);
          std::sort(ids.begin(), ids.end());
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(ids[i], static_cast<int64_t>(i));
          }
        }
      }
    }
  }
}

TEST_F(SeededSweepTest, MatchesHeapAndReferenceBitForBit) {
  SearchScratch scratch;
  for (const size_t subspaces_used : {size_t{0}, size_t{3}}) {
    for (const size_t k : Ks()) {
      for (size_t q = 0; q < 20; ++q) {
        const float* query = data_->row(q * 59 + 7);
        SearchParams heap;
        heap.k = k;
        heap.mode = SearchMode::kHeap;
        heap.num_subspaces_used = subspaces_used;
        std::vector<Neighbor> want;
        ASSERT_TRUE(index_->Search(query, heap, &scratch, &want, nullptr).ok());
        ASSERT_EQ(OracleSearch(*index_, query, heap), want)
            << "k=" << k << " q=" << q << " s=" << subspaces_used;
        for (const ScanKernelType kernel :
             {ScanKernelType::kScalar, ScanKernelType::kAuto}) {
          SearchParams ea = heap;
          ea.mode = SearchMode::kEarlyAbandon;
          ea.kernel = kernel;
          std::vector<Neighbor> got;
          ASSERT_TRUE(index_->Search(query, ea, &scratch, &got, nullptr).ok());
          ASSERT_EQ(Ids(got), Ids(want))
              << "k=" << k << " q=" << q << " s=" << subspaces_used
              << " kernel=" << static_cast<int>(kernel);
          for (size_t i = 0; i < k; ++i) {
            EXPECT_EQ(got[i].distance, want[i].distance);
          }
        }
      }
    }
  }
}

TEST(SearchEncodedTest, ReusedStatsReportEachQuerysOwnPlan) {
  // A TI query, then a flat one, then an IVF one, all on one SearchStats:
  // each reports its own planned partitions, a flat query none of none.
  const FloatMatrix data = GenerateSpectrumMixture(
      1200, 16, PowerLawSpectrum(16, 1.0), 6, 1.0, 29);
  VaqOptions opts;
  opts.num_subspaces = 8;
  opts.total_bits = 48;
  opts.ti_clusters = 24;
  opts.kmeans_iters = 5;
  auto index = VaqIndex::Train(data, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  VaqIvfOptions ivf_opts;
  ivf_opts.vaq = opts;
  ivf_opts.coarse_k = 16;
  auto ivf = VaqIvfIndex::Train(data, ivf_opts);
  ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();

  const float* query = data.row(5);
  std::vector<Neighbor> out;
  SearchStats stats;
  // Each query's work counts on the reused record equal a fresh record's.
  SearchStats fresh;
  const auto expect_own_work = [&](const Status& st, const char* what) {
    ASSERT_TRUE(st.ok()) << what;
    EXPECT_EQ(stats.rows_scanned, fresh.rows_scanned) << what;
    EXPECT_EQ(stats.lut_adds, fresh.lut_adds) << what;
  };
  SearchParams ti;
  ti.k = 10;
  ti.mode = SearchMode::kTriangleInequality;
  ti.visit_fraction = 0.25;
  ASSERT_TRUE(index->Search(query, ti, &out, &stats).ok());
  EXPECT_EQ(stats.clusters_visited, 6u);
  EXPECT_EQ(stats.clusters_total, 24u);
  EXPECT_EQ(stats.partitions_visited, 6u);
  fresh = SearchStats{};
  expect_own_work(index->Search(query, ti, &out, &fresh), "ti");

  for (const SearchMode mode :
       {SearchMode::kEarlyAbandon, SearchMode::kHeap}) {
    SearchParams flat = ti;
    flat.mode = mode;
    ASSERT_TRUE(index->Search(query, flat, &out, &stats).ok());
    EXPECT_EQ(stats.clusters_visited, 0u) << static_cast<int>(mode);
    EXPECT_EQ(stats.clusters_total, 0u) << static_cast<int>(mode);
    EXPECT_EQ(stats.partitions_visited, 0u) << static_cast<int>(mode);
    fresh = SearchStats{};
    expect_own_work(index->Search(query, flat, &out, &fresh), "flat");
  }

  ASSERT_TRUE(ivf->Search(query, 10, 4, &out, &stats).ok());
  EXPECT_EQ(stats.clusters_visited, 4u);
  EXPECT_EQ(stats.clusters_total, 16u);
  EXPECT_EQ(stats.partitions_visited, 4u);
  fresh = SearchStats{};
  expect_own_work(ivf->Search(query, 10, 4, &out, &fresh), "ivf");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(PartitionedCodesTest, IvfSaveLoadSaveReproducesTheFile) {
  // 12 coarse cells of 16 dims: the CRSE section's row-major matrix is not
  // square, so a transpose missed on either side changes its shape.
  const FloatMatrix data = GenerateSpectrumMixture(
      900, 16, PowerLawSpectrum(16, 1.0), 6, 1.0, 31);
  VaqIvfOptions opts;
  opts.vaq.num_subspaces = 4;
  opts.vaq.total_bits = 24;
  opts.vaq.kmeans_iters = 5;
  opts.coarse_k = 12;
  auto ivf = VaqIvfIndex::Train(data, opts);
  ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();
  const std::string first_path = ::testing::TempDir() + "ivf_roundtrip_a.bin";
  const std::string second_path =
      ::testing::TempDir() + "ivf_roundtrip_b.bin";
  ASSERT_TRUE(ivf->Save(first_path).ok());
  auto loaded = VaqIvfIndex::Load(first_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->Save(second_path).ok());
  const std::string first = ReadFile(first_path);
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(ReadFile(second_path) == first)
      << "save -> load -> save changed the file";
  // The reloaded index ranks and scans as the trained one does.
  std::vector<Neighbor> want, got;
  for (size_t q = 0; q < 5; ++q) {
    ASSERT_TRUE(ivf->Search(data.row(q * 150), 10, 3, &want).ok());
    ASSERT_TRUE(loaded->Search(data.row(q * 150), 10, 3, &got).ok());
    EXPECT_EQ(got, want) << "q=" << q;
  }
  std::remove(first_path.c_str());
  std::remove(second_path.c_str());
}

}  // namespace
}  // namespace vaq
