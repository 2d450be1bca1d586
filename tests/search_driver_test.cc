// The partition ranking shared by TI clusters and IVF cells
// (RankPartitions, core/search_driver.h): nearest first by squared
// distance, exact ties in ascending partition id, exactly `visit` entries,
// over only the centroids' width of the query.

#include "core/search_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"

namespace vaq {
namespace {

/// One-dimensional centroids at `positions`.
FloatMatrix Line(const std::vector<float>& positions) {
  return FloatMatrix(positions.size(), 1, positions);
}

std::vector<int64_t> Ids(const std::vector<Neighbor>& ranking) {
  std::vector<int64_t> ids;
  for (const Neighbor& r : ranking) ids.push_back(r.id);
  return ids;
}

TEST(RankPartitionsTest, NearestFirst) {
  const FloatMatrix centroids = Line({5.f, 1.f, 3.f, -2.f, 4.f});
  const float query = 0.f;
  std::vector<Neighbor> ranking;
  RankPartitions(&query, centroids, 5, &ranking);
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
  std::vector<Neighbor> ranking;
  RankPartitions(&query, centroids, 5, &ranking);
  EXPECT_EQ(Ids(ranking), (std::vector<int64_t>{1, 3, 4, 0, 2}));
  // A cut through a tie keeps the lower ids.
  RankPartitions(&query, centroids, 2, &ranking);
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
    RankPartitions(&query, many, visit, &ranking);
    ASSERT_EQ(ranking.size(), visit);
    for (size_t v = 0; v < visit; ++v) {
      EXPECT_EQ(ranking[v].id, all[v].id) << "visit=" << visit << " v=" << v;
      EXPECT_EQ(ranking[v].distance, all[v].distance);
    }
  }
}

TEST(RankPartitionsTest, ReturnsExactlyVisitEntries) {
  Rng rng(5);
  FloatMatrix centroids(40, 3);
  for (size_t i = 0; i < centroids.size(); ++i) {
    centroids.data()[i] = static_cast<float>(rng.Gaussian());
  }
  const float query[3] = {0.25f, -0.5f, 1.f};
  std::vector<Neighbor> full;
  RankPartitions(query, centroids, centroids.rows(), &full);
  ASSERT_EQ(full.size(), centroids.rows());
  // visit == total orders all of them.
  EXPECT_TRUE(std::is_sorted(full.begin(), full.end()));
  std::vector<int64_t> ids = Ids(full);
  std::sort(ids.begin(), ids.end());
  for (size_t c = 0; c < ids.size(); ++c) {
    EXPECT_EQ(ids[c], static_cast<int64_t>(c));
  }
  // Every smaller visit is a prefix of that order. The scratch vector is
  // reused across calls, as the query path reuses it.
  std::vector<Neighbor> ranking;
  for (size_t visit = 1; visit <= centroids.rows(); ++visit) {
    RankPartitions(query, centroids, visit, &ranking);
    ASSERT_EQ(ranking.size(), visit);
    EXPECT_TRUE(std::equal(ranking.begin(), ranking.end(), full.begin()));
  }
  // More than the index has: all of them.
  RankPartitions(query, centroids, centroids.rows() + 5, &ranking);
  EXPECT_EQ(ranking.size(), centroids.rows());
}

TEST(RankPartitionsTest, ReadsOnlyTheCentroidWidth) {
  // IVF's full width: every query dim counts.
  const FloatMatrix full(2, 3, std::vector<float>{0.f, 0.f, 3.f,  //
                                                  0.f, 2.f, 0.f});
  const float query[4] = {0.f, 0.f, 0.f,
                          std::numeric_limits<float>::quiet_NaN()};
  std::vector<Neighbor> ranking;
  RankPartitions(query, full, 2, &ranking);
  EXPECT_EQ(Ids(ranking), (std::vector<int64_t>{1, 0}));
  EXPECT_EQ(ranking[0].distance, 4.f);
  EXPECT_EQ(ranking[1].distance, 9.f);

  // A prefix width, as TI's centroids have: the NaN past it and the
  // far-away dim 2 are never read.
  const FloatMatrix prefix(2, 2, std::vector<float>{0.f, 1.f,  //
                                                    0.f, 2.f});
  const float far[4] = {0.f, 0.f, 100.f,
                        std::numeric_limits<float>::quiet_NaN()};
  RankPartitions(far, prefix, 2, &ranking);
  EXPECT_EQ(Ids(ranking), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(ranking[0].distance, 1.f);
  EXPECT_EQ(ranking[1].distance, 4.f);
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
  std::vector<Neighbor> ranking;
  for (size_t q = 0; q < 5; ++q) {
    index->ProjectQuery(data.row(q * 100), &projected);
    ti.QueryDistances(projected.data(), &dq);
    RankPartitions(projected.data(), ti.centroids(), ti.num_clusters(),
                   &ranking);
    ASSERT_EQ(ranking.size(), ti.num_clusters());
    for (const Neighbor& r : ranking) {
      EXPECT_EQ(std::sqrt(r.distance), dq[r.id]);
    }
  }
}

}  // namespace
}  // namespace vaq
