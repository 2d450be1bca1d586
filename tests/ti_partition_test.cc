#include "core/ti_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>

#include "common/io.h"
#include "common/rng.h"
#include "linalg/ops.h"

namespace vaq {
namespace {

class TiPartitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    data_.Resize(800, 8);
    for (size_t i = 0; i < data_.size(); ++i) {
      data_.data()[i] = static_cast<float>(rng.Gaussian());
    }
    auto layout = SubspaceLayout::Uniform(8, 4);
    ASSERT_TRUE(layout.ok());
    CodebookOptions copts;
    copts.seed = 3;
    ASSERT_TRUE(books_.Train(data_, *layout, {4, 4, 3, 3}, copts).ok());
    auto codes = books_.Encode(data_);
    ASSERT_TRUE(codes.ok());
    codes_ = *codes;

    TiPartitionOptions topts;
    topts.num_clusters = 16;
    topts.prefix_subspaces = 2;
    topts.seed = 9;
    ASSERT_TRUE(ti_.Build(codes_, books_, topts).ok());
  }

  FloatMatrix data_;
  VariableCodebooks books_;
  CodeMatrix codes_;
  TiPartition ti_;
};

TEST_F(TiPartitionTest, EveryIdAppearsExactlyOnce) {
  const Partitioning& members = ti_.members();
  ASSERT_EQ(members.size(), ti_.num_partitions());
  std::set<uint32_t> seen;
  size_t total = 0;
  for (size_t c = 0; c < ti_.num_partitions(); ++c) {
    for (size_t i = members.begin(c); i < members.end(c); ++i) {
      EXPECT_TRUE(seen.insert(members.ids[i]).second)
          << "duplicate id " << members.ids[i];
      ++total;
    }
  }
  EXPECT_EQ(total, codes_.rows());
}

TEST_F(TiPartitionTest, ClusterDistancesSortedAscending) {
  const Partitioning& members = ti_.members();
  const std::vector<float>& dists = ti_.distances();
  EXPECT_EQ(dists.size(), members.ids.size());
  for (size_t c = 0; c < ti_.num_partitions(); ++c) {
    for (size_t i = members.begin(c) + 1; i < members.end(c); ++i) {
      EXPECT_LE(dists[i - 1], dists[i]);
    }
  }
}

TEST_F(TiPartitionTest, MembersAssignedToNearestCentroid) {
  // Spot-check: a member's cached distance equals its decoded-prefix
  // distance to its own centroid, and no other centroid is closer.
  std::vector<float> decoded(books_.dim());
  const size_t pd = ti_.prefix_dims();
  const Partitioning& members = ti_.members();
  const FloatMatrix centroids = Transpose(ti_.centroids());  // one per row
  for (size_t c = 0; c < std::min<size_t>(4, ti_.num_partitions()); ++c) {
    const size_t end =
        std::min<size_t>(members.begin(c) + 5, members.end(c));
    for (size_t i = members.begin(c); i < end; ++i) {
      const uint32_t id = members.ids[i];
      books_.DecodeRow(codes_.row(id), decoded.data());
      const float own =
          std::sqrt(SquaredL2(decoded.data(), centroids.row(c), pd));
      EXPECT_NEAR(ti_.distances()[i], own, 1e-3f);
      for (size_t other = 0; other < ti_.num_partitions(); ++other) {
        const float dist =
            std::sqrt(SquaredL2(decoded.data(), centroids.row(other), pd));
        EXPECT_GE(dist, own - 1e-3f);
      }
    }
  }
}

TEST_F(TiPartitionTest, AssignmentMatchesPrefixSumOracle) {
  // 1037 rows (the last 64-row block is padded) that repeat 150 distinct
  // rows, so many of the 64 sampled centroids decode identically and tie
  // exactly for every row: the lowest cluster index must win.
  Rng rng(21);
  FloatMatrix distinct(150, data_.cols());
  for (size_t i = 0; i < distinct.size(); ++i) {
    distinct.data()[i] = static_cast<float>(rng.Gaussian());
  }
  FloatMatrix data(1037, data_.cols());
  for (size_t r = 0; r < data.rows(); ++r) {
    std::copy_n(distinct.row((r * 7) % distinct.rows()), data.cols(),
                data.row(r));
  }
  auto encoded = books_.Encode(data);
  ASSERT_TRUE(encoded.ok());
  const CodeMatrix& codes = *encoded;
  const size_t n = codes.rows();

  for (size_t threads : {size_t{1}, size_t{4}}) {
    TiPartitionOptions topts;
    topts.num_clusters = 64;
    topts.prefix_subspaces = 2;
    topts.seed = 4;
    topts.num_threads = threads;
    TiPartition ti;
    ASSERT_TRUE(ti.Build(codes, books_, topts).ok());
    const size_t clusters = ti.num_partitions();
    const size_t p = ti.prefix_subspaces();

    // The oracle: each centroid's full lookup table (zero beyond the
    // prefix dims), its first p subspaces summed from 0.f in ascending
    // order, and the first strict minimum over the clusters.
    std::vector<std::vector<float>> luts(clusters);
    std::vector<float> padded(books_.dim(), 0.f);
    const FloatMatrix centroids = Transpose(ti.centroids());  // one per row
    size_t tied_pairs = 0;
    for (size_t c = 0; c < clusters; ++c) {
      std::copy_n(centroids.row(c), ti.prefix_dims(), padded.data());
      books_.BuildLookupTable(padded.data(), &luts[c]);
      for (size_t other = 0; other < c; ++other) {
        if (std::equal(centroids.row(c), centroids.row(c) + ti.prefix_dims(),
                       centroids.row(other))) {
          ++tied_pairs;
        }
      }
    }
    ASSERT_GT(tied_pairs, 0u) << "no two centroids tie; the test lost its "
                                 "tie case";
    std::vector<uint32_t> want_cluster(n);
    std::vector<float> want_distance(n);
    for (size_t r = 0; r < n; ++r) {
      float best = std::numeric_limits<float>::max();
      uint32_t best_c = 0;
      for (size_t c = 0; c < clusters; ++c) {
        float acc = 0.f;
        for (size_t s = 0; s < p; ++s) {
          acc += luts[c][books_.lut_offset(s) + codes.at(r, s)];
        }
        if (acc < best) {
          best = acc;
          best_c = static_cast<uint32_t>(c);
        }
      }
      want_cluster[r] = best_c;
      want_distance[r] = std::sqrt(best);
    }

    const Partitioning& members = ti.members();
    ASSERT_EQ(members.ids.size(), n);
    size_t mismatches = 0;
    for (size_t c = 0; c < clusters; ++c) {
      for (size_t i = members.begin(c); i < members.end(c); ++i) {
        const uint32_t id = members.ids[i];
        if (want_cluster[id] != c ||
            std::memcmp(&ti.distances()[i], &want_distance[id],
                        sizeof(float)) != 0) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "threads=" << threads;
  }
}

TEST_F(TiPartitionTest, QueryDistancesMatchDirectComputation) {
  Rng rng(77);
  std::vector<float> query(books_.dim());
  for (auto& v : query) v = static_cast<float>(rng.Gaussian());
  std::vector<float> dists;
  ti_.QueryDistances(query.data(), &dists);
  ASSERT_EQ(dists.size(), ti_.num_partitions());
  const FloatMatrix centroids = Transpose(ti_.centroids());  // one per row
  for (size_t c = 0; c < ti_.num_partitions(); ++c) {
    const float direct = std::sqrt(
        SquaredL2(query.data(), centroids.row(c), ti_.prefix_dims()));
    EXPECT_NEAR(dists[c], direct, 1e-4f);
  }
}

TEST_F(TiPartitionTest, TriangleInequalityBoundHolds) {
  // For every member x and any query q:
  // |d(q, c) - d(x, c)| <= d_prefix(q, decoded(x)) <= full ADC distance.
  Rng rng(13);
  std::vector<float> query(books_.dim());
  for (auto& v : query) v = static_cast<float>(rng.Gaussian());
  std::vector<float> qdists;
  ti_.QueryDistances(query.data(), &qdists);
  std::vector<float> decoded(books_.dim());
  const Partitioning& members = ti_.members();
  for (size_t c = 0; c < ti_.num_partitions(); ++c) {
    for (size_t i = members.begin(c); i < members.end(c); ++i) {
      books_.DecodeRow(codes_.row(members.ids[i]), decoded.data());
      const float prefix_dist = std::sqrt(SquaredL2(
          query.data(), decoded.data(), ti_.prefix_dims()));
      const float bound = std::fabs(qdists[c] - ti_.distances()[i]);
      EXPECT_LE(bound, prefix_dist + 1e-2f);
      const float full_dist =
          std::sqrt(SquaredL2(query.data(), decoded.data(), books_.dim()));
      EXPECT_LE(prefix_dist, full_dist + 1e-3f);
    }
  }
}

TEST_F(TiPartitionTest, SaveLoadRoundtrip) {
  std::stringstream ss;
  ti_.Save(ss);
  TiPartition loaded;
  ASSERT_TRUE(loaded.Load(ss).ok());
  EXPECT_EQ(loaded.num_partitions(), ti_.num_partitions());
  EXPECT_EQ(loaded.prefix_subspaces(), ti_.prefix_subspaces());
  EXPECT_TRUE(loaded.centroids() == ti_.centroids());
  const Partitioning& want = ti_.members();
  const Partitioning& got = loaded.members();
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < ti_.num_partitions(); ++c) {
    EXPECT_EQ(std::vector<uint32_t>(got.ids.begin() + got.begin(c),
                                    got.ids.begin() + got.end(c)),
              std::vector<uint32_t>(want.ids.begin() + want.begin(c),
                                    want.ids.begin() + want.end(c)));
  }
}

TEST_F(TiPartitionTest, SaveLoadSaveReproducesTheBytes) {
  // 16 clusters of 4 prefix dims: the section keeps them row-major, one
  // cluster per row, while the partition holds them dimension-major.
  std::stringstream first;
  ti_.Save(first);
  const std::string bytes = first.str();
  TiPartition loaded;
  ASSERT_TRUE(loaded.Load(first).ok());
  EXPECT_TRUE(loaded.centroids() == ti_.centroids());
  std::stringstream second;
  loaded.Save(second);
  EXPECT_TRUE(second.str() == bytes) << "save -> load -> save changed TIPT";

  std::istringstream section(bytes);
  uint8_t built = 0;
  uint64_t prefix = 0;
  FloatMatrix rows;
  ASSERT_TRUE(ReadPod(section, &built).ok());
  ASSERT_TRUE(ReadPod(section, &prefix).ok());
  ASSERT_TRUE(ReadMatrix(section, &rows).ok());
  ASSERT_EQ(rows.rows(), ti_.num_partitions());
  ASSERT_EQ(rows.cols(), ti_.prefix_dims());
  EXPECT_TRUE(rows == Transpose(ti_.centroids()));
}

TEST_F(TiPartitionTest, ClusterCountCappedByRows) {
  CodeMatrix tiny = codes_.GatherRows({0, 1, 2});
  TiPartition small;
  TiPartitionOptions topts;
  topts.num_clusters = 100;
  topts.prefix_subspaces = 2;
  ASSERT_TRUE(small.Build(tiny, books_, topts).ok());
  EXPECT_EQ(small.num_partitions(), 3u);
}

TEST_F(TiPartitionTest, RejectsBadInputs) {
  TiPartition bad;
  TiPartitionOptions topts;
  topts.num_clusters = 0;
  EXPECT_FALSE(bad.Build(codes_, books_, topts).ok());
  topts.num_clusters = 4;
  EXPECT_FALSE(bad.Build(CodeMatrix(), books_, topts).ok());
  VariableCodebooks untrained;
  EXPECT_FALSE(bad.Build(codes_, untrained, topts).ok());
}

}  // namespace
}  // namespace vaq
