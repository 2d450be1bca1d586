#include <gtest/gtest.h>

#include <cmath>

#include "datasets/synthetic.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "linalg/ops.h"
#include "quant/bolt.h"
#include "quant/itq.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "quant/pqfs.h"

namespace vaq {
namespace {

struct QuantFixtureData {
  FloatMatrix base;
  FloatMatrix queries;
  std::vector<std::vector<Neighbor>> ground_truth;
};

const QuantFixtureData& SharedData() {
  static const QuantFixtureData* data = [] {
    auto* d = new QuantFixtureData();
    d->base = GenerateSpectrumMixture(1500, 32, PowerLawSpectrum(32, 1.0),
                                      12, 1.0, 42);
    d->queries = GenerateSpectrumMixture(15, 32, PowerLawSpectrum(32, 1.0),
                                         12, 1.0, 142);
    auto gt = BruteForceKnn(d->base, d->queries, 10, 1);
    d->ground_truth = std::move(*gt);
    return d;
  }();
  return *data;
}

double MethodRecall(Quantizer& method, size_t k = 10) {
  const auto& data = SharedData();
  auto results = method.SearchBatch(data.queries, k);
  EXPECT_TRUE(results.ok());
  return Recall(*results, data.ground_truth, k);
}

TEST(PqTest, TrainsAndSearches) {
  PqOptions opts;
  opts.num_subspaces = 8;
  opts.bits_per_subspace = 6;
  opts.kmeans_iters = 10;
  ProductQuantizer pq(opts);
  ASSERT_TRUE(pq.Train(SharedData().base).ok());
  EXPECT_EQ(pq.size(), 1500u);
  EXPECT_EQ(pq.name(), "PQ");
  EXPECT_GT(MethodRecall(pq), 0.35);
}

TEST(PqTest, MoreBitsImproveRecall) {
  PqOptions small_opts, large_opts;
  small_opts.num_subspaces = large_opts.num_subspaces = 8;
  small_opts.bits_per_subspace = 2;
  large_opts.bits_per_subspace = 8;
  small_opts.kmeans_iters = large_opts.kmeans_iters = 10;
  ProductQuantizer small(small_opts), large(large_opts);
  ASSERT_TRUE(small.Train(SharedData().base).ok());
  ASSERT_TRUE(large.Train(SharedData().base).ok());
  EXPECT_GT(MethodRecall(large), MethodRecall(small));
  EXPECT_LT(large.train_error(), small.train_error());
}

TEST(PqTest, SubspaceOrderSortedByVariance) {
  PqOptions opts;
  opts.num_subspaces = 8;
  opts.bits_per_subspace = 4;
  opts.kmeans_iters = 8;
  ProductQuantizer pq(opts);
  ASSERT_TRUE(pq.Train(SharedData().base).ok());
  const auto& order = pq.subspace_order();
  const auto& vars = pq.subspace_variances();
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(vars[order[i - 1]], vars[order[i]]);
  }
}

TEST(PqTest, SubsetSearchDegradesGracefully) {
  PqOptions opts;
  opts.num_subspaces = 8;
  opts.bits_per_subspace = 6;
  opts.kmeans_iters = 10;
  ProductQuantizer pq(opts);
  ASSERT_TRUE(pq.Train(SharedData().base).ok());
  const auto& data = SharedData();
  std::vector<std::vector<Neighbor>> full(data.queries.rows());
  std::vector<std::vector<Neighbor>> subset(data.queries.rows());
  for (size_t q = 0; q < data.queries.rows(); ++q) {
    ASSERT_TRUE(pq.SearchSubset(data.queries.row(q), 10, 0, &full[q]).ok());
    ASSERT_TRUE(pq.SearchSubset(data.queries.row(q), 10, 4, &subset[q]).ok());
  }
  const double recall_full = Recall(full, data.ground_truth, 10);
  const double recall_subset = Recall(subset, data.ground_truth, 10);
  EXPECT_LE(recall_subset, recall_full + 0.05);
  EXPECT_GT(recall_subset, 0.05);  // still far better than random
}

TEST(PqTest, RejectsBadOptions) {
  PqOptions opts;
  opts.bits_per_subspace = 0;
  EXPECT_FALSE(ProductQuantizer(opts).Train(SharedData().base).ok());
  ProductQuantizer untrained;
  std::vector<Neighbor> out;
  EXPECT_FALSE(untrained.Search(SharedData().queries.row(0), 5, &out).ok());
}

TEST(OpqTest, RotationIsOrthonormal) {
  OpqOptions opts;
  opts.num_subspaces = 8;
  opts.bits_per_subspace = 4;
  opts.refine_iters = 2;
  opts.kmeans_iters = 8;
  OptimizedProductQuantizer opq(opts);
  ASSERT_TRUE(opq.Train(SharedData().base).ok());
  EXPECT_TRUE(IsOrthonormal(opq.rotation(), 1e-2));
}

TEST(OpqTest, BeatsOrMatchesPqOnSkewedData) {
  // OPQ's whole point: balancing importance across subspaces improves the
  // quantization error and recall on spectrum-skewed data.
  PqOptions pq_opts;
  pq_opts.num_subspaces = 8;
  pq_opts.bits_per_subspace = 4;
  pq_opts.kmeans_iters = 10;
  OpqOptions opq_opts;
  opq_opts.num_subspaces = 8;
  opq_opts.bits_per_subspace = 4;
  opq_opts.refine_iters = 3;
  opq_opts.kmeans_iters = 10;
  ProductQuantizer pq(pq_opts);
  OptimizedProductQuantizer opq(opq_opts);
  ASSERT_TRUE(pq.Train(SharedData().base).ok());
  ASSERT_TRUE(opq.Train(SharedData().base).ok());
  EXPECT_GE(MethodRecall(opq), MethodRecall(pq) - 0.05);
}

TEST(OpqTest, ParametricOnlyModeWorks) {
  OpqOptions opts;
  opts.num_subspaces = 4;
  opts.bits_per_subspace = 4;
  opts.refine_iters = 0;
  opts.kmeans_iters = 8;
  OptimizedProductQuantizer opq(opts);
  ASSERT_TRUE(opq.Train(SharedData().base).ok());
  // 16-bit budget on 32 dims: modest but far above random (~0.007).
  EXPECT_GT(MethodRecall(opq), 0.08);
}

TEST(BoltTest, FourBitDictionaries) {
  BoltOptions opts;
  opts.num_subspaces = 16;
  opts.kmeans_iters = 8;
  BoltQuantizer bolt(opts);
  ASSERT_TRUE(bolt.Train(SharedData().base).ok());
  for (size_t s = 0; s < 16; ++s) {
    EXPECT_EQ(bolt.codebooks().dictionary(s).cols(), 16u);
  }
  EXPECT_EQ(bolt.code_bytes(), 1500u * 8u);  // two codes per byte
}

TEST(BoltTest, QuantizedTablesLoseLittleOnEasyData) {
  BoltOptions opts;
  opts.num_subspaces = 16;
  opts.kmeans_iters = 8;
  BoltQuantizer bolt(opts);
  ASSERT_TRUE(bolt.Train(SharedData().base).ok());
  EXPECT_GT(MethodRecall(bolt), 0.3);
}

TEST(BoltTest, LessAccurateThanSameBudgetPq) {
  // Same 64-bit budget: Bolt (16 subspaces x 4 bits, uint8 tables) must
  // not beat exact-table PQ (8 subspaces x 8 bits) — the Figure 1 trade.
  BoltOptions bolt_opts;
  bolt_opts.num_subspaces = 16;
  bolt_opts.kmeans_iters = 10;
  PqOptions pq_opts;
  pq_opts.num_subspaces = 8;
  pq_opts.bits_per_subspace = 8;
  pq_opts.kmeans_iters = 10;
  BoltQuantizer bolt(bolt_opts);
  ProductQuantizer pq(pq_opts);
  ASSERT_TRUE(bolt.Train(SharedData().base).ok());
  ASSERT_TRUE(pq.Train(SharedData().base).ok());
  EXPECT_LE(MethodRecall(bolt), MethodRecall(pq) + 0.05);
}

TEST(PqfsTest, MatchesPlainPqResultsExactly) {
  // PQFS prunes with a lower bound and verifies with exact tables, so its
  // answers must be identical to PQ with the same dictionaries.
  PqfsOptions fs_opts;
  fs_opts.num_subspaces = 8;
  fs_opts.bits_per_subspace = 6;
  fs_opts.kmeans_iters = 10;
  fs_opts.seed = 42;
  PqOptions pq_opts;
  pq_opts.num_subspaces = 8;
  pq_opts.bits_per_subspace = 6;
  pq_opts.kmeans_iters = 10;
  pq_opts.seed = 42;
  PqFastScan pqfs(fs_opts);
  ProductQuantizer pq(pq_opts);
  ASSERT_TRUE(pqfs.Train(SharedData().base).ok());
  ASSERT_TRUE(pq.Train(SharedData().base).ok());
  const auto& data = SharedData();
  for (size_t q = 0; q < data.queries.rows(); ++q) {
    std::vector<Neighbor> a, b;
    ASSERT_TRUE(pqfs.Search(data.queries.row(q), 10, &a).ok());
    ASSERT_TRUE(pq.Search(data.queries.row(q), 10, &b).ok());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "q=" << q << " i=" << i;
    }
  }
}

TEST(ItqTest, BinaryCodesAreDeterministic) {
  ItqOptions opts;
  opts.num_bits = 32;
  opts.itq_iters = 10;
  ItqLsh itq(opts);
  ASSERT_TRUE(itq.Train(SharedData().base).ok());
  uint64_t a = 1, b = 2;
  itq.EncodeRow(SharedData().queries.row(0), &a);
  itq.EncodeRow(SharedData().queries.row(0), &b);
  EXPECT_EQ(a, b);
}

TEST(ItqTest, HammingSearchBeatsRandom) {
  ItqOptions opts;
  opts.num_bits = 32;
  opts.itq_iters = 20;
  ItqLsh itq(opts);
  ASSERT_TRUE(itq.Train(SharedData().base).ok());
  EXPECT_GT(MethodRecall(itq), 0.05);
}

TEST(ItqTest, SupportsMoreBitsThanDims) {
  ItqOptions opts;
  opts.num_bits = 64;  // > 32 dims: random lift path
  opts.itq_iters = 10;
  ItqLsh itq(opts);
  ASSERT_TRUE(itq.Train(SharedData().base).ok());
  EXPECT_EQ(itq.code_bytes(), 1500u * 8u);
}

}  // namespace
}  // namespace vaq
