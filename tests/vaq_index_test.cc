#include "core/vaq_index.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "common/serialize.h"
#include "datasets/synthetic.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

namespace vaq {
namespace {

FloatMatrix SkewedData(size_t n, size_t d, uint64_t seed) {
  return GenerateSpectrumMixture(n, d, PowerLawSpectrum(d, 1.2), 8, 1.0,
                                 seed);
}

VaqOptions SmallOptions() {
  VaqOptions opts;
  opts.num_subspaces = 8;
  opts.total_bits = 48;
  opts.min_bits = 1;
  opts.max_bits = 10;
  opts.ti_clusters = 32;
  opts.kmeans_iters = 10;
  opts.seed = 7;
  return opts;
}

class VaqIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = SkewedData(1200, 32, 3);
    queries_ = SkewedData(20, 32, 1003);
    auto index = VaqIndex::Train(data_, SmallOptions());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
  }

  FloatMatrix data_;
  FloatMatrix queries_;
  VaqIndex index_;
};

TEST_F(VaqIndexTest, TrainProducesValidState) {
  EXPECT_EQ(index_.size(), 1200u);
  EXPECT_EQ(index_.dim(), 32u);
  EXPECT_EQ(index_.num_subspaces(), 8u);
  const auto& bits = index_.bits_per_subspace();
  ASSERT_EQ(bits.size(), 8u);
  EXPECT_EQ(std::accumulate(bits.begin(), bits.end(), 0), 48);
  for (size_t i = 1; i < bits.size(); ++i) EXPECT_LE(bits[i], bits[i - 1]);
}

TEST_F(VaqIndexTest, AdaptiveAllocationFollowsVarianceSkew) {
  // Spectrum is skewed, so the top subspace must get more bits than the
  // bottom one.
  EXPECT_GT(index_.bits_per_subspace().front(),
            index_.bits_per_subspace().back());
}

TEST_F(VaqIndexTest, SearchReturnsKSortedNeighbors) {
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kHeap;
  std::vector<Neighbor> result;
  ASSERT_TRUE(index_.Search(queries_.row(0), params, &result).ok());
  ASSERT_EQ(result.size(), 10u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].distance, result[i].distance);
  }
  for (const auto& nb : result) {
    EXPECT_GE(nb.id, 0);
    EXPECT_LT(nb.id, 1200);
  }
}

TEST_F(VaqIndexTest, EarlyAbandonMatchesHeapExactly) {
  // EA only skips accumulation that cannot change the result, so the two
  // modes must return identical neighbor ids.
  SearchParams heap_params, ea_params;
  heap_params.k = ea_params.k = 15;
  heap_params.mode = SearchMode::kHeap;
  ea_params.mode = SearchMode::kEarlyAbandon;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    std::vector<Neighbor> heap_result, ea_result;
    ASSERT_TRUE(index_.Search(queries_.row(q), heap_params, &heap_result).ok());
    ASSERT_TRUE(index_.Search(queries_.row(q), ea_params, &ea_result).ok());
    ASSERT_EQ(heap_result.size(), ea_result.size());
    for (size_t i = 0; i < heap_result.size(); ++i) {
      EXPECT_EQ(heap_result[i].id, ea_result[i].id) << "q=" << q << " i=" << i;
    }
  }
}

TEST_F(VaqIndexTest, TiWithFullVisitMatchesHeapExactly) {
  // Visiting all TI clusters makes the triangle-inequality cascade
  // lossless w.r.t. the plain scan.
  SearchParams heap_params, ti_params;
  heap_params.k = ti_params.k = 15;
  heap_params.mode = SearchMode::kHeap;
  ti_params.mode = SearchMode::kTriangleInequality;
  ti_params.visit_fraction = 1.0;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    std::vector<Neighbor> heap_result, ti_result;
    ASSERT_TRUE(index_.Search(queries_.row(q), heap_params, &heap_result).ok());
    ASSERT_TRUE(index_.Search(queries_.row(q), ti_params, &ti_result).ok());
    ASSERT_EQ(heap_result.size(), ti_result.size());
    for (size_t i = 0; i < heap_result.size(); ++i) {
      EXPECT_EQ(heap_result[i].id, ti_result[i].id) << "q=" << q << " i=" << i;
    }
  }
}

TEST_F(VaqIndexTest, TiPruningActuallySkipsWork) {
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kTriangleInequality;
  params.visit_fraction = 0.25;
  SearchStats stats;
  std::vector<Neighbor> result;
  ASSERT_TRUE(index_.Search(queries_.row(0), params, &result, &stats).ok());
  EXPECT_LT(stats.clusters_visited, stats.clusters_total);
  EXPECT_LT(stats.codes_visited, index_.size());
  EXPECT_GT(stats.codes_visited, 0u);
}

TEST_F(VaqIndexTest, PartialVisitStillAccurate) {
  SearchParams exact, partial;
  exact.k = partial.k = 10;
  exact.mode = SearchMode::kHeap;
  partial.mode = SearchMode::kTriangleInequality;
  partial.visit_fraction = 0.5;
  auto gt = BruteForceKnn(data_, queries_, 10, 1);
  ASSERT_TRUE(gt.ok());
  auto exact_res = index_.SearchBatch(queries_, exact);
  auto partial_res = index_.SearchBatch(queries_, partial);
  ASSERT_TRUE(exact_res.ok());
  ASSERT_TRUE(partial_res.ok());
  const double recall_exact = Recall(*exact_res, *gt, 10);
  const double recall_partial = Recall(*partial_res, *gt, 10);
  // Visiting half the clusters loses little recall.
  EXPECT_GE(recall_partial, recall_exact - 0.15);
}

TEST_F(VaqIndexTest, RecallBeatsRandomByFar) {
  auto gt = BruteForceKnn(data_, queries_, 10, 1);
  ASSERT_TRUE(gt.ok());
  SearchParams params;
  params.k = 10;
  auto results = index_.SearchBatch(queries_, params);
  ASSERT_TRUE(results.ok());
  // Random guessing recall would be ~10/1200; quantized search must be
  // dramatically better on clustered data.
  EXPECT_GT(Recall(*results, *gt, 10), 0.4);
}

TEST_F(VaqIndexTest, SubsetSearchUsesFewerSubspaces) {
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kHeap;
  params.num_subspaces_used = 2;
  SearchStats stats;
  std::vector<Neighbor> result;
  ASSERT_TRUE(index_.Search(queries_.row(0), params, &result, &stats).ok());
  EXPECT_EQ(stats.lut_adds, index_.size() * 2);
}

TEST_F(VaqIndexTest, SaveLoadPreservesSearchResults) {
  const std::string path = "/tmp/vaq_index_test.bin";
  ASSERT_TRUE(index_.Save(path).ok());
  auto loaded = VaqIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SearchParams params;
  params.k = 10;
  for (size_t q = 0; q < 5; ++q) {
    std::vector<Neighbor> a, b;
    ASSERT_TRUE(index_.Search(queries_.row(q), params, &a).ok());
    ASSERT_TRUE(loaded->Search(queries_.row(q), params, &b).ok());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
    }
  }
  std::remove(path.c_str());
}

TEST_F(VaqIndexTest, AddAppendsSearchableVectors) {
  const FloatMatrix extra = SkewedData(100, 32, 555);
  ASSERT_TRUE(index_.Add(extra).ok());
  EXPECT_EQ(index_.size(), 1300u);
  // A query identical to a fresh vector must find it (ids 1200..1299).
  SearchParams params;
  params.k = 1;
  params.mode = SearchMode::kHeap;
  std::vector<Neighbor> result;
  ASSERT_TRUE(index_.Search(extra.row(0), params, &result).ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_GE(result[0].id, 0);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << is.rdbuf();
  return bytes.str();
}

/// The CODE section payload of a saved VaqIndex: u64 rows, u64 cols, then
/// the uint16 codes in row order.
std::string CodeSection(const std::string& path) {
  const char magic[8] = {'V', 'A', 'Q', 'I', 'D', 'X', '0', '1'};
  auto reader = ContainerReader::Parse(ReadFileBytes(path), magic, 1);
  if (!reader.ok()) return "";
  auto sec = reader->Section(SectionTag('C', 'O', 'D', 'E'));
  if (!sec.ok()) return "";
  return std::string(sec->data, sec->size);
}

TEST_F(VaqIndexTest, AddReadsStoredCodesBackExactly) {
  // Add rebuilds TI from the codes read back out of the blocked layout,
  // and Save writes them back the same way. Neither may disturb a stored
  // code: the rows saved before the Add lead the rows saved after it.
  const std::string prefix =
      "/tmp/vaq_add_readback." + std::to_string(getpid());
  const std::string path_a = prefix + ".a.bin";
  const std::string path_c = prefix + ".c.bin";
  const std::string path_d = prefix + ".d.bin";
  const FloatMatrix extra = SkewedData(150, 32, 777);
  ASSERT_TRUE(index_.Save(path_a).ok());
  ASSERT_TRUE(index_.Add(extra).ok());
  ASSERT_TRUE(index_.Save(path_c).ok());

  const std::string code_a = CodeSection(path_a);
  const std::string code_c = CodeSection(path_c);
  const size_t header = 2 * sizeof(uint64_t);
  const size_t row_bytes = index_.num_subspaces() * sizeof(uint16_t);
  ASSERT_EQ(code_a.size(), header + 1200 * row_bytes);
  ASSERT_EQ(code_c.size(), header + 1350 * row_bytes);
  EXPECT_EQ(code_a.compare(header, std::string::npos, code_c, header,
                           1200 * row_bytes),
            0)
      << "Add changed a stored code";

  // The same Add on the reloaded index saves the same bytes.
  auto loaded = VaqIndex::Load(path_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->Add(extra).ok());
  ASSERT_TRUE(loaded->Save(path_d).ok());
  EXPECT_EQ(ReadFileBytes(path_d), ReadFileBytes(path_c));
  std::remove(path_a.c_str());
  std::remove(path_c.c_str());
  std::remove(path_d.c_str());
}

TEST(VaqIndexConfigTest, UniformAllocationMode) {
  const FloatMatrix data = SkewedData(400, 16, 11);
  VaqOptions opts;
  opts.num_subspaces = 4;
  opts.total_bits = 32;
  opts.adaptive_allocation = false;
  opts.ti_clusters = 16;
  opts.kmeans_iters = 8;
  auto index = VaqIndex::Train(data, opts);
  ASSERT_TRUE(index.ok());
  for (int b : index->bits_per_subspace()) EXPECT_EQ(b, 8);
}

TEST(VaqIndexConfigTest, ClusteredSubspacesMode) {
  const FloatMatrix data = SkewedData(400, 16, 13);
  VaqOptions opts;
  opts.num_subspaces = 4;
  opts.total_bits = 24;
  opts.clustered_subspaces = true;
  opts.ti_clusters = 16;
  opts.kmeans_iters = 8;
  auto index = VaqIndex::Train(data, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  // Non-uniform widths must still cover all dimensions.
  size_t total = 0;
  for (size_t s = 0; s < index->num_subspaces(); ++s) {
    total += index->layout().span(s).length;
  }
  EXPECT_EQ(total, 16u);
}

TEST(VaqIndexConfigTest, BalancingCanBeDisabled) {
  const FloatMatrix data = SkewedData(400, 16, 17);
  VaqOptions opts;
  opts.num_subspaces = 4;
  opts.total_bits = 24;
  opts.partial_balance = false;
  opts.ti_clusters = 16;
  opts.kmeans_iters = 8;
  auto index = VaqIndex::Train(data, opts);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->balance_swaps(), 0u);
}

TEST(VaqIndexConfigTest, RejectsInvalidOptions) {
  const FloatMatrix data = SkewedData(100, 16, 19);
  VaqOptions opts = SmallOptions();
  opts.num_subspaces = 0;
  EXPECT_FALSE(VaqIndex::Train(data, opts).ok());
  opts = SmallOptions();
  opts.num_subspaces = 17;  // > dim
  EXPECT_FALSE(VaqIndex::Train(data, opts).ok());
  opts = SmallOptions();
  opts.min_bits = 0;
  EXPECT_FALSE(VaqIndex::Train(data, opts).ok());
  opts = SmallOptions();
  opts.total_bits = 2;  // infeasible for 8 subspaces at min 1
  EXPECT_FALSE(VaqIndex::Train(data, opts).ok());
  opts = SmallOptions();
  opts.adaptive_allocation = false;
  opts.total_bits = 17 * opts.num_subspaces;  // 17 bits per subspace
  EXPECT_FALSE(VaqIndex::Train(data, opts).ok());
  EXPECT_FALSE(VaqIndex::Train(FloatMatrix(1, 16), SmallOptions()).ok());
}

TEST(VaqIndexConfigTest, RejectsInvalidSearchParams) {
  const FloatMatrix data = SkewedData(200, 16, 23);
  VaqOptions opts;
  opts.num_subspaces = 4;
  opts.total_bits = 24;
  opts.ti_clusters = 8;
  opts.kmeans_iters = 5;
  auto index = VaqIndex::Train(data, opts);
  ASSERT_TRUE(index.ok());
  std::vector<Neighbor> result;
  SearchParams params;
  params.k = 0;
  EXPECT_FALSE(index->Search(data.row(0), params, &result).ok());
  params.k = 5;
  params.visit_fraction = 0.0;
  EXPECT_FALSE(index->Search(data.row(0), params, &result).ok());
  params.visit_fraction = 1.5;
  EXPECT_FALSE(index->Search(data.row(0), params, &result).ok());
  params.visit_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(index->Search(data.row(0), params, &result).ok());
}

TEST(VaqIndexConfigTest, RejectsNonFiniteVectors) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  FloatMatrix data = SkewedData(500, 16, 29);
  VaqOptions opts;
  opts.num_subspaces = 4;
  opts.total_bits = 24;
  opts.ti_clusters = 8;
  opts.kmeans_iters = 5;

  // Train: one NaN anywhere in the training set.
  FloatMatrix poisoned = data;
  poisoned.row(137)[5] = nan;
  EXPECT_EQ(VaqIndex::Train(poisoned, opts).status().code(),
            StatusCode::kInvalidArgument);

  auto index = VaqIndex::Train(data, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  // Add: rows with NaN or inf are rejected and the index does not grow.
  FloatMatrix bad_rows(3, 16);
  for (size_t i = 0; i < bad_rows.size(); ++i) bad_rows.data()[i] = nan;
  EXPECT_EQ(index->Add(bad_rows).code(), StatusCode::kInvalidArgument);
  FloatMatrix one_inf = SkewedData(3, 16, 31);
  one_inf.row(2)[15] = -inf;
  EXPECT_EQ(index->Add(one_inf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index->size(), 500u);

  // Search: a NaN or inf coordinate fails the query.
  std::vector<Neighbor> result;
  SearchParams params;
  params.k = 5;
  std::vector<float> query(data.row(0), data.row(0) + 16);
  query[3] = nan;
  EXPECT_EQ(index->Search(query.data(), params, &result).code(),
            StatusCode::kInvalidArgument);
  query[3] = inf;
  EXPECT_EQ(index->Search(query.data(), params, &result).code(),
            StatusCode::kInvalidArgument);

  // Batch: the bad query gets its own status, the others are answered.
  FloatMatrix queries = SkewedData(3, 16, 37);
  queries.row(1)[0] = nan;
  std::vector<std::vector<Neighbor>> results;
  std::vector<Status> statuses;
  ASSERT_TRUE(
      index->SearchBatchInto(queries, params, 2, &results, &statuses).ok());
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(statuses[1].code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(results[2].size(), 5u);
}

class VaqModeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, bool>> {};

TEST_P(VaqModeEquivalenceTest, AllModesAgreeAtFullVisit) {
  const auto [m, budget_per_subspace, clustered] = GetParam();
  const size_t d = 24;
  const FloatMatrix data = SkewedData(600, d, 100 + m);
  const FloatMatrix queries = SkewedData(8, d, 200 + m);
  VaqOptions opts;
  opts.num_subspaces = m;
  opts.total_bits = m * budget_per_subspace;
  opts.clustered_subspaces = clustered;
  opts.ti_clusters = 20;
  opts.kmeans_iters = 8;
  auto index = VaqIndex::Train(data, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  SearchParams heap_params, ea_params, ti_params;
  heap_params.k = ea_params.k = ti_params.k = 9;
  heap_params.mode = SearchMode::kHeap;
  ea_params.mode = SearchMode::kEarlyAbandon;
  ti_params.mode = SearchMode::kTriangleInequality;
  ti_params.visit_fraction = 1.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::vector<Neighbor> heap_result, ea_result, ti_result;
    ASSERT_TRUE(
        index->Search(queries.row(q), heap_params, &heap_result).ok());
    ASSERT_TRUE(index->Search(queries.row(q), ea_params, &ea_result).ok());
    ASSERT_TRUE(index->Search(queries.row(q), ti_params, &ti_result).ok());
    for (size_t i = 0; i < heap_result.size(); ++i) {
      EXPECT_EQ(heap_result[i].id, ea_result[i].id);
      EXPECT_EQ(heap_result[i].id, ti_result[i].id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, VaqModeEquivalenceTest,
    ::testing::Combine(::testing::Values<size_t>(4, 6, 8),
                       ::testing::Values<size_t>(4, 6),
                       ::testing::Bool()),
    // `p`, not `info`: the INSTANTIATE_TEST_SUITE_P expansion wraps this
    // lambda in a function whose parameter is already named `info`.
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t, bool>>&
           p) {
      std::string name = "m";
      name += std::to_string(std::get<0>(p.param));
      name += "_b";
      name += std::to_string(std::get<1>(p.param));
      name += std::get<2>(p.param) ? "_clustered" : "_uniform";
      return name;
    });

}  // namespace
}  // namespace vaq
