#include "core/codebook.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "clustering/centroid_kernel.h"
#include "common/io.h"
#include "common/rng.h"

namespace vaq {
namespace {

FloatMatrix RandomData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix data(n, d);
  for (size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return data;
}

/// Centroid c of a dimension-major dictionary, gathered row-major.
std::vector<float> Centroid(const FloatMatrix& dict, size_t c) {
  std::vector<float> out(dict.rows());
  for (size_t j = 0; j < dict.rows(); ++j) out[j] = dict.at(j, c);
  return out;
}

/// Reference encoder: per subspace, the first index of the minimum
/// SquaredL2 over the dictionary, as a row-at-a-time loop.
std::vector<uint16_t> BruteForceEncode(const VariableCodebooks& books,
                                       const float* x) {
  std::vector<uint16_t> code(books.num_subspaces());
  for (size_t s = 0; s < books.num_subspaces(); ++s) {
    const SubspaceSpan& span = books.layout().span(s);
    const FloatMatrix& dict = books.dictionary(s);
    float best = std::numeric_limits<float>::max();
    for (size_t c = 0; c < dict.cols(); ++c) {
      const float d =
          SquaredL2(x + span.offset, Centroid(dict, c).data(), span.length);
      if (d < best) {
        best = d;
        code[s] = static_cast<uint16_t>(c);
      }
    }
  }
  return code;
}

class CodebookTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = RandomData(500, 12, 7);
    auto layout = SubspaceLayout::Uniform(12, 3);
    ASSERT_TRUE(layout.ok());
    layout_ = *layout;
    CodebookOptions opts;
    opts.seed = 11;
    ASSERT_TRUE(books_.Train(data_, layout_, {5, 3, 2}, opts).ok());
  }

  FloatMatrix data_;
  SubspaceLayout layout_;
  VariableCodebooks books_;
};

TEST_F(CodebookTest, DictionarySizesMatchBits) {
  EXPECT_EQ(books_.dictionary(0).cols(), 32u);
  EXPECT_EQ(books_.dictionary(1).cols(), 8u);
  EXPECT_EQ(books_.dictionary(2).cols(), 4u);
  EXPECT_EQ(books_.dictionary(0).rows(), 4u);
  EXPECT_EQ(books_.lut_entries(), 32u + 8u + 4u);
  EXPECT_EQ(books_.lut_offset(0), 0u);
  EXPECT_EQ(books_.lut_offset(1), 32u);
  EXPECT_EQ(books_.lut_offset(2), 40u);
}

TEST_F(CodebookTest, CodesWithinDictionaryRange) {
  auto codes = books_.Encode(data_);
  ASSERT_TRUE(codes.ok());
  for (size_t r = 0; r < codes->rows(); ++r) {
    EXPECT_LT(codes->at(r, 0), 32u);
    EXPECT_LT(codes->at(r, 1), 8u);
    EXPECT_LT(codes->at(r, 2), 4u);
  }
}

TEST_F(CodebookTest, EncodePicksNearestDictionaryItem) {
  std::vector<uint16_t> code(3);
  books_.EncodeRow(data_.row(0), code.data());
  for (size_t s = 0; s < 3; ++s) {
    const auto& span = layout_.span(s);
    const float chosen =
        SquaredL2(data_.row(0) + span.offset,
                  Centroid(books_.dictionary(s), code[s]).data(), span.length);
    for (size_t c = 0; c < books_.dictionary(s).cols(); ++c) {
      const float other =
          SquaredL2(data_.row(0) + span.offset,
                    Centroid(books_.dictionary(s), c).data(), span.length);
      EXPECT_LE(chosen, other + 1e-6f);
    }
  }
}

TEST_F(CodebookTest, AdcDistanceEqualsDecodedDistance) {
  // ADC(q, code) must equal the exact distance between q and the decoded
  // vector — the core correctness property of the lookup tables.
  const FloatMatrix queries = RandomData(10, 12, 99);
  auto codes = books_.Encode(data_);
  ASSERT_TRUE(codes.ok());
  std::vector<float> lut;
  std::vector<float> decoded(12);
  for (size_t q = 0; q < queries.rows(); ++q) {
    books_.BuildLookupTable(queries.row(q), &lut);
    for (size_t r = 0; r < 20; ++r) {
      const float adc = books_.AdcDistance(codes->row(r), lut.data());
      books_.DecodeRow(codes->row(r), decoded.data());
      const float exact = SquaredL2(queries.row(q), decoded.data(), 12);
      EXPECT_NEAR(adc, exact, 1e-3f * std::max(1.f, exact));
    }
  }
}

TEST_F(CodebookTest, PrefixAdcMatchesPartialSum) {
  // A prefix table is the full table's leading lut_offset(2) entries, bit
  // for bit, so a prefix ADC sum over it is the full table's partial sum.
  const FloatMatrix queries = RandomData(3, 12, 101);
  std::vector<float> full_lut, prefix_lut;
  for (size_t q = 0; q < queries.rows(); ++q) {
    books_.BuildLookupTable(queries.row(q), &full_lut);
    books_.BuildPrefixLookupTable(queries.row(q), 2, &prefix_lut);
    ASSERT_EQ(prefix_lut.size(), books_.lut_offset(2));
    EXPECT_EQ(std::memcmp(prefix_lut.data(), full_lut.data(),
                          prefix_lut.size() * sizeof(float)),
              0);
    // All subspaces: the full table itself.
    books_.BuildPrefixLookupTable(queries.row(q), books_.num_subspaces(),
                                  &prefix_lut);
    ASSERT_EQ(prefix_lut.size(), books_.lut_entries());
    EXPECT_EQ(std::memcmp(prefix_lut.data(), full_lut.data(),
                          prefix_lut.size() * sizeof(float)),
              0);
  }
}

TEST_F(CodebookTest, ReconstructionErrorDecreasesWithMoreBits) {
  VariableCodebooks small, large;
  CodebookOptions opts;
  opts.seed = 21;
  ASSERT_TRUE(small.Train(data_, layout_, {2, 2, 2}, opts).ok());
  ASSERT_TRUE(large.Train(data_, layout_, {6, 6, 6}, opts).ok());
  auto err_small = small.ReconstructionError(data_);
  auto err_large = large.ReconstructionError(data_);
  ASSERT_TRUE(err_small.ok());
  ASSERT_TRUE(err_large.ok());
  EXPECT_LT(*err_large, *err_small);
}

TEST_F(CodebookTest, SaveLoadRoundtrip) {
  std::stringstream ss;
  books_.Save(ss);
  VariableCodebooks loaded;
  ASSERT_TRUE(loaded.Load(ss).ok());
  EXPECT_EQ(loaded.bits(), books_.bits());
  EXPECT_EQ(loaded.num_subspaces(), books_.num_subspaces());
  EXPECT_TRUE(loaded.dictionary(0) == books_.dictionary(0));
  // Encoding behaviour must be identical.
  std::vector<uint16_t> a(3), b(3);
  books_.EncodeRow(data_.row(5), a.data());
  loaded.EncodeRow(data_.row(5), b.data());
  EXPECT_EQ(a, b);
}

TEST_F(CodebookTest, HierarchicalPathForLargeDictionaries) {
  // 11 bits exceeds the default 2^10 threshold and takes the hierarchical
  // path; dictionary must still have exactly 2^11 entries.
  const FloatMatrix big = RandomData(3000, 4, 31);
  auto layout = SubspaceLayout::Uniform(4, 1);
  ASSERT_TRUE(layout.ok());
  VariableCodebooks books;
  CodebookOptions opts;
  opts.seed = 41;
  ASSERT_TRUE(books.Train(big, *layout, {11}, opts).ok());
  EXPECT_EQ(books.dictionary(0).cols(), 2048u);
}

std::vector<ScanKernelType> DistanceKernels() {
  std::vector<ScanKernelType> kernels{ScanKernelType::kScalar};
  if (Avx2KernelsAvailable()) {
    kernels.push_back(ScanKernelType::kAvx2);
  }
  return kernels;
}

// Every kernel entry must be the exact bits of SquaredL2 against the
// row-major centroid, and `nearest` the first strict minimum of those
// distances. Widths 1-9 cover the serial tail alone (< 4), one group of
// four (4-7) and several groups whose partial-sum order differs from a
// sequential sum (>= 8); bits 1-12 include dictionaries of fewer than 8
// entries, i.e. the SIMD lane remainder.
TEST(CentroidDistanceKernelTest, BitIdenticalToSquaredL2) {
  Rng rng(2024);
  for (ScanKernelType type : DistanceKernels()) {
    const CentroidKernel& kernel = GetCentroidKernel(type);
    ASSERT_NE(kernel.distances, nullptr);
    ASSERT_NE(kernel.nearest, nullptr);
    for (size_t len = 1; len <= 9; ++len) {
      for (size_t bits = 1; bits <= 12; ++bits) {
        const size_t k = size_t{1} << bits;
        FloatMatrix dict(len, k);
        std::vector<float> sub(len);
        const float scale = bits % 3 == 0 ? 1e3f : bits % 3 == 1 ? 1.f : 1e-3f;
        for (size_t i = 0; i < dict.size(); ++i) {
          dict.data()[i] = scale * static_cast<float>(rng.Gaussian());
        }
        for (float& v : sub) v = scale * static_cast<float>(rng.Gaussian());
        // The full dictionary, then a sub-range starting mid-vector (the
        // shape of a tile over a dictionary row of pitch k).
        const size_t first = k > 3 ? 3 : 0;
        for (size_t begin : {size_t{0}, first}) {
          const size_t count = k - begin;
          std::vector<float> out(count, -1.f);
          kernel.distances(sub.data(), dict.data() + begin, len, k, count,
                           out.data());
          size_t mismatches = 0;
          float best = std::numeric_limits<float>::max();
          uint32_t best_c = 0;
          for (size_t c = 0; c < count; ++c) {
            const float expect = SquaredL2(
                sub.data(), Centroid(dict, begin + c).data(), len);
            if (std::memcmp(&out[c], &expect, sizeof(float)) != 0) {
              ++mismatches;
            }
            if (expect < best) {
              best = expect;
              best_c = static_cast<uint32_t>(c);
            }
          }
          EXPECT_EQ(mismatches, 0u)
              << kernel.name << " len=" << len << " bits=" << bits
              << " begin=" << begin;
          float nearest = -1.f;
          const uint32_t got = kernel.nearest(sub.data(), dict.data() + begin,
                                              len, k, count, &nearest);
          EXPECT_EQ(got, best_c)
              << kernel.name << " len=" << len << " bits=" << bits
              << " begin=" << begin;
          EXPECT_EQ(std::memcmp(&nearest, &best, sizeof(float)), 0)
              << kernel.name << " len=" << len << " bits=" << bits
              << " begin=" << begin;
        }
      }
    }
  }
}

TEST(CentroidDistanceKernelTest, LookupTablesAndCodesMatchRowMajorReference) {
  // Spans of 3 and 4 dims (96-d and 128-d at m=32) plus a ragged layout;
  // 9 bits = 512 entries, 2 bits = fewer than one SIMD vector.
  for (size_t dim : {size_t{12}, size_t{16}, size_t{19}}) {
    const FloatMatrix data = RandomData(700, dim, 50 + dim);
    auto layout = SubspaceLayout::Uniform(dim, 4);
    ASSERT_TRUE(layout.ok());
    VariableCodebooks books;
    CodebookOptions opts;
    opts.kmeans_iters = 4;
    ASSERT_TRUE(books.Train(data, *layout, {9, 1, 2, 6}, opts).ok());

    std::vector<float> lut;
    for (size_t q = 0; q < 4; ++q) {
      books.BuildLookupTable(data.row(q), &lut);
      size_t mismatches = 0;
      for (size_t s = 0; s < books.num_subspaces(); ++s) {
        const SubspaceSpan& span = layout->span(s);
        const FloatMatrix& dict = books.dictionary(s);
        for (size_t c = 0; c < dict.cols(); ++c) {
          const float expect = SquaredL2(
              data.row(q) + span.offset, Centroid(dict, c).data(),
              span.length);
          if (std::memcmp(&lut[books.lut_offset(s) + c], &expect,
                          sizeof(float)) != 0) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "dim=" << dim << " query=" << q;
    }

    std::vector<uint16_t> code(books.num_subspaces());
    for (size_t r = 0; r < 200; ++r) {
      books.EncodeRow(data.row(r), code.data());
      ASSERT_EQ(code, BruteForceEncode(books, data.row(r)))
          << "dim=" << dim << " row=" << r;
    }
  }
}

/// Codebooks of one subspace holding `centroids` (row-major, one centroid
/// per row), loaded from the serialized form.
VariableCodebooks OneSubspaceBooks(const FloatMatrix& centroids, int bits) {
  std::stringstream ss;
  WritePod<uint8_t>(ss, 1);
  WritePod<uint64_t>(ss, 1);
  WritePod<uint64_t>(ss, 0);
  WritePod<uint64_t>(ss, centroids.cols());
  WriteVector(ss, std::vector<int32_t>{bits});
  WriteMatrix(ss, centroids);
  VariableCodebooks books;
  EXPECT_TRUE(books.Load(ss).ok());
  return books;
}

TEST(CentroidDistanceKernelTest, DuplicatedCentroidsEncodeToLowestIndex) {
  // 3 dims and 10 bits: every centroid sits far away except exact copies
  // of one point at indices 100, 700 (another SIMD lane and kernel tile)
  // and 1023. The lowest index must win.
  constexpr size_t kLen = 3;
  FloatMatrix centroids(1024, kLen);
  for (size_t c = 0; c < centroids.rows(); ++c) {
    for (size_t j = 0; j < kLen; ++j) {
      centroids.at(c, j) = 100.f + static_cast<float>(c + j);
    }
  }
  const float nearest[kLen] = {0.5f, -0.25f, 2.f};
  for (size_t c : {size_t{700}, size_t{100}, size_t{1023}}) {
    std::copy(nearest, nearest + kLen, centroids.row(c));
  }
  const VariableCodebooks books = OneSubspaceBooks(centroids, 10);
  const float queries[][kLen] = {{0.5f, -0.25f, 2.f}, {0.f, 0.f, 0.f}};
  for (const auto& query : queries) {
    uint16_t code = 0;
    books.EncodeRow(query, &code);
    EXPECT_EQ(code, 100u);
    EXPECT_EQ(BruteForceEncode(books, query), std::vector<uint16_t>{100});
  }

  // A dictionary of identical entries encodes everything to 0.
  const VariableCodebooks same =
      OneSubspaceBooks(FloatMatrix(16, kLen, 1.f), 4);
  uint16_t code = 7;
  same.EncodeRow(queries[0], &code);
  EXPECT_EQ(code, 0u);
}

TEST(CodebookErrorsTest, RejectsBadInputs) {
  VariableCodebooks books;
  auto layout = SubspaceLayout::Uniform(8, 2);
  ASSERT_TRUE(layout.ok());
  CodebookOptions opts;
  const FloatMatrix data = RandomData(50, 8, 3);
  EXPECT_FALSE(books.Train(FloatMatrix(), *layout, {4, 4}, opts).ok());
  EXPECT_FALSE(books.Train(data, *layout, {4}, opts).ok());       // width
  EXPECT_FALSE(books.Train(data, *layout, {4, 0}, opts).ok());    // bits
  EXPECT_FALSE(books.Train(data, *layout, {4, 17}, opts).ok());   // bits
  EXPECT_FALSE(books.Encode(data).ok());                          // untrained
  EXPECT_FALSE(books.ReconstructionError(data).ok());

  ASSERT_TRUE(books.Train(data, *layout, {4, 4}, opts).ok());
  EXPECT_FALSE(books.Encode(RandomData(5, 9, 5)).ok());  // wrong width
}

TEST(CodebookDeterminismTest, SameSeedSameDictionaries) {
  const FloatMatrix data = RandomData(200, 8, 17);
  auto layout = SubspaceLayout::Uniform(8, 2);
  ASSERT_TRUE(layout.ok());
  CodebookOptions opts;
  opts.seed = 5;
  VariableCodebooks a, b;
  ASSERT_TRUE(a.Train(data, *layout, {4, 4}, opts).ok());
  ASSERT_TRUE(b.Train(data, *layout, {4, 4}, opts).ok());
  EXPECT_TRUE(a.dictionary(0) == b.dictionary(0));
  EXPECT_TRUE(a.dictionary(1) == b.dictionary(1));
}

}  // namespace
}  // namespace vaq
