#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/io.h"
#include "datasets/synthetic.h"
#include "datasets/ucr_like.h"
#include "datasets/vector_io.h"
#include "linalg/pca.h"

namespace vaq {
namespace {

TEST(SyntheticTest, ShapesMatchPaperDatasets) {
  EXPECT_EQ(SyntheticKindDim(SyntheticKind::kSiftLike), 128u);
  EXPECT_EQ(SyntheticKindDim(SyntheticKind::kDeepLike), 96u);
  EXPECT_EQ(SyntheticKindDim(SyntheticKind::kSaldLike), 128u);
  EXPECT_EQ(SyntheticKindDim(SyntheticKind::kSeismicLike), 256u);
  EXPECT_EQ(SyntheticKindDim(SyntheticKind::kAstroLike), 256u);
  const FloatMatrix x = GenerateSynthetic(SyntheticKind::kSiftLike, 100, 1);
  EXPECT_EQ(x.rows(), 100u);
  EXPECT_EQ(x.cols(), 128u);
}

TEST(SyntheticTest, DeterministicBySeed) {
  const FloatMatrix a = GenerateSynthetic(SyntheticKind::kDeepLike, 50, 5);
  const FloatMatrix b = GenerateSynthetic(SyntheticKind::kDeepLike, 50, 5);
  const FloatMatrix c = GenerateSynthetic(SyntheticKind::kDeepLike, 50, 6);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(SyntheticTest, SiftLikeIsNonNegative) {
  const FloatMatrix x = GenerateSynthetic(SyntheticKind::kSiftLike, 50, 9);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_GE(x.data()[i], 0.f);
}

TEST(SyntheticTest, DeepLikeIsUnitNorm) {
  const FloatMatrix x = GenerateSynthetic(SyntheticKind::kDeepLike, 50, 11);
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(SquaredNorm(x.row(r), x.cols()), 1.f, 1e-3f);
  }
}

TEST(SyntheticTest, TimeSeriesAreZNormalized) {
  for (auto kind : {SyntheticKind::kSaldLike, SyntheticKind::kSeismicLike,
                    SyntheticKind::kAstroLike}) {
    const FloatMatrix x = GenerateSynthetic(kind, 20, 13);
    for (size_t r = 0; r < x.rows(); ++r) {
      double mean = 0, var = 0;
      for (size_t c = 0; c < x.cols(); ++c) mean += x(r, c);
      mean /= x.cols();
      for (size_t c = 0; c < x.cols(); ++c) {
        var += (x(r, c) - mean) * (x(r, c) - mean);
      }
      var /= x.cols();
      EXPECT_NEAR(mean, 0.0, 1e-4);
      EXPECT_NEAR(var, 1.0, 1e-3);
    }
  }
}

TEST(SyntheticTest, TimeSeriesSpectrumMoreSkewedThanDeep) {
  // The property VAQ exploits: SALD-like random walks concentrate energy
  // in few PCs while DEEP-like embeddings spread it out (Figure 3's skew).
  auto top5_share = [](const FloatMatrix& x) {
    Pca pca;
    EXPECT_TRUE(pca.Fit(x).ok());
    const auto ratio = pca.ExplainedVarianceRatio();
    double acc = 0.0;
    for (size_t i = 0; i < 5; ++i) acc += ratio[i];
    return acc;
  };
  const double sald = top5_share(
      GenerateSynthetic(SyntheticKind::kSaldLike, 500, 17));
  const double deep = top5_share(
      GenerateSynthetic(SyntheticKind::kDeepLike, 500, 17));
  EXPECT_GT(sald, 0.5);
  EXPECT_GT(sald, deep + 0.2);
}

TEST(SyntheticTest, PowerLawSpectrumNormalized) {
  const auto spectrum = PowerLawSpectrum(16, 1.0);
  double total = 0.0;
  for (size_t i = 0; i < 16; ++i) {
    total += spectrum[i];
    if (i > 0) {
      EXPECT_LT(spectrum[i], spectrum[i - 1]);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(SyntheticTest, SpectrumMixtureRealizesTargetSkew) {
  // A steeper requested spectrum must produce a more concentrated
  // empirical spectrum.
  const size_t d = 24;
  auto share = [&](double alpha) {
    const FloatMatrix x = GenerateSpectrumMixture(
        800, d, PowerLawSpectrum(d, alpha), 1, 0.0, 23);
    Pca pca;
    EXPECT_TRUE(pca.Fit(x).ok());
    const auto ratio = pca.ExplainedVarianceRatio();
    return ratio[0] + ratio[1] + ratio[2];
  };
  EXPECT_GT(share(2.0), share(0.3) + 0.1);
}

TEST(SyntheticTest, QueriesPerturbedByNoise) {
  const FloatMatrix clean =
      GenerateSyntheticQueries(SyntheticKind::kDeepLike, 10, 3, 0.0);
  const FloatMatrix noisy =
      GenerateSyntheticQueries(SyntheticKind::kDeepLike, 10, 3, 0.3);
  EXPECT_FALSE(clean == noisy);
  EXPECT_EQ(clean.rows(), noisy.rows());
}

TEST(UcrLikeTest, GeneratesRequestedArchive) {
  UcrArchiveGenerator gen(1);
  const auto d0 = gen.Generate(0);
  EXPECT_EQ(d0.name, "ucr_synth_000");
  EXPECT_GT(d0.train.rows(), 100u);
  EXPECT_GT(d0.test.rows(), 20u);
  EXPECT_EQ(d0.train.cols(), d0.test.cols());
}

TEST(UcrLikeTest, DeterministicPerIndex) {
  UcrArchiveGenerator gen(7);
  const auto a = gen.Generate(42);
  const auto b = gen.Generate(42);
  EXPECT_TRUE(a.train == b.train);
  EXPECT_TRUE(a.test == b.test);
}

TEST(UcrLikeTest, DatasetsAreDiverse) {
  UcrArchiveGenerator gen(3);
  std::set<size_t> lengths;
  for (size_t i = 0; i < 24; ++i) {
    lengths.insert(gen.Generate(i).train.cols());
  }
  EXPECT_GE(lengths.size(), 6u);
}

TEST(UcrLikeTest, SeriesAreZNormalized) {
  UcrArchiveGenerator gen(5);
  const auto dataset = gen.Generate(10);
  for (size_t r = 0; r < std::min<size_t>(20, dataset.train.rows()); ++r) {
    double mean = 0;
    for (size_t c = 0; c < dataset.train.cols(); ++c) {
      mean += dataset.train(r, c);
    }
    mean /= dataset.train.cols();
    EXPECT_NEAR(mean, 0.0, 1e-4);
  }
}

TEST(VectorIoTest, FvecsRoundtrip) {
  const std::string path = "/tmp/vaq_io_test.fvecs";
  FloatMatrix m(3, 4, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8,
                                         9, 10, 11, 12});
  ASSERT_TRUE(WriteFvecs(path, m).ok());
  auto loaded = ReadFvecs(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == m);
  auto limited = ReadFvecs(path, 2);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->rows(), 2u);
  std::remove(path.c_str());
}

TEST(VectorIoTest, IvecsRoundtrip) {
  const std::string path = "/tmp/vaq_io_test.ivecs";
  Matrix<int32_t> m(2, 3, std::vector<int32_t>{1, -2, 3, 4, 5, -6});
  ASSERT_TRUE(WriteIvecs(path, m).ok());
  auto loaded = ReadIvecs(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == m);
  std::remove(path.c_str());
}

// Writes raw bytes, so tests can build records the writers never emit.
void WriteRawFile(const std::string& path, const std::vector<int32_t>& words,
                  const std::vector<uint8_t>& tail = {}) {
  std::ofstream os(path, std::ios::binary);
  WriteBytes(os, words.data(), words.size() * sizeof(int32_t));
  WriteBytes(os, tail.data(), tail.size());
}

TEST(VectorIoTest, BvecsRoundtrip) {
  const std::string path = "/tmp/vaq_io_test.bvecs";
  // Two 3-dim records: int32 dim, then 3 uint8 values each.
  {
    std::ofstream os(path, std::ios::binary);
    const int32_t d = 3;
    const uint8_t rows[2][3] = {{0, 7, 255}, {1, 128, 42}};
    for (const auto& row : rows) {
      WriteBytes(os, &d, sizeof(d));
      WriteBytes(os, row, sizeof(row));
    }
  }
  auto loaded = ReadBvecs(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded ==
              FloatMatrix(2, 3, std::vector<float>{0, 7, 255, 1, 128, 42}));
  auto limited = ReadBvecs(path, 1);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->rows(), 1u);
  std::remove(path.c_str());
}

TEST(VectorIoTest, HeaderOnlyHugeDimensionIsIoError) {
  // A 4-byte file claiming 2^31-1 dims must fail before any payload
  // buffer is sized from the header.
  const std::string path = "/tmp/vaq_io_huge_header.vecs";
  WriteRawFile(path, {0x7fffffff});
  EXPECT_EQ(ReadFvecs(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadBvecs(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadIvecs(path).status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(VectorIoTest, RecordLongerThanFileIsIoError) {
  // Header claims 10 dims; only 3 int32/float values (12 bytes) follow.
  const std::string path = "/tmp/vaq_io_short_record.vecs";
  WriteRawFile(path, {10, 1, 2, 3});
  EXPECT_EQ(ReadFvecs(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadIvecs(path).status().code(), StatusCode::kIoError);
  // As .bvecs the header claims 10 bytes; only 3 follow.
  WriteRawFile(path, {10}, {1, 2, 3});
  EXPECT_EQ(ReadBvecs(path).status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(VectorIoTest, MissingFileFails) {
  EXPECT_FALSE(ReadFvecs("/tmp/does_not_exist_vaq.fvecs").ok());
  EXPECT_FALSE(ReadBvecs("/tmp/does_not_exist_vaq.bvecs").ok());
  EXPECT_FALSE(ReadIvecs("/tmp/does_not_exist_vaq.ivecs").ok());
}

TEST(ZNormalizeTest, HandlesConstantRows) {
  FloatMatrix m(1, 4, 5.f);
  ZNormalizeRows(&m);
  for (size_t c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(m(0, c), 0.f);
}

}  // namespace
}  // namespace vaq
