// Tests for the second extension batch: VaqIvf persistence, k-means
// restore, and the umbrella header.

#include "vaq.h"  // umbrella header must be self-contained

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace vaq {
namespace {

FloatMatrix MixtureData(size_t n, uint64_t seed) {
  return GenerateSpectrumMixture(n, 24, PowerLawSpectrum(24, 1.0), 8, 1.5,
                                 seed);
}

TEST(VaqIvfPersistenceTest, SaveLoadRoundtrip) {
  const FloatMatrix base = MixtureData(1200, 75);
  VaqIvfOptions opts;
  opts.vaq.num_subspaces = 6;
  opts.vaq.total_bits = 36;
  opts.vaq.kmeans_iters = 8;
  opts.coarse_k = 16;
  opts.default_nprobe = 4;
  auto index = VaqIvfIndex::Train(base, opts);
  ASSERT_TRUE(index.ok());

  const std::string path = "/tmp/vaq_ivf_test.bin";
  ASSERT_TRUE(index->Save(path).ok());
  auto loaded = VaqIvfIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), index->size());
  EXPECT_EQ(loaded->coarse_k(), index->coarse_k());
  EXPECT_EQ(loaded->bits_per_subspace(), index->bits_per_subspace());

  for (size_t q = 0; q < 5; ++q) {
    std::vector<Neighbor> a, b;
    ASSERT_TRUE(index->Search(base.row(q), 8, 6, &a).ok());
    ASSERT_TRUE(loaded->Search(base.row(q), 8, 6, &b).ok());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
    }
  }
  std::remove(path.c_str());
}

TEST(VaqIvfPersistenceTest, RejectsCorruptedAndMissing) {
  EXPECT_FALSE(VaqIvfIndex::Load("/tmp/missing_vaq_ivf.bin").ok());
  const std::string path = "/tmp/vaq_ivf_corrupt.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "not an index";
  }
  EXPECT_FALSE(VaqIvfIndex::Load(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vaq

namespace vaq {
namespace {

TEST(OpqPersistenceTest, SaveLoadRoundtrip) {
  const FloatMatrix base = GenerateSpectrumMixture(
      600, 16, PowerLawSpectrum(16, 1.0), 4, 1.0, 81);
  OpqOptions opts;
  opts.num_subspaces = 4;
  opts.bits_per_subspace = 4;
  opts.refine_iters = 1;
  opts.kmeans_iters = 8;
  OptimizedProductQuantizer opq(opts);
  ASSERT_TRUE(opq.Train(base).ok());
  const std::string path = "/tmp/vaq_opq_test.bin";
  ASSERT_TRUE(opq.Save(path).ok());
  auto loaded = OptimizedProductQuantizer::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), opq.size());
  EXPECT_TRUE(loaded->rotation() == opq.rotation());
  std::vector<Neighbor> a, b;
  ASSERT_TRUE(opq.Search(base.row(2), 5, &a).ok());
  ASSERT_TRUE(loaded->Search(base.row(2), 5, &b).ok());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
  }
  std::remove(path.c_str());
}

TEST(OpqPersistenceTest, RejectsWrongMagicFromPqFile) {
  // A PQ file must not load as OPQ (distinct magic tags).
  const FloatMatrix base = GenerateSpectrumMixture(
      300, 8, PowerLawSpectrum(8, 1.0), 4, 1.0, 83);
  PqOptions opts;
  opts.num_subspaces = 4;
  opts.bits_per_subspace = 4;
  ProductQuantizer pq(opts);
  ASSERT_TRUE(pq.Train(base).ok());
  const std::string path = "/tmp/vaq_cross_magic.bin";
  ASSERT_TRUE(pq.Save(path).ok());
  EXPECT_FALSE(OptimizedProductQuantizer::Load(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vaq
