// Golden-file compatibility tests for the persistence formats.
//
// tests/golden/ holds committed index files:
//   *_v0.bin  — legacy unversioned layout, written by the pre-container
//               code. Loading them proves the legacy path keeps working.
//   *_v1.bin  — the versioned container. Loading them and re-saving
//               bit-identically proves the current writer still produces
//               exactly this format; any unintended layout change breaks
//               these tests instead of silently orphaning users' files.
//
// All goldens encode the same dataset:
//   GenerateSpectrumMixture(120, 16, PowerLawSpectrum(16, 1.0), 4, 1.0, 61)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "index/vaq_ivf.h"
#include "quant/opq.h"
#include "quant/pq.h"

#ifndef VAQ_TEST_DATA_DIR
#error "VAQ_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace vaq {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(VAQ_TEST_DATA_DIR) + "/golden/" + name;
}

std::string ReadWhole(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing golden file " << path;
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

/// Passes exactly when `actual == expected`. A mismatch reports both
/// sizes and the first differing offset with its two byte values, not the
/// two files as escaped text.
::testing::AssertionResult SameBytes(const std::string& actual,
                                     const std::string& expected) {
  if (actual == expected) return ::testing::AssertionSuccess();
  const size_t common = std::min(actual.size(), expected.size());
  size_t at = 0;
  while (at < common && actual[at] == expected[at]) ++at;
  ::testing::AssertionResult failure = ::testing::AssertionFailure();
  failure << "sizes " << actual.size() << " (actual) vs " << expected.size()
          << " (expected); first difference at offset " << at;
  if (at < common) {
    char bytes[32];
    std::snprintf(bytes, sizeof(bytes), ": 0x%02x vs 0x%02x",
                  static_cast<unsigned char>(actual[at]),
                  static_cast<unsigned char>(expected[at]));
    failure << bytes;
  } else {
    failure << " (one is a prefix of the other)";
  }
  return failure;
}

FloatMatrix GoldenData() {
  return GenerateSpectrumMixture(120, 16, PowerLawSpectrum(16, 1.0), 4, 1.0,
                                 61);
}

TEST(GoldenFormatTest, LegacyV0VaqIndexStillLoads) {
  EXPECT_NE(ReadWhole(GoldenPath("vaq_index_v0.bin")).substr(0, 8),
            std::string(kContainerMagic, 8))
      << "v0 golden unexpectedly has the container magic";

  auto index = VaqIndex::Load(GoldenPath("vaq_index_v0.bin"));
  ASSERT_TRUE(index.ok()) << index.status().message();
  EXPECT_EQ(index->size(), 120u);
  EXPECT_EQ(index->dim(), 16u);
  EXPECT_TRUE(index->ValidateInvariants().ok());

  const FloatMatrix data = GoldenData();
  SearchParams params;
  params.k = 5;
  std::vector<Neighbor> out;
  ASSERT_TRUE(index->Search(data.row(3), params, &out).ok());
  ASSERT_EQ(out.size(), 5u);
}

TEST(GoldenFormatTest, LegacyV0VaqIvfStillLoads) {
  auto index = VaqIvfIndex::Load(GoldenPath("vaq_ivf_v0.bin"));
  ASSERT_TRUE(index.ok()) << index.status().message();
  EXPECT_EQ(index->size(), 120u);
  EXPECT_EQ(index->coarse_k(), 8u);
  EXPECT_TRUE(index->ValidateInvariants().ok());

  const FloatMatrix data = GoldenData();
  std::vector<Neighbor> out;
  ASSERT_TRUE(index->Search(data.row(3), 5, 0, &out).ok());
  ASSERT_EQ(out.size(), 5u);
}

TEST(GoldenFormatTest, LegacyV0PqStillLoads) {
  auto pq = ProductQuantizer::Load(GoldenPath("pq_v0.bin"));
  ASSERT_TRUE(pq.ok()) << pq.status().message();
  EXPECT_EQ(pq->size(), 120u);
  EXPECT_TRUE(pq->ValidateInvariants().ok());

  const FloatMatrix data = GoldenData();
  std::vector<Neighbor> out;
  ASSERT_TRUE(pq->Search(data.row(3), 5, &out).ok());
  ASSERT_EQ(out.size(), 5u);
}

TEST(GoldenFormatTest, LegacyV0OpqStillLoads) {
  auto opq = OptimizedProductQuantizer::Load(GoldenPath("opq_v0.bin"));
  ASSERT_TRUE(opq.ok()) << opq.status().message();
  EXPECT_EQ(opq->size(), 120u);
  EXPECT_TRUE(opq->ValidateInvariants().ok());

  const FloatMatrix data = GoldenData();
  std::vector<Neighbor> out;
  ASSERT_TRUE(opq->Search(data.row(3), 5, &out).ok());
  ASSERT_EQ(out.size(), 5u);
}

/// Save → Load → Save must reproduce the exact same bytes: nothing about
/// an index is lost or mutated by a round trip through disk.
template <typename T, typename LoadFn>
void ExpectStableRoundTrip(const T& index, const LoadFn& load,
                           const std::string& tmp) {
  ASSERT_TRUE(index.Save(tmp).ok());
  const std::string first = ReadWhole(tmp);
  auto reloaded = load(tmp);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
  ASSERT_TRUE(reloaded->Save(tmp).ok());
  EXPECT_TRUE(SameBytes(ReadWhole(tmp), first))
      << "save→load→save did not reproduce identical bytes";
  std::remove(tmp.c_str());
}

TEST(GoldenFormatTest, UpgradedV0RoundTripsBitIdentically) {
  auto index = VaqIndex::Load(GoldenPath("vaq_index_v0.bin"));
  ASSERT_TRUE(index.ok());
  ExpectStableRoundTrip(*index, &VaqIndex::Load,
                        "/tmp/vaq_golden_upgrade.bin");
}

TEST(GoldenFormatTest, V1VaqIndexMatchesCommittedBytes) {
  const std::string path = GoldenPath("vaq_index_v1.bin");
  EXPECT_EQ(ReadWhole(path).substr(0, 8), std::string(kContainerMagic, 8));
  auto index = VaqIndex::Load(path);
  ASSERT_TRUE(index.ok()) << index.status().message();
  const std::string tmp = "/tmp/vaq_golden_v1_resave.bin";
  ASSERT_TRUE(index->Save(tmp).ok());
  EXPECT_TRUE(SameBytes(ReadWhole(tmp), ReadWhole(path)))
      << "current writer no longer reproduces the committed v1 format";
  std::remove(tmp.c_str());

  const FloatMatrix data = GoldenData();
  SearchParams params;
  params.k = 5;
  std::vector<Neighbor> out;
  ASSERT_TRUE(index->Search(data.row(3), params, &out).ok());
  ASSERT_EQ(out.size(), 5u);
}

TEST(GoldenFormatTest, V1VaqIvfMatchesCommittedBytes) {
  const std::string path = GoldenPath("vaq_ivf_v1.bin");
  auto index = VaqIvfIndex::Load(path);
  ASSERT_TRUE(index.ok()) << index.status().message();
  const std::string tmp = "/tmp/vaq_golden_ivf_resave.bin";
  ASSERT_TRUE(index->Save(tmp).ok());
  EXPECT_TRUE(SameBytes(ReadWhole(tmp), ReadWhole(path)));
  std::remove(tmp.c_str());
}

TEST(GoldenFormatTest, V1PqMatchesCommittedBytes) {
  const std::string path = GoldenPath("pq_v1.bin");
  auto pq = ProductQuantizer::Load(path);
  ASSERT_TRUE(pq.ok()) << pq.status().message();
  const std::string tmp = "/tmp/vaq_golden_pq_resave.bin";
  ASSERT_TRUE(pq->Save(tmp).ok());
  EXPECT_TRUE(SameBytes(ReadWhole(tmp), ReadWhole(path)));
  std::remove(tmp.c_str());
}

TEST(GoldenFormatTest, V1OpqMatchesCommittedBytes) {
  const std::string path = GoldenPath("opq_v1.bin");
  auto opq = OptimizedProductQuantizer::Load(path);
  ASSERT_TRUE(opq.ok()) << opq.status().message();
  const std::string tmp = "/tmp/vaq_golden_opq_resave.bin";
  ASSERT_TRUE(opq->Save(tmp).ok());
  EXPECT_TRUE(SameBytes(ReadWhole(tmp), ReadWhole(path)));
  std::remove(tmp.c_str());
}

TEST(GoldenFormatTest, RetiredOptionSlotsAreReadAndIgnored) {
  // The v0 OPTS payload follows the 8-byte magic: four uint64 fields
  // (bytes 8-39), the retired target-variance double (40-47), then
  // clustered_subspaces, partial_balance, adaptive_allocation and the
  // retired PCA-centering byte (48-51). The goldens hold 1.0 and 1; other
  // values must neither fail Load nor change answers, and a re-save writes
  // the fixed values back.
  std::string bytes = ReadWhole(GoldenPath("vaq_index_v0.bin"));
  ASSERT_GT(bytes.size(), 52u);
  double target_variance = 0.0;
  std::memcpy(&target_variance, &bytes[40], sizeof(target_variance));
  ASSERT_EQ(target_variance, 1.0);
  ASSERT_EQ(bytes[51], 1);
  target_variance = 0.5;
  std::memcpy(&bytes[40], &target_variance, sizeof(target_variance));
  bytes[51] = 0;
  const std::string edited = "/tmp/vaq_golden_retired_slots.bin";
  {
    std::ofstream os(edited, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto index = VaqIndex::Load(edited);
  std::remove(edited.c_str());
  ASSERT_TRUE(index.ok()) << index.status().message();
  auto golden = VaqIndex::Load(GoldenPath("vaq_index_v0.bin"));
  ASSERT_TRUE(golden.ok());

  const FloatMatrix data = GoldenData();
  SearchParams params;
  params.k = 5;
  for (size_t q : {0, 3, 17, 64, 119}) {
    std::vector<Neighbor> a, b;
    ASSERT_TRUE(index->Search(data.row(q), params, &a).ok());
    ASSERT_TRUE(golden->Search(data.row(q), params, &b).ok());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }

  const std::string tmp = "/tmp/vaq_golden_retired_slots_resave.bin";
  ASSERT_TRUE(index->Save(tmp).ok());
  EXPECT_TRUE(
      SameBytes(ReadWhole(tmp), ReadWhole(GoldenPath("vaq_index_v1.bin"))))
      << "re-save did not write the retired slots' fixed values";
  std::remove(tmp.c_str());
}

TEST(GoldenFormatTest, OpqRetiredCenteringSlotIsReadAndIgnored) {
  // The v0 OPTS payload follows the 8-byte magic: num_subspaces and
  // bits_per_subspace (uint64, bytes 8-23), refine_iters and kmeans_iters
  // (int32, 24-31), seed (uint64, 32-39), then the retired centering byte
  // (40). The golden holds 1; 0 must neither fail Load nor change answers,
  // and a re-save writes the fixed value back.
  std::string bytes = ReadWhole(GoldenPath("opq_v0.bin"));
  ASSERT_GT(bytes.size(), 41u);
  ASSERT_EQ(bytes[40], 1);
  bytes[40] = 0;
  const std::string edited = "/tmp/vaq_golden_opq_retired_slot.bin";
  {
    std::ofstream os(edited, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto opq = OptimizedProductQuantizer::Load(edited);
  std::remove(edited.c_str());
  ASSERT_TRUE(opq.ok()) << opq.status().message();
  auto golden = OptimizedProductQuantizer::Load(GoldenPath("opq_v0.bin"));
  ASSERT_TRUE(golden.ok());

  const FloatMatrix data = GoldenData();
  for (size_t q : {0, 3, 17, 64, 119}) {
    std::vector<Neighbor> a, b;
    ASSERT_TRUE(opq->Search(data.row(q), 5, &a).ok());
    ASSERT_TRUE(golden->Search(data.row(q), 5, &b).ok());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }

  const std::string tmp = "/tmp/vaq_golden_opq_retired_slot_resave.bin";
  ASSERT_TRUE(opq->Save(tmp).ok());
  EXPECT_TRUE(SameBytes(ReadWhole(tmp), ReadWhole(GoldenPath("opq_v1.bin"))))
      << "re-save did not write the retired slot's fixed value";
  std::remove(tmp.c_str());
}

/// Saves `index` to a scratch file and returns the bytes written.
template <typename T>
std::string SavedBytes(const T& index, const std::string& tmp) {
  EXPECT_TRUE(index.Save(tmp).ok());
  std::string bytes = ReadWhole(tmp);
  std::remove(tmp.c_str());
  return bytes;
}

TEST(GoldenFormatTest, TrainingReproducesCommittedV1Bytes) {
  // Retraining with the settings in golden/README.md must write the
  // committed v1 files byte for byte, so a change to any training step
  // (PCA, allocation, k-means, OPQ refinement) shows here, not only a
  // change to the file layout.
  const FloatMatrix data = GoldenData();
  VaqOptions vopts;
  vopts.num_subspaces = 4;
  vopts.total_bits = 16;
  vopts.ti_clusters = 8;
  vopts.kmeans_iters = 5;
  auto vaq = VaqIndex::Train(data, vopts);
  ASSERT_TRUE(vaq.ok()) << vaq.status().message();
  EXPECT_EQ(SavedBytes(*vaq, "/tmp/vaq_golden_train_vaq.bin"),
            ReadWhole(GoldenPath("vaq_index_v1.bin")));

  VaqIvfOptions iopts;
  iopts.vaq = vopts;
  iopts.coarse_k = 8;
  iopts.default_nprobe = 4;
  auto ivf = VaqIvfIndex::Train(data, iopts);
  ASSERT_TRUE(ivf.ok()) << ivf.status().message();
  EXPECT_EQ(SavedBytes(*ivf, "/tmp/vaq_golden_train_ivf.bin"),
            ReadWhole(GoldenPath("vaq_ivf_v1.bin")));

  PqOptions popts;
  popts.num_subspaces = 4;
  popts.bits_per_subspace = 4;
  popts.kmeans_iters = 5;
  ProductQuantizer pq(popts);
  ASSERT_TRUE(pq.Train(data).ok());
  EXPECT_EQ(SavedBytes(pq, "/tmp/vaq_golden_train_pq.bin"),
            ReadWhole(GoldenPath("pq_v1.bin")));

  OpqOptions oopts;
  oopts.num_subspaces = 4;
  oopts.bits_per_subspace = 4;
  oopts.kmeans_iters = 5;
  oopts.refine_iters = 2;
  OptimizedProductQuantizer opq(oopts);
  ASSERT_TRUE(opq.Train(data).ok());
  EXPECT_EQ(SavedBytes(opq, "/tmp/vaq_golden_train_opq.bin"),
            ReadWhole(GoldenPath("opq_v1.bin")));
}

TEST(GoldenFormatTest, TrainingOnFourThreadsReproducesCommittedV1Bytes) {
  // The same retraining with train_threads = 4: codebooks train several
  // subspaces at a time and IVF's coarse k-means splits its assignment
  // steps over rows, and the files must still match byte for byte.
  const FloatMatrix data = GoldenData();
  VaqOptions vopts;
  vopts.num_subspaces = 4;
  vopts.total_bits = 16;
  vopts.ti_clusters = 8;
  vopts.kmeans_iters = 5;
  vopts.train_threads = 4;
  auto vaq = VaqIndex::Train(data, vopts);
  ASSERT_TRUE(vaq.ok()) << vaq.status().message();
  EXPECT_TRUE(SameBytes(SavedBytes(*vaq, "/tmp/vaq_golden_train4_vaq.bin"),
                        ReadWhole(GoldenPath("vaq_index_v1.bin"))));

  VaqIvfOptions iopts;
  iopts.vaq = vopts;
  iopts.coarse_k = 8;
  iopts.default_nprobe = 4;
  auto ivf = VaqIvfIndex::Train(data, iopts);
  ASSERT_TRUE(ivf.ok()) << ivf.status().message();
  EXPECT_TRUE(SameBytes(SavedBytes(*ivf, "/tmp/vaq_golden_train4_ivf.bin"),
                        ReadWhole(GoldenPath("vaq_ivf_v1.bin"))));
}

TEST(GoldenFormatTest, LegacyAndV1GoldenAgreeOnSearchResults) {
  // The two generations encode the same trained index; loading either
  // must answer queries identically.
  auto v0 = VaqIndex::Load(GoldenPath("vaq_index_v0.bin"));
  auto v1 = VaqIndex::Load(GoldenPath("vaq_index_v1.bin"));
  ASSERT_TRUE(v0.ok());
  ASSERT_TRUE(v1.ok());
  const FloatMatrix data = GoldenData();
  SearchParams params;
  params.k = 10;
  for (size_t q = 0; q < 5; ++q) {
    std::vector<Neighbor> a, b;
    ASSERT_TRUE(v0->Search(data.row(q), params, &a).ok());
    ASSERT_TRUE(v1->Search(data.row(q), params, &b).ok());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "query " << q << " rank " << i;
      EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
    }
  }
}

}  // namespace
}  // namespace vaq
