// Failure injection: corrupted, truncated, and mismatched persisted
// indexes must produce clean Status errors, never crashes or silently
// wrong results.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "index/vaq_ivf.h"
#include "quant/opq.h"
#include "quant/pq.h"

namespace vaq {
namespace {

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Reads a saved version-1 container back, verified, section by section.
Result<ContainerReader> ReadContainer(const std::string& path,
                                      const char magic[8]) {
  std::string bytes;
  VAQ_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  return ContainerReader::Parse(std::move(bytes), magic, 1);
}

/// Loader signature for the corruption sweeps: attempts a load and
/// reports whether it succeeded. Any outcome but a clean Status error on
/// a corrupted file (a crash, an abort, a sanitizer report) fails the
/// test run itself.
using LoadProbe = std::function<bool(const std::string&)>;

/// Flips one byte every `stride` bytes across the whole file. Every
/// variant must be rejected: the container's footer CRC covers all
/// preceding bytes and the footer itself cannot change without breaking
/// the match.
void ByteFlipSweep(const std::string& path, const std::vector<char>& good,
                   const LoadProbe& load, size_t stride = 64) {
  for (size_t i = 0; i < good.size(); i += stride) {
    std::vector<char> bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    WriteFile(path, bad);
    EXPECT_FALSE(load(path)) << "byte flip at offset " << i
                             << " loaded successfully";
  }
  WriteFile(path, good);
}

/// Truncates the file at every `stride` boundary (and just before the
/// end). No truncation may parse: a container's envelope is structurally
/// bounded and CRC-sealed, and a legacy file's sections are read with
/// bounds-checked lengths.
void TruncationSweep(const std::string& path, const std::vector<char>& good,
                     const LoadProbe& load, size_t stride = 64) {
  for (size_t cut = 0; cut < good.size(); cut += stride) {
    WriteFile(path, std::vector<char>(good.begin(), good.begin() + cut));
    EXPECT_FALSE(load(path)) << "truncation to " << cut
                             << " bytes loaded successfully";
  }
  WriteFile(path, std::vector<char>(good.begin(), good.end() - 1));
  EXPECT_FALSE(load(path)) << "truncation by one byte loaded successfully";
  WriteFile(path, good);
}

/// Simulates a crash / full disk at several points inside Save and
/// asserts the previously persisted file survives byte-identically with
/// no temp file left behind.
void SaveCrashSweep(const std::string& path, const std::vector<char>& good,
                    const std::function<Status(const std::string&)>& save,
                    const LoadProbe& load) {
  const std::string tmp = path + ".tmp." + std::to_string(getpid());
  for (const int64_t budget : {int64_t{0}, int64_t{16}, int64_t{512},
                               static_cast<int64_t>(good.size() / 2)}) {
    serialize_internal::SetWriteFailureAfterBytes(budget);
    const Status st = save(path);
    serialize_internal::SetWriteFailureAfterBytes(-1);
    EXPECT_FALSE(st.ok()) << "save with failure budget " << budget
                          << " reported success";
    EXPECT_EQ(ReadFile(path), good)
        << "failed save with budget " << budget << " damaged the target";
    EXPECT_FALSE(std::ifstream(tmp).good())
        << "failed save with budget " << budget << " leaked " << tmp;
    EXPECT_TRUE(load(path)) << "target unreadable after failed save";
  }
}

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = GenerateSpectrumMixture(500, 16, PowerLawSpectrum(16, 1.0), 4,
                                    1.0, 61);
    VaqOptions opts;
    opts.num_subspaces = 4;
    opts.total_bits = 24;
    opts.ti_clusters = 8;
    opts.kmeans_iters = 5;
    auto index = VaqIndex::Train(base_, opts);
    ASSERT_TRUE(index.ok());
    index_ = std::move(*index);
    // One file per test process: ctest runs the tests of this fixture in
    // parallel, and a shared path lets one test's TearDown or rewrite race
    // another test's read.
    path_ = "/tmp/vaq_failure_injection." + std::to_string(getpid()) + ".bin";
    ASSERT_TRUE(index_.Save(path_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<char> ReadAll() {
    std::ifstream is(path_, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
  }

  void WriteAll(const std::vector<char>& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  FloatMatrix base_;
  VaqIndex index_;
  std::string path_;
};

TEST_F(FailureInjectionTest, MissingFile) {
  auto loaded = VaqIndex::Load("/tmp/definitely_not_there_vaq.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(FailureInjectionTest, WrongMagic) {
  auto bytes = ReadAll();
  ASSERT_GE(bytes.size(), 8u);
  bytes[0] = 'X';
  WriteAll(bytes);
  auto loaded = VaqIndex::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(FailureInjectionTest, TruncationAtManyOffsets) {
  const auto bytes = ReadAll();
  ASSERT_GT(bytes.size(), 64u);
  // Truncate at a spread of offsets across the whole file; every variant
  // must fail cleanly (no aborts, no successes with partial state).
  for (size_t fraction = 1; fraction <= 9; ++fraction) {
    const size_t cut = bytes.size() * fraction / 10;
    WriteAll(std::vector<char>(bytes.begin(), bytes.begin() + cut));
    auto loaded = VaqIndex::Load(path_);
    EXPECT_FALSE(loaded.ok()) << "truncation at " << cut << " bytes";
  }
}

TEST_F(FailureInjectionTest, GarbageBody) {
  auto bytes = ReadAll();
  // Keep the magic, scramble everything after it deterministically.
  for (size_t i = 8; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131 + 17) & 0xFF);
  }
  WriteAll(bytes);
  auto loaded = VaqIndex::Load(path_);
  // Either a clean error, or (if sizes happen to parse) a loadable object;
  // it must never crash. A parse "success" over garbage would have
  // nonsense dimensions, so also sanity-check the failure.
  if (loaded.ok()) {
    SUCCEED() << "garbage parsed into an object without crashing";
  } else {
    EXPECT_FALSE(loaded.status().message().empty());
  }
}

TEST_F(FailureInjectionTest, PqTruncation) {
  PqOptions opts;
  opts.num_subspaces = 4;
  opts.bits_per_subspace = 4;
  opts.kmeans_iters = 5;
  ProductQuantizer pq(opts);
  ASSERT_TRUE(pq.Train(base_).ok());
  const std::string pq_path = "/tmp/vaq_failure_pq.bin";
  ASSERT_TRUE(pq.Save(pq_path).ok());
  std::vector<char> bytes;
  {
    std::ifstream is(pq_path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)),
                 std::istreambuf_iterator<char>());
  }
  for (size_t fraction = 1; fraction <= 4; ++fraction) {
    const size_t cut = bytes.size() * fraction / 5;
    {
      std::ofstream os(pq_path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    EXPECT_FALSE(ProductQuantizer::Load(pq_path).ok())
        << "truncation at " << cut;
  }
  std::remove(pq_path.c_str());
}

/// Deterministic corruption sweep over every persisted index family.
/// Training happens once per suite; each test saves, corrupts the file at
/// a fixed stride, and proves every variant is rejected cleanly (the
/// suite also runs under ASan/UBSan in CI, so "cleanly" means no UB
/// either, not just no crash).
class CorruptionSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new FloatMatrix(GenerateSpectrumMixture(
        400, 16, PowerLawSpectrum(16, 1.0), 4, 1.0, 61));

    VaqOptions vopts;
    vopts.num_subspaces = 4;
    vopts.total_bits = 20;
    vopts.ti_clusters = 8;
    vopts.kmeans_iters = 5;
    auto vaq = VaqIndex::Train(*data_, vopts);
    ASSERT_TRUE(vaq.ok());
    vaq_ = new VaqIndex(std::move(*vaq));

    VaqIvfOptions iopts;
    iopts.vaq = vopts;
    iopts.coarse_k = 8;
    iopts.default_nprobe = 4;
    auto ivf = VaqIvfIndex::Train(*data_, iopts);
    ASSERT_TRUE(ivf.ok());
    ivf_ = new VaqIvfIndex(std::move(*ivf));

    PqOptions popts;
    popts.num_subspaces = 4;
    popts.bits_per_subspace = 4;
    popts.kmeans_iters = 5;
    pq_ = new ProductQuantizer(popts);
    ASSERT_TRUE(pq_->Train(*data_).ok());

    OpqOptions oopts;
    oopts.num_subspaces = 4;
    oopts.bits_per_subspace = 4;
    oopts.refine_iters = 1;
    oopts.kmeans_iters = 5;
    opq_ = new OptimizedProductQuantizer(oopts);
    ASSERT_TRUE(opq_->Train(*data_).ok());
  }

  static void TearDownTestSuite() {
    delete data_;
    delete vaq_;
    delete ivf_;
    delete pq_;
    delete opq_;
    data_ = nullptr;
    vaq_ = nullptr;
    ivf_ = nullptr;
    pq_ = nullptr;
    opq_ = nullptr;
  }

  void RunSweeps(const std::string& path,
                 const std::function<Status(const std::string&)>& save,
                 const LoadProbe& load) {
    ASSERT_TRUE(save(path).ok());
    const std::vector<char> good = ReadFile(path);
    ASSERT_GT(good.size(), 64u);
    ASSERT_TRUE(load(path)) << "pristine file failed to load";
    ByteFlipSweep(path, good, load);
    TruncationSweep(path, good, load);
    SaveCrashSweep(path, good, save, load);
    std::remove(path.c_str());
  }

  static FloatMatrix* data_;
  static VaqIndex* vaq_;
  static VaqIvfIndex* ivf_;
  static ProductQuantizer* pq_;
  static OptimizedProductQuantizer* opq_;
};

FloatMatrix* CorruptionSweepTest::data_ = nullptr;
VaqIndex* CorruptionSweepTest::vaq_ = nullptr;
VaqIvfIndex* CorruptionSweepTest::ivf_ = nullptr;
ProductQuantizer* CorruptionSweepTest::pq_ = nullptr;
OptimizedProductQuantizer* CorruptionSweepTest::opq_ = nullptr;

TEST_F(CorruptionSweepTest, VaqIndexSurvivesFullSweep) {
  RunSweeps(
      "/tmp/vaq_sweep_vaq.bin",
      [](const std::string& p) { return vaq_->Save(p); },
      [](const std::string& p) { return VaqIndex::Load(p).ok(); });
}

TEST_F(CorruptionSweepTest, VaqIvfIndexSurvivesFullSweep) {
  RunSweeps(
      "/tmp/vaq_sweep_ivf.bin",
      [](const std::string& p) { return ivf_->Save(p); },
      [](const std::string& p) { return VaqIvfIndex::Load(p).ok(); });
}

TEST_F(CorruptionSweepTest, ProductQuantizerSurvivesFullSweep) {
  RunSweeps(
      "/tmp/vaq_sweep_pq.bin",
      [](const std::string& p) { return pq_->Save(p); },
      [](const std::string& p) { return ProductQuantizer::Load(p).ok(); });
}

TEST_F(CorruptionSweepTest, OpqSurvivesFullSweep) {
  RunSweeps(
      "/tmp/vaq_sweep_opq.bin",
      [](const std::string& p) { return opq_->Save(p); },
      [](const std::string& p) {
        return OptimizedProductQuantizer::Load(p).ok();
      });
}

TEST_F(CorruptionSweepTest, TrainedIndexesPassTheirOwnValidators) {
  ASSERT_TRUE(vaq_->ValidateInvariants().ok());
  ASSERT_TRUE(ivf_->ValidateInvariants().ok());
  ASSERT_TRUE(pq_->ValidateInvariants().ok());
  ASSERT_TRUE(opq_->ValidateInvariants().ok());
}

TEST_F(CorruptionSweepTest, ValidationRejectsChecksumCleanOutOfRangeCodes) {
  // Checksums catch bit rot but not a hand-edited (or maliciously
  // crafted) file whose CRCs were recomputed. Rebuild a saved PQ
  // container with valid checksums over a CODE section holding a code
  // value no 4-bit dictionary can contain; only ValidateInvariants can
  // catch this, and it must, before the code indexes a LUT.
  const std::string path = "/tmp/vaq_sweep_pq_semantic.bin";
  ASSERT_TRUE(pq_->Save(path).ok());

  const char magic[8] = {'V', 'A', 'Q', 'P', 'Q', '0', '0', '1'};
  auto reader = ReadContainer(path, magic);
  ASSERT_TRUE(reader.ok());
  ContainerWriter writer(magic, 1);
  for (const uint32_t tag :
       {SectionTag('O', 'P', 'T', 'S'), SectionTag('B', 'O', 'O', 'K'),
        SectionTag('C', 'O', 'D', 'E'), SectionTag('S', 'T', 'A', 'T')}) {
    auto sec = reader->Section(tag);
    ASSERT_TRUE(sec.ok());
    std::string body(sec->data, sec->size);
    if (tag == SectionTag('C', 'O', 'D', 'E')) {
      // WriteMatrix layout: u64 rows, u64 cols, then uint16 codes.
      ASSERT_GE(body.size(), 18u);
      body[16] = static_cast<char>(0xFF);
      body[17] = static_cast<char>(0xFF);
    }
    writer.AddSection(tag).write(body.data(),
                                 static_cast<std::streamsize>(body.size()));
  }
  ASSERT_TRUE(writer.Commit(path).ok());

  auto loaded = ProductQuantizer::Load(path);
  ASSERT_FALSE(loaded.ok())
      << "out-of-range code survived a checksum-clean load";
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

TEST_F(CorruptionSweepTest, ValidationRejectsChecksumCleanBrokenLists) {
  // Same idea for the IVF lists: duplicate the first id inside the LIST
  // section so the lists are no longer a partition of the rows, reseal
  // the checksums, and require the validator to refuse it.
  const std::string path = "/tmp/vaq_sweep_ivf_semantic.bin";
  ASSERT_TRUE(ivf_->Save(path).ok());

  const char magic[8] = {'V', 'A', 'Q', 'I', 'V', 'F', '0', '1'};
  auto reader = ReadContainer(path, magic);
  ASSERT_TRUE(reader.ok());
  ContainerWriter writer(magic, 1);
  for (const uint32_t tag :
       {SectionTag('O', 'P', 'T', 'S'), SectionTag('P', 'C', 'A', '0'),
        SectionTag('B', 'O', 'O', 'K'), SectionTag('C', 'O', 'D', 'E'),
        SectionTag('C', 'R', 'S', 'E'), SectionTag('L', 'I', 'S', 'T')}) {
    auto sec = reader->Section(tag);
    ASSERT_TRUE(sec.ok());
    std::string body(sec->data, sec->size);
    if (tag == SectionTag('L', 'I', 'S', 'T')) {
      // Layout: u64 list count, then per list u64 length + u32 ids.
      // Overwrite the second id of the first non-trivial list with the
      // first, creating a duplicate.
      size_t off = 8;
      ASSERT_GE(body.size(), off + 8);
      uint64_t len = 0;
      std::memcpy(&len, body.data() + off, 8);
      while (len < 2 && off + 8 + len * 4 + 8 <= body.size()) {
        off += 8 + len * 4;
        std::memcpy(&len, body.data() + off, 8);
      }
      ASSERT_GE(len, 2u) << "fixture produced no list with two ids";
      std::memcpy(body.data() + off + 8 + 4, body.data() + off + 8, 4);
    }
    writer.AddSection(tag).write(body.data(),
                                 static_cast<std::streamsize>(body.size()));
  }
  ASSERT_TRUE(writer.Commit(path).ok());

  auto loaded = VaqIvfIndex::Load(path);
  ASSERT_FALSE(loaded.ok())
      << "non-partition inverted lists survived a checksum-clean load";
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

TEST_F(CorruptionSweepTest, ValidationRejectsChecksumCleanZeroNprobe) {
  // A default nprobe of 0 would make every default-probe query return
  // nothing. Train refuses it; a checksum-clean file that holds it must be
  // refused on load too.
  const std::string path =
      "/tmp/vaq_sweep_ivf_nprobe." + std::to_string(getpid()) + ".bin";
  ASSERT_TRUE(ivf_->Save(path).ok());

  const char magic[8] = {'V', 'A', 'Q', 'I', 'V', 'F', '0', '1'};
  auto reader = ReadContainer(path, magic);
  ASSERT_TRUE(reader.ok());
  ContainerWriter writer(magic, 1);
  for (const uint32_t tag :
       {SectionTag('O', 'P', 'T', 'S'), SectionTag('P', 'C', 'A', '0'),
        SectionTag('B', 'O', 'O', 'K'), SectionTag('C', 'O', 'D', 'E'),
        SectionTag('C', 'R', 'S', 'E'), SectionTag('L', 'I', 'S', 'T')}) {
    auto sec = reader->Section(tag);
    ASSERT_TRUE(sec.ok());
    std::string body(sec->data, sec->size);
    if (tag == SectionTag('O', 'P', 'T', 'S')) {
      // Layout: u64 coarse_k, then u64 default_nprobe.
      ASSERT_EQ(body.size(), 16u);
      const uint64_t zero = 0;
      std::memcpy(body.data() + 8, &zero, sizeof(zero));
    }
    writer.AddSection(tag).write(body.data(),
                                 static_cast<std::streamsize>(body.size()));
  }
  ASSERT_TRUE(writer.Commit(path).ok());

  auto loaded = VaqIvfIndex::Load(path);
  ASSERT_FALSE(loaded.ok()) << "default nprobe 0 survived a load";
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

TEST(UntrainedSaveTest, BothFamiliesFailPrecondition) {
  // Nothing to persist yet: Save must say so before it reads any layout.
  const std::string path =
      "/tmp/vaq_untrained_save." + std::to_string(getpid()) + ".bin";
  EXPECT_EQ(VaqIndex().Save(path).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(VaqIvfIndex().Save(path).code(),
            StatusCode::kFailedPrecondition);
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good()) << "a failed Save left a file behind";
}

/// Legacy v0 files carry no envelope and no checksum, so only the section
/// parsers' bounds checks reject a cut file. Copies the committed golden
/// to a per-process path and truncates it at every byte.
void LegacyTruncationSweep(const std::string& golden, const LoadProbe& load) {
  const std::vector<char> good =
      ReadFile(std::string(VAQ_TEST_DATA_DIR) + "/golden/" + golden);
  ASSERT_GT(good.size(), 64u) << "missing golden file " << golden;
  const std::string path =
      "/tmp/vaq_legacy_sweep." + std::to_string(getpid()) + ".bin";
  WriteFile(path, good);
  ASSERT_TRUE(load(path)) << "pristine " << golden << " failed to load";
  TruncationSweep(path, good, load, /*stride=*/1);
  std::remove(path.c_str());
}

TEST(LegacyTruncationTest, VaqIndexV0RejectsEveryCut) {
  LegacyTruncationSweep("vaq_index_v0.bin", [](const std::string& p) {
    return VaqIndex::Load(p).ok();
  });
}

TEST(LegacyTruncationTest, VaqIvfV0RejectsEveryCut) {
  LegacyTruncationSweep("vaq_ivf_v0.bin", [](const std::string& p) {
    return VaqIvfIndex::Load(p).ok();
  });
}

TEST(LegacyTruncationTest, PqV0RejectsEveryCut) {
  LegacyTruncationSweep("pq_v0.bin", [](const std::string& p) {
    return ProductQuantizer::Load(p).ok();
  });
}

TEST(LegacyTruncationTest, OpqV0RejectsEveryCut) {
  LegacyTruncationSweep("opq_v0.bin", [](const std::string& p) {
    return OptimizedProductQuantizer::Load(p).ok();
  });
}

TEST_F(FailureInjectionTest, SearchAfterCleanReloadStillWorks) {
  // Control: an untouched file loads and searches identically.
  auto loaded = VaqIndex::Load(path_);
  ASSERT_TRUE(loaded.ok());
  SearchParams params;
  params.k = 5;
  std::vector<Neighbor> a, b;
  ASSERT_TRUE(index_.Search(base_.row(0), params, &a).ok());
  ASSERT_TRUE(loaded->Search(base_.row(0), params, &b).ok());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

}  // namespace
}  // namespace vaq
