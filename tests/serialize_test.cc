// Unit tests for the versioned, checksummed persistence container
// (common/serialize.h): CRC32 known-answer vectors, envelope round-trips,
// tamper detection, atomic writes, and the disk-full injection hook.

#include "common/serialize.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/io.h"

namespace vaq {
namespace {

constexpr char kTestMagic[8] = {'V', 'A', 'Q', 'T', 'S', 'T', '0', '1'};
constexpr uint32_t kTagAlpha = SectionTag('A', 'L', 'P', 'H');
constexpr uint32_t kTagBeta = SectionTag('B', 'E', 'T', 'A');

std::string ReadWhole(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

TEST(Crc32Test, KnownAnswerVectors) {
  // The IEEE 802.3 "check" value for the ASCII digits 1..9.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
}

TEST(Crc32Test, ChainedUpdatesMatchOneShot) {
  const std::string data = "The quick brown fox jumps over the lazy dog";
  const uint32_t one_shot = Crc32(data.data(), data.size());
  uint32_t chained = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    const size_t take = std::min<size_t>(7, data.size() - i);
    chained = Crc32(data.data() + i, take, chained);
  }
  EXPECT_EQ(chained, one_shot);
}

TEST(SectionTagTest, PacksLittleEndianFourcc) {
  EXPECT_EQ(SectionTag('O', 'P', 'T', 'S'),
            0x53u << 24 | 0x54u << 16 | 0x50u << 8 | 0x4Fu);
}

TEST(ByteViewStreamTest, ReadsSeeksAndReportsRemaining) {
  const std::string buf = "abcdefgh";
  ByteViewStream is(buf.data(), buf.size());
  EXPECT_EQ(RemainingBytes(is), 8);
  char c = 0;
  is.read(&c, 1);
  EXPECT_EQ(c, 'a');
  EXPECT_EQ(RemainingBytes(is), 7);
  is.seekg(6);
  EXPECT_EQ(RemainingBytes(is), 2);
  is.read(&c, 1);
  EXPECT_EQ(c, 'g');
}

TEST(IsPermutationTest, AcceptsPermutationsRejectsOthers) {
  EXPECT_TRUE(IsPermutation({}));
  EXPECT_TRUE(IsPermutation({0}));
  EXPECT_TRUE(IsPermutation({2, 0, 1}));
  EXPECT_FALSE(IsPermutation({0, 0, 1}));  // duplicate
  EXPECT_FALSE(IsPermutation({1, 2, 3}));  // out of range
}

class ContainerTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// Builds a two-section container and returns its serialized bytes.
  std::string BuildSample() {
    ContainerWriter writer(kTestMagic, /*format_version=*/3);
    WritePod<uint64_t>(writer.AddSection(kTagAlpha), 0x1122334455667788ULL);
    WriteVector(writer.AddSection(kTagBeta),
                std::vector<float>{1.f, 2.f, 3.f});
    auto bytes = writer.Serialize();
    EXPECT_TRUE(bytes.ok());
    return *bytes;
  }

  std::string path_ = "/tmp/vaq_serialize_test.bin";
};

TEST_F(ContainerTest, RoundTripPreservesSectionsAndVersion) {
  auto reader = ContainerReader::Parse(BuildSample(), kTestMagic, 3);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->format_version(), 3u);
  EXPECT_TRUE(reader->HasSection(kTagAlpha));
  EXPECT_TRUE(reader->HasSection(kTagBeta));
  EXPECT_FALSE(reader->HasSection(SectionTag('N', 'O', 'P', 'E')));

  auto alpha = reader->Section(kTagAlpha);
  ASSERT_TRUE(alpha.ok());
  ByteViewStream is(alpha->data, alpha->size);
  uint64_t u = 0;
  ASSERT_TRUE(ReadPod(is, &u).ok());
  EXPECT_EQ(u, 0x1122334455667788ULL);

  auto beta = reader->Section(kTagBeta);
  ASSERT_TRUE(beta.ok());
  ByteViewStream is2(beta->data, beta->size);
  std::vector<float> v;
  ASSERT_TRUE(ReadVector(is2, &v).ok());
  EXPECT_EQ(v, (std::vector<float>{1.f, 2.f, 3.f}));
}

TEST_F(ContainerTest, MissingSectionIsCleanError) {
  auto reader = ContainerReader::Parse(BuildSample(), kTestMagic, 3);
  ASSERT_TRUE(reader.ok());
  auto missing = reader->Section(SectionTag('N', 'O', 'P', 'E'));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST_F(ContainerTest, RejectsWrongFormatMagic) {
  const char other[8] = {'V', 'A', 'Q', 'X', 'X', 'X', '0', '1'};
  auto reader = ContainerReader::Parse(BuildSample(), other, 3);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST_F(ContainerTest, RejectsNewerFormatVersion) {
  // A reader that only understands version 2 must refuse version 3.
  auto reader = ContainerReader::Parse(BuildSample(), kTestMagic, 2);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("version"), std::string::npos);
}

TEST_F(ContainerTest, EveryByteFlipIsDetected) {
  const std::string good = BuildSample();
  // The footer CRC covers every preceding byte and the footer itself
  // cannot be flipped without breaking the match, so *any* single-bit
  // corruption anywhere in the file must be rejected.
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    auto reader = ContainerReader::Parse(std::move(bad), kTestMagic, 3);
    EXPECT_FALSE(reader.ok()) << "flip at byte " << i << " not detected";
  }
}

TEST_F(ContainerTest, EveryTruncationIsDetected) {
  const std::string good = BuildSample();
  for (size_t cut = 0; cut < good.size(); ++cut) {
    auto reader =
        ContainerReader::Parse(good.substr(0, cut), kTestMagic, 3);
    EXPECT_FALSE(reader.ok()) << "truncation to " << cut << " bytes";
  }
}

TEST_F(ContainerTest, CommitWritesLoadableFile) {
  ContainerWriter writer(kTestMagic, 1);
  WriteString(writer.AddSection(kTagAlpha), "payload");
  ASSERT_TRUE(writer.Commit(path_).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path_, &bytes).ok());
  auto reader = ContainerReader::Parse(std::move(bytes), kTestMagic, 1);
  ASSERT_TRUE(reader.ok());
  auto sec = reader->Section(kTagAlpha);
  ASSERT_TRUE(sec.ok());
  ByteViewStream is(sec->data, sec->size);
  std::string s;
  ASSERT_TRUE(ReadString(is, &s).ok());
  EXPECT_EQ(s, "payload");
}

TEST(AtomicWriteFileTest, ReplacesTargetAndLeavesNoTemp) {
  const std::string path = "/tmp/vaq_atomic_write_test.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  EXPECT_EQ(ReadWhole(path), "first");
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  EXPECT_EQ(ReadWhole(path), "second");
  EXPECT_FALSE(
      std::ifstream(path + ".tmp." + std::to_string(getpid())).good());
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, FailedWriteLeavesOriginalIntact) {
  // Regression for the pre-container Save paths, which streamed directly
  // into the destination and ignored mid-stream write failures: a full
  // disk or crash mid-save destroyed the existing index. The injection
  // hook simulates ENOSPC after a byte budget.
  const std::string path = "/tmp/vaq_atomic_fail_test.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "precious original").ok());

  serialize_internal::SetWriteFailureAfterBytes(4);
  const Status st = AtomicWriteFile(path, "replacement that will not land");
  serialize_internal::SetWriteFailureAfterBytes(-1);

  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(ReadWhole(path), "precious original");
  EXPECT_FALSE(
      std::ifstream(path + ".tmp." + std::to_string(getpid())).good());
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, FailureWithNoPriorFileLeavesNothing) {
  const std::string path = "/tmp/vaq_atomic_fail_fresh.bin";
  std::remove(path.c_str());
  serialize_internal::SetWriteFailureAfterBytes(0);
  EXPECT_FALSE(AtomicWriteFile(path, "doomed").ok());
  serialize_internal::SetWriteFailureAfterBytes(-1);
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(
      std::ifstream(path + ".tmp." + std::to_string(getpid())).good());
}

}  // namespace
}  // namespace vaq
