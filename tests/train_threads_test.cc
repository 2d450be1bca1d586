// Training must not depend on VaqOptions::train_threads: codebooks train
// one subspace per thread, IVF's coarse k-means splits its seeding and
// assignment steps over rows and the TI build its code blocks, and either
// way the saved file is the same, byte for byte, at 1, 4 and "hardware
// concurrency" (0) threads.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>

#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "index/vaq_ivf.h"

namespace vaq {
namespace {

template <typename T>
std::string SavedBytes(const T& index) {
  const std::string path =
      "/tmp/vaq_train_threads_" + std::to_string(getpid()) + ".bin";
  EXPECT_TRUE(index.Save(path).ok());
  std::ifstream is(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

constexpr size_t kThreadCounts[] = {4, 0};

TEST(TrainThreadsTest, VaqIndexBytesDoNotDependOnThreads) {
  // SALD-like series put most of the variance in the leading subspaces,
  // so with 3000 rows (a log2(n) cap of 11 bits) they get dictionaries
  // above 2^10 and train hierarchically.
  const FloatMatrix data = GenerateSynthetic(SyntheticKind::kSaldLike, 3000, 5);
  VaqOptions opts;
  opts.num_subspaces = 16;
  opts.total_bits = 128;
  opts.kmeans_iters = 4;
  opts.ti_clusters = 40;
  opts.train_threads = 1;
  auto serial = VaqIndex::Train(data, opts);
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  ASSERT_GT(serial->codebooks().bits().front(), 10)
      << "no subspace took the hierarchical k-means path";
  const std::string expect = SavedBytes(*serial);
  for (size_t threads : kThreadCounts) {
    opts.train_threads = threads;
    auto threaded = VaqIndex::Train(data, opts);
    ASSERT_TRUE(threaded.ok()) << threaded.status().message();
    EXPECT_TRUE(SavedBytes(*threaded) == expect)
        << "train_threads=" << threads << " changed the saved bytes";
  }
}

TEST(TrainThreadsTest, VaqIvfIndexBytesDoNotDependOnThreads) {
  const FloatMatrix data = GenerateSynthetic(SyntheticKind::kDeepLike, 2000, 6);
  VaqIvfOptions opts;
  opts.vaq.num_subspaces = 16;
  opts.vaq.total_bits = 96;
  opts.vaq.kmeans_iters = 4;
  opts.vaq.train_threads = 1;
  opts.coarse_k = 64;
  opts.default_nprobe = 8;
  auto serial = VaqIvfIndex::Train(data, opts);
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  const std::string expect = SavedBytes(*serial);
  for (size_t threads : kThreadCounts) {
    opts.vaq.train_threads = threads;
    auto threaded = VaqIvfIndex::Train(data, opts);
    ASSERT_TRUE(threaded.ok()) << threaded.status().message();
    EXPECT_TRUE(SavedBytes(*threaded) == expect)
        << "train_threads=" << threads << " changed the saved bytes";
  }
}

}  // namespace
}  // namespace vaq
