// Tests for the blocked, SIMD-dispatched ADC scan layer: kernel-level
// equivalence against a hand-rolled row-wise oracle, end-to-end agreement
// of every kernel with the exact ADC oracle (adc_oracle.h) across all
// three SearchModes (neighbors, distances, and SearchStats), odd bit
// allocations, block-remainder sizes, subspace prefixes, the rejection of
// kernel values outside the enum, and the allocation-free scratch reuse
// contract of the steady-state query path.

#include "core/scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "adc_oracle.h"
#include "clustering/centroid_kernel.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "index/vaq_ivf.h"

// Global allocation counter used by the scratch-reuse test. Counting in
// operator new (instead of hooking malloc) keeps the test portable; the
// passthrough is cheap enough to leave enabled for the whole binary.
namespace {
std::atomic<size_t> g_live_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vaq {
namespace {

size_t AllocCount() { return g_live_allocs.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Kernel-level tests against a synthetic codebook-free setup: odd bit
// widths, prefixes, and block remainders without k-means training cost.
// ---------------------------------------------------------------------------

struct RawAdcProblem {
  std::vector<int> bits;
  std::vector<uint32_t> lut_offsets;
  std::vector<float> lut;
  CodeMatrix codes;

  static RawAdcProblem Make(size_t n, std::vector<int> bits, uint64_t seed) {
    RawAdcProblem p;
    p.bits = std::move(bits);
    const size_t m = p.bits.size();
    p.lut_offsets.resize(m);
    size_t entries = 0;
    for (size_t s = 0; s < m; ++s) {
      p.lut_offsets[s] = static_cast<uint32_t>(entries);
      entries += size_t{1} << p.bits[s];
    }
    Rng rng(seed);
    p.lut.resize(entries);
    for (float& v : p.lut) v = rng.NextFloat();
    p.codes.Resize(n, m);
    for (size_t r = 0; r < n; ++r) {
      for (size_t s = 0; s < m; ++s) {
        const size_t k = size_t{1} << p.bits[s];
        p.codes(r, s) = static_cast<uint16_t>(rng.NextIndex(k));
      }
    }
    return p;
  }

  // Row-wise oracle with the canonical ascending-subspace accumulation.
  float RowDistance(size_t r, size_t s_limit) const {
    float acc = 0.f;
    for (size_t s = 0; s < s_limit; ++s) {
      acc += lut[lut_offsets[s] + codes(r, s)];
    }
    return acc;
  }
};

std::vector<ScanKernelType> BlockedKernels() {
  std::vector<ScanKernelType> kernels{ScanKernelType::kScalar};
  if (Avx2KernelsAvailable()) kernels.push_back(ScanKernelType::kAvx2);
  return kernels;
}

/// Stored code of lane `lane`, subspace `s` of block `b`, read from the
/// bytes where the documented layout puts it (BlockedCodes): a uint16 at
/// 2 * (s * 64 + lane) for s < w, one byte at (s + w) * 64 + lane after.
/// Unlike ReadRow it also reaches the padded lanes of the last block.
uint16_t StoredCode(const BlockedCodes& bc, size_t b, size_t lane, size_t s) {
  const uint8_t* block = bc.block(b);
  const size_t w = bc.wide_subspaces();
  if (s >= w) return block[(s + w) * kScanBlockSize + lane];
  uint16_t code = 0;
  std::memcpy(&code, block + 2 * (s * kScanBlockSize + lane), sizeof(code));
  return code;
}

TEST(BlockedCodesTest, TransposesRowsIntoSubspaceStripes) {
  RawAdcProblem p = RawAdcProblem::Make(/*n=*/130, {3, 1, 5, 2}, 11);
  const BlockedCodes bc = BlockedCodes::Build(p.codes);
  ASSERT_EQ(bc.rows(), 130u);
  ASSERT_EQ(bc.num_subspaces(), 4u);
  ASSERT_EQ(bc.wide_subspaces(), 0u);  // every code fits a byte
  ASSERT_EQ(bc.row_bytes(), 4u);
  ASSERT_EQ(bc.num_blocks(), 3u);  // 130 = 2*64 + 2
  std::vector<uint16_t> row(4);
  for (size_t r = 0; r < bc.rows(); ++r) {
    bc.ReadRow(r, row.data());
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(row[s], p.codes(r, s)) << "r=" << r << " s=" << s;
      EXPECT_EQ(StoredCode(bc, r / kScanBlockSize, r % kScanBlockSize, s),
                p.codes(r, s))
          << "r=" << r << " s=" << s;
    }
  }
  // Padded lanes of the last block hold code 0 (a valid LUT index).
  for (size_t lane = 2; lane < kScanBlockSize; ++lane) {
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(StoredCode(bc, 2, lane, s), 0u);
    }
  }
}

TEST(BlockedCodesTest, SubsetBuildFollowsIdOrder) {
  RawAdcProblem p = RawAdcProblem::Make(/*n=*/100, {4, 2}, 13);
  const std::vector<uint32_t> ids = {99, 0, 42, 7, 7, 65};
  const BlockedCodes bc = BlockedCodes::Build(p.codes, ids.data(), ids.size());
  ASSERT_EQ(bc.rows(), ids.size());
  std::vector<uint16_t> row(2);
  for (size_t r = 0; r < ids.size(); ++r) {
    bc.ReadRow(r, row.data());
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(row[s], p.codes(ids[r], s));
    }
  }
}

TEST(BlockedCodesTest, ReadRowInvertsBuild) {
  // The one packed store is an index's only copy of its codes, so reading
  // a row back must reproduce the row-major codes exactly: for the whole
  // matrix and for partitions of 0, 1, 63, 64 and 65 members packed in one
  // store at offsets that are not block-aligned.
  RawAdcProblem p = RawAdcProblem::Make(/*n=*/300, {13, 1, 8, 5, 16, 3}, 29);
  const size_t m = p.bits.size();
  std::vector<uint16_t> row(m);
  const BlockedCodes whole = BlockedCodes::Build(p.codes);
  ASSERT_EQ(whole.rows(), p.codes.rows());
  for (size_t r = 0; r < whole.rows(); ++r) {
    whole.ReadRow(r, row.data());
    for (size_t s = 0; s < m; ++s) {
      ASSERT_EQ(row[s], p.codes(r, s)) << "r=" << r << " s=" << s;
    }
  }

  // Partitions draw their members out of row order, so a read-back that
  // ignored the storage -> row id map would fail. A leading partition of 7
  // rows (and the rows after the last) keeps every offset off the block
  // grid.
  Rng rng(31);
  std::vector<uint32_t> assignment(p.codes.rows());
  const std::vector<size_t> sizes = {7, 0, 1, 63, 64, 65};
  size_t next = 0;
  for (size_t part = 0; part < sizes.size(); ++part) {
    for (size_t i = 0; i < sizes[part]; ++i) {
      assignment[next++] = static_cast<uint32_t>(part);
    }
  }
  const size_t rest = sizes.size();
  for (; next < assignment.size(); ++next) {
    assignment[next] = static_cast<uint32_t>(rest);
  }
  for (size_t i = assignment.size(); i > 1; --i) {
    std::swap(assignment[i - 1], assignment[rng.NextIndex(i)]);
  }
  const Partitioning parts = Partitioning::FromAssignment(assignment, rest + 1);
  ASSERT_TRUE(parts.Validate(p.codes.rows(), "partitions").ok());
  const BlockedCodes store =
      BlockedCodes::Build(p.codes, parts.ids.data(), parts.ids.size());
  ASSERT_EQ(store.rows(), p.codes.rows());
  for (size_t c = 0; c < sizes.size(); ++c) {
    ASSERT_EQ(parts.end(c) - parts.begin(c), sizes[c]);
    if (c > 0) {
      EXPECT_NE(parts.begin(c) % kScanBlockSize, 0u) << "partition " << c;
    }
    for (size_t i = parts.begin(c); i < parts.end(c); ++i) {
      ASSERT_EQ(assignment[parts.ids[i]], c);
      store.ReadRow(i, row.data());
      for (size_t s = 0; s < m; ++s) {
        ASSERT_EQ(row[s], p.codes(parts.ids[i], s))
            << "partition of " << sizes[c] << " i=" << i << " s=" << s;
      }
    }
  }
  // Scatter through the ids is the inverse of the packed Build.
  EXPECT_TRUE(store.Scatter(parts.ids.data()) == p.codes);
}

/// Partitions of rows [0, n): a random permutation cut into pieces of
/// `sizes`, then one partition of the rest. Also fills one random
/// `dims`-wide centroid per partition and, per stored row, a distance
/// ascending within its partition.
Partitioning RandomPartitions(size_t n, const std::vector<size_t>& sizes,
                              size_t dims, uint64_t seed,
                              FloatMatrix* centroids,
                              std::vector<float>* distances) {
  Rng rng(seed);
  std::vector<uint32_t> rows(n);
  for (size_t r = 0; r < n; ++r) rows[r] = static_cast<uint32_t>(r);
  for (size_t i = n; i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.NextIndex(i)]);
  }
  std::vector<uint32_t> assignment(n);
  size_t next = 0;
  for (size_t part = 0; part <= sizes.size(); ++part) {
    const size_t end = part < sizes.size() ? next + sizes[part] : n;
    for (; next < end; ++next) {
      assignment[rows[next]] = static_cast<uint32_t>(part);
    }
  }
  const Partitioning parts =
      Partitioning::FromAssignment(assignment, sizes.size() + 1);
  centroids->Resize(parts.size(), dims);
  for (size_t i = 0; i < centroids->size(); ++i) {
    centroids->data()[i] = static_cast<float>(rng.Gaussian());
  }
  distances->resize(n);
  for (size_t p = 0; p < parts.size(); ++p) {
    float d = 0.f;
    for (size_t i = parts.begin(p); i < parts.end(p); ++i) {
      d += rng.NextFloat();
      (*distances)[i] = d;
    }
  }
  return parts;
}

TEST(PartitionedCodesTest, RowCodesReturnTheRowsBlockedInStorageOrder) {
  // n = 1037 is not a multiple of 64; partitions of 0 rows sit between
  // and after others, so no offset is block-aligned.
  const RawAdcProblem p = RawAdcProblem::Make(1037, {9, 1, 16, 4, 7}, 41);
  const size_t n = p.codes.rows();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FloatMatrix centroids;
    std::vector<float> distances;
    const Partitioning parts = RandomPartitions(
        n, {0, 5, 0, 64, 1, 500, 0}, 3, seed, &centroids, &distances);
    const PartitionedCodes store(p.codes, parts, centroids, distances);
    ASSERT_TRUE(store.Validate(n, 3, "partitions").ok());
    ASSERT_EQ(store.rows(), n);
    ASSERT_EQ(store.num_partitions(), 8u);
    EXPECT_TRUE(store.RowCodes() == p.codes) << "seed=" << seed;
    const CodeMatrix extended = store.RowCodes(3);
    ASSERT_EQ(extended.rows(), n + 3);
    EXPECT_TRUE(extended.GatherRows({0, 500, 1036}) ==
                p.codes.GatherRows({0, 500, 1036}));
    for (size_t r = n; r < n + 3; ++r) {
      for (size_t s = 0; s < extended.cols(); ++s) {
        EXPECT_EQ(extended(r, s), 0u);
      }
    }
    // Stored row i is row members().ids[i].
    std::vector<uint16_t> row(p.codes.cols());
    for (size_t i = 0; i < n; i += 97) {
      store.codes().ReadRow(i, row.data());
      EXPECT_EQ(row, std::vector<uint16_t>(
                         p.codes.row(parts.ids[i]),
                         p.codes.row(parts.ids[i]) + p.codes.cols()));
    }
  }
}

TEST(PartitionedCodesTest, ValidateRejectsBrokenPartitionsAndDistances) {
  // Validation runs before any code is blocked (Load's order), so each
  // store is built over no codes.
  const size_t n = 300;
  const size_t dims = 4;
  FloatMatrix centroids;
  std::vector<float> distances;
  const Partitioning parts = RandomPartitions(n, {0, 1, 40, 0, 100}, dims,
                                              7, &centroids, &distances);
  for (const bool with_distances : {false, true}) {
    const std::vector<float> sorted =
        with_distances ? distances : std::vector<float>{};
    auto validate = [&](const Partitioning& members, const FloatMatrix& cents,
                        const std::vector<float>& dists) {
      return PartitionedCodes(CodeMatrix(), members, cents, dists)
          .Validate(n, dims, "partitions");
    };
    SCOPED_TRACE(with_distances ? "with distances" : "without distances");
    ASSERT_TRUE(validate(parts, centroids, sorted).ok());

    Partitioning duplicate = parts;
    duplicate.ids[1] = duplicate.ids[0];
    EXPECT_EQ(validate(duplicate, centroids, sorted).code(),
              StatusCode::kInternal);

    // The last partition loses its last row, and its distance with it.
    Partitioning missing = parts;
    missing.ids.pop_back();
    --missing.offsets.back();
    std::vector<float> missing_dists = sorted;
    if (with_distances) missing_dists.pop_back();
    EXPECT_EQ(validate(missing, centroids, missing_dists).code(),
              StatusCode::kInternal);
    // Every row present, but one more expected.
    EXPECT_FALSE(PartitionedCodes(CodeMatrix(), parts, centroids, sorted)
                     .Validate(n + 1, dims, "partitions")
                     .ok());

    FloatMatrix fewer(centroids.rows() - 1, dims);
    EXPECT_EQ(validate(parts, fewer, sorted).code(), StatusCode::kInternal);
    FloatMatrix more(centroids.rows() + 1, dims);
    EXPECT_EQ(validate(parts, more, sorted).code(), StatusCode::kInternal);
    EXPECT_FALSE(PartitionedCodes(CodeMatrix(), parts, centroids, sorted)
                     .Validate(n, dims + 1, "partitions")
                     .ok());

    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
      FloatMatrix non_finite = centroids;
      non_finite(2, 3) = bad;
      EXPECT_EQ(validate(parts, non_finite, sorted).code(),
                StatusCode::kInternal);
    }
    if (!with_distances) continue;

    // Partition 2 holds 40 rows, ascending: swap two of them.
    std::vector<float> unsorted = distances;
    std::swap(unsorted[parts.begin(2)], unsorted[parts.begin(2) + 1]);
    EXPECT_EQ(validate(parts, centroids, unsorted).code(),
              StatusCode::kInternal);
    std::vector<float> negative = distances;
    negative[parts.begin(2)] = -1.f;
    EXPECT_EQ(validate(parts, centroids, negative).code(),
              StatusCode::kInternal);
    std::vector<float> nan = distances;
    nan[parts.begin(4) + 7] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(validate(parts, centroids, nan).code(), StatusCode::kInternal);
    for (const size_t length : {n - 1, n + 1}) {
      std::vector<float> wrong_length = distances;
      wrong_length.resize(length, wrong_length.back() + 1.f);
      EXPECT_EQ(validate(parts, centroids, wrong_length).code(),
                StatusCode::kInternal)
          << "length=" << length;
    }
  }
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(KernelEquivalenceTest, FullScanMatchesRowOracleBitExactly) {
  const auto [n, s_limit_param] = GetParam();
  // Odd, mixed 1..13-bit allocation exercising every LUT stride class.
  RawAdcProblem p =
      RawAdcProblem::Make(n, {13, 11, 7, 5, 3, 2, 1, 9, 1, 13}, 17 + n);
  const size_t s_limit = s_limit_param == 0 ? p.bits.size() : s_limit_param;
  const BlockedCodes bc = BlockedCodes::Build(p.codes);
  for (ScanKernelType type : BlockedKernels()) {
    const ScanKernel& kernel = GetScanKernel(type);
    TopKHeap heap(n);  // keep everything: exposes each row's distance
    SearchStats stats;
    float acc[kScanBlockSize];
    BlockedFullScan(bc, nullptr, p.lut.data(), p.lut_offsets.data(), s_limit,
                    kernel, acc, &heap, &stats);
    EXPECT_EQ(stats.codes_visited, n);
    EXPECT_EQ(stats.lut_adds, n * s_limit);
    const std::vector<Neighbor> got = heap.TakeSorted();
    ASSERT_EQ(got.size(), n);
    for (const Neighbor& nb : got) {
      // Bit-exact float equality, not approximate: same accumulation order.
      EXPECT_EQ(nb.distance, p.RowDistance(nb.id, s_limit))
          << "kernel=" << kernel.name << " id=" << nb.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPrefixes, KernelEquivalenceTest,
    ::testing::Combine(
        // Block remainders: exact multiple, off-by-one both ways, tiny.
        ::testing::Values<size_t>(1, 63, 64, 65, 128, 500),
        // Subspace prefixes (0 = all 10).
        ::testing::Values<size_t>(0, 1, 3, 10)),
    // `p`, not `info`: the INSTANTIATE_TEST_SUITE_P expansion wraps this
    // lambda in a function whose parameter is already named `info`.
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& p) {
      std::string name = "n";
      name += std::to_string(std::get<0>(p.param));
      name += "_s";
      name += std::to_string(std::get<1>(p.param));
      return name;
    });

TEST(KernelEquivalenceTest, ScalarAndSimdAgreeOnEaScanIncludingStats) {
  if (!Avx2KernelsAvailable()) GTEST_SKIP() << "no AVX2 kernel in this build";
  RawAdcProblem p = RawAdcProblem::Make(777, {8, 6, 5, 4, 3, 2, 1, 1}, 23);
  const BlockedCodes bc = BlockedCodes::Build(p.codes);
  for (size_t interval : {1, 4, 7}) {
    TopKHeap heap_scalar(10), heap_simd(10);
    SearchStats stats_scalar, stats_simd;
    float acc[kScanBlockSize];
    BlockedEaScan(bc, 0, bc.rows(), nullptr, p.lut.data(),
                  p.lut_offsets.data(), p.bits.size(), interval,
                  GetScanKernel(ScanKernelType::kScalar), acc, &heap_scalar,
                  &stats_scalar);
    BlockedEaScan(bc, 0, bc.rows(), nullptr, p.lut.data(),
                  p.lut_offsets.data(), p.bits.size(), interval,
                  GetScanKernel(ScanKernelType::kAvx2), acc, &heap_simd,
                  &stats_simd);
    // The abandoning decisions depend on the partial sums, so identical
    // counters are only possible if the kernels agree bit for bit.
    EXPECT_EQ(stats_scalar.codes_visited, stats_simd.codes_visited);
    EXPECT_EQ(stats_scalar.lut_adds, stats_simd.lut_adds);
    const std::vector<Neighbor> a = heap_scalar.TakeSorted();
    const std::vector<Neighbor> b = heap_simd.TakeSorted();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST(KernelEquivalenceTest, LaneGroupRangesMatchAcrossKernels) {
  // Every range [g0, g1) of 8-lane groups: the kernels write exactly those
  // lanes, bit-identically to each other and to the row oracle, and a
  // BlockedEaScan over the range's rows reports identical stats.
  RawAdcProblem p = RawAdcProblem::Make(200, {8, 6, 5, 4, 3, 2, 1, 1}, 41);
  const BlockedCodes bc = BlockedCodes::Build(p.codes);
  const size_t m = p.bits.size();
  const size_t groups = kScanBlockSize / kScanLaneGroup;
  const size_t b = 1;  // a full block in the middle of the store
  for (size_t g0 = 0; g0 < groups; ++g0) {
    for (size_t g1 = g0 + 1; g1 <= groups; ++g1) {
      std::vector<std::vector<float>> accs;
      std::vector<SearchStats> stats;
      std::vector<std::vector<Neighbor>> tops;
      for (ScanKernelType type : BlockedKernels()) {
        const ScanKernel& kernel = GetScanKernel(type);
        std::vector<float> acc(kScanBlockSize, -1.f);
        for (size_t i = g0 * kScanLaneGroup; i < g1 * kScanLaneGroup; ++i) {
          acc[i] = 0.f;
        }
        // Two calls, as the early-abandon loop makes them.
        kernel.accumulate(bc, b, p.lut.data(), p.lut_offsets.data(), 0, 3,
                          g0, g1, acc.data());
        kernel.accumulate(bc, b, p.lut.data(), p.lut_offsets.data(), 3, m,
                          g0, g1, acc.data());
        for (size_t i = 0; i < kScanBlockSize; ++i) {
          const bool inside =
              i >= g0 * kScanLaneGroup && i < g1 * kScanLaneGroup;
          EXPECT_EQ(acc[i], inside ? p.RowDistance(b * kScanBlockSize + i, m)
                                   : -1.f)
              << kernel.name << " g=[" << g0 << "," << g1 << ") i=" << i;
        }
        accs.push_back(acc);

        TopKHeap heap(3);
        SearchStats st;
        float scan_acc[kScanBlockSize];
        BlockedEaScan(bc, b * kScanBlockSize + g0 * kScanLaneGroup + 1,
                      b * kScanBlockSize + g1 * kScanLaneGroup, nullptr,
                      p.lut.data(), p.lut_offsets.data(), m, 2, kernel,
                      scan_acc, &heap, &st);
        stats.push_back(st);
        tops.push_back(heap.TakeSorted());
      }
      for (size_t k = 1; k < accs.size(); ++k) {
        EXPECT_EQ(accs[k], accs[0]);
        EXPECT_EQ(stats[k].codes_visited, stats[0].codes_visited);
        EXPECT_EQ(stats[k].lut_adds, stats[0].lut_adds);
        EXPECT_EQ(stats[k].rows_scanned, stats[0].rows_scanned);
        EXPECT_EQ(tops[k], tops[0]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The width split: subspaces [0, w) are uint16 stripes, the rest uint8.
// ---------------------------------------------------------------------------

/// m = 12 subspaces whose first `w` have 9..12 bits and the rest 1..8; row 0
/// holds the largest code of subspace w - 1, so Build must find exactly w.
RawAdcProblem SplitProblem(size_t n, size_t w, uint64_t seed) {
  std::vector<int> bits(12);
  for (size_t s = 0; s < bits.size(); ++s) {
    bits[s] = static_cast<int>(s < w ? 9 + s % 4 : 1 + (s * 5) % 8);
  }
  RawAdcProblem p = RawAdcProblem::Make(n, bits, seed);
  if (w > 0) {
    p.codes(0, w - 1) = static_cast<uint16_t>((1u << bits[w - 1]) - 1);
  }
  return p;
}

TEST(SplitLayoutTest, WidthIsOnePastTheLastColumnAbove255) {
  CodeMatrix codes(70, 5);
  for (size_t r = 0; r < codes.rows(); ++r) {
    for (size_t s = 0; s < codes.cols(); ++s) {
      codes(r, s) = static_cast<uint16_t>((r * 37 + s * 11) % 256);
    }
  }
  codes(69, 2) = 255;  // the largest code that stays a byte
  std::vector<uint32_t> identity(codes.rows());
  std::iota(identity.begin(), identity.end(), 0u);
  auto expect_round_trip = [&](const BlockedCodes& bc) {
    std::vector<uint16_t> row(codes.cols());
    for (size_t r = 0; r < codes.rows(); ++r) {
      bc.ReadRow(r, row.data());
      for (size_t s = 0; s < codes.cols(); ++s) {
        ASSERT_EQ(row[s], codes(r, s)) << "r=" << r << " s=" << s;
        ASSERT_EQ(StoredCode(bc, r / kScanBlockSize, r % kScanBlockSize, s),
                  codes(r, s));
      }
    }
    EXPECT_TRUE(bc.Scatter(identity.data()) == codes);
  };
  BlockedCodes bc = BlockedCodes::Build(codes);
  EXPECT_EQ(bc.wide_subspaces(), 0u);
  EXPECT_EQ(bc.row_bytes(), 5u);
  expect_round_trip(bc);

  // Code 256 in column 2 makes columns 0..2 wide, though 0 and 1 fit a byte.
  codes(69, 2) = 256;
  bc = BlockedCodes::Build(codes);
  EXPECT_EQ(bc.wide_subspaces(), 3u);
  EXPECT_EQ(bc.row_bytes(), 8u);
  EXPECT_EQ(bc.num_blocks(), 2u);
  expect_round_trip(bc);

  // A wide column after narrow ones makes every column up to it wide.
  codes(3, 4) = 65535;
  bc = BlockedCodes::Build(codes);
  EXPECT_EQ(bc.wide_subspaces(), 5u);
  EXPECT_EQ(bc.row_bytes(), 10u);
  expect_round_trip(bc);

  // w counts only the stored rows: without rows 3 and 69 every code fits.
  const std::vector<uint32_t> ids = {0, 1, 2, 68, 4};
  const BlockedCodes subset = BlockedCodes::Build(codes, ids.data(), 5);
  EXPECT_EQ(subset.wide_subspaces(), 0u);
  const std::vector<uint32_t> with_wide = {0, 69};
  EXPECT_EQ(BlockedCodes::Build(codes, with_wide.data(), 2).wide_subspaces(),
            3u);
  const BlockedCodes empty = BlockedCodes::Build(codes, nullptr, 0);
  EXPECT_EQ(empty.wide_subspaces(), 0u);
  EXPECT_EQ(empty.num_blocks(), 0u);
}

class SplitWidthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SplitWidthTest, AccumulateRangesStraddlingWidthMatchRowOracle) {
  // Every subspace range [s0, s1) of a block, on whole blocks and on
  // partial 8-lane groups, called as the early-abandon loop calls it:
  // [0, s0), [s0, s1), [s1, m). Ranges on both sides of w and across it
  // must leave each lane's sum bit-identical to the row oracle.
  const size_t w = GetParam();
  const RawAdcProblem p = SplitProblem(200, w, 61 + w);
  const BlockedCodes bc = BlockedCodes::Build(p.codes);
  const size_t m = p.bits.size();
  ASSERT_EQ(bc.wide_subspaces(), w);
  const float* lut = p.lut.data();
  const uint32_t* offsets = p.lut_offsets.data();
  const std::vector<std::pair<size_t, size_t>> group_ranges = {
      {0, 8}, {0, 1}, {3, 5}, {7, 8}};
  for (ScanKernelType type : BlockedKernels()) {
    const ScanKernel& kernel = GetScanKernel(type);
    for (const size_t b : {size_t{0}, size_t{3}}) {  // block 3: rows 192..199
      for (const auto& [g0, g1] : group_ranges) {
        for (size_t s0 = 0; s0 < m; ++s0) {
          for (size_t s1 = s0 + 1; s1 <= m; ++s1) {
            std::vector<float> acc(kScanBlockSize, -1.f);
            std::fill(acc.begin() + g0 * kScanLaneGroup,
                      acc.begin() + g1 * kScanLaneGroup, 0.f);
            kernel.accumulate(bc, b, lut, offsets, 0, s0, g0, g1, acc.data());
            kernel.accumulate(bc, b, lut, offsets, s0, s1, g0, g1,
                              acc.data());
            for (size_t i = 0; i < kScanBlockSize; ++i) {
              const size_t r = b * kScanBlockSize + i;
              const bool inside =
                  i >= g0 * kScanLaneGroup && i < g1 * kScanLaneGroup;
              const float want =
                  !inside ? -1.f
                  : r < bc.rows() ? p.RowDistance(r, s1)
                                  : acc[i];  // padded lane: any sum
              ASSERT_EQ(acc[i], want)
                  << kernel.name << " w=" << w << " b=" << b << " g=[" << g0
                  << "," << g1 << ") s=[" << s0 << "," << s1 << ") i=" << i;
            }
            kernel.accumulate(bc, b, lut, offsets, s1, m, g0, g1, acc.data());
            for (size_t i = g0 * kScanLaneGroup;
                 i < g1 * kScanLaneGroup && b * kScanBlockSize + i < bc.rows();
                 ++i) {
              ASSERT_EQ(acc[i], p.RowDistance(b * kScanBlockSize + i, m))
                  << kernel.name << " w=" << w << " s=[" << s0 << "," << s1
                  << ") i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST_P(SplitWidthTest, EarlyAbandonIntervalsAcrossWidthAgreeWithOracle) {
  // Intervals 1..5 put abandon checks on both sides of w and make some
  // intervals straddle it (e.g. [8, 12) at w = 10); row ranges that start
  // and end inside blocks run the partial-group path. Every kernel must
  // return the oracle's top-k and the same work counters.
  const size_t w = GetParam();
  RawAdcProblem p = SplitProblem(333, w, 83 + w);
  const BlockedCodes bc = BlockedCodes::Build(p.codes);
  const size_t m = p.bits.size();
  ASSERT_EQ(bc.wide_subspaces(), w);
  // Leading subspaces weigh most, as after VAQ's variance ordering, so
  // partial sums separate early and blocks do get abandoned.
  for (size_t s = 0; s < m; ++s) {
    const size_t end = s + 1 < m ? p.lut_offsets[s + 1] : p.lut.size();
    for (size_t e = p.lut_offsets[s]; e < end; ++e) {
      p.lut[e] *= static_cast<float>((m - s) * (m - s));
    }
  }
  size_t abandoned_rows = 0;
  for (const auto& [begin, end] : std::vector<std::pair<size_t, size_t>>{
           {0, 333}, {5, 130}, {70, 75}, {129, 333}}) {
    for (size_t interval = 1; interval <= 5; ++interval) {
      std::vector<Neighbor> want;
      for (size_t r = begin; r < end; ++r) {
        want.push_back({p.RowDistance(r, m), static_cast<int64_t>(r)});
      }
      std::sort(want.begin(), want.end());
      want.resize(std::min<size_t>(want.size(), 7));
      std::vector<SearchStats> stats;
      for (ScanKernelType type : BlockedKernels()) {
        TopKHeap heap(7);
        SearchStats st;
        float acc[kScanBlockSize];
        BlockedEaScan(bc, begin, end, nullptr, p.lut.data(),
                      p.lut_offsets.data(), m, interval, GetScanKernel(type),
                      acc, &heap, &st);
        EXPECT_EQ(heap.TakeSorted(), want)
            << GetScanKernel(type).name << " w=" << w << " rows=[" << begin
            << "," << end << ") interval=" << interval;
        stats.push_back(st);
      }
      for (const SearchStats& st : stats) {
        EXPECT_EQ(st.codes_visited, stats[0].codes_visited);
        EXPECT_EQ(st.lut_adds, stats[0].lut_adds);
        EXPECT_EQ(st.rows_scanned, stats[0].rows_scanned);
      }
      abandoned_rows += stats[0].codes_visited - stats[0].rows_scanned;
    }
  }
  EXPECT_GT(abandoned_rows, 0u) << "no block was abandoned";
}

TEST_P(SplitWidthTest, TrainedCodesMatchAdcOracle) {
  // Dictionaries trained with w subspaces of 9-10 bits: the encoder's own
  // codes select w, and every kernel's full and early-abandon scans return
  // adc_oracle.h's top-k bit for bit.
  const size_t w = GetParam();
  const size_t m = 12;
  const FloatMatrix data = GenerateSpectrumMixture(
      700, 2 * m, PowerLawSpectrum(2 * m, 1.1), 6, 1.0, 97);
  const FloatMatrix queries = GenerateSpectrumMixture(
      4, 2 * m, PowerLawSpectrum(2 * m, 1.1), 6, 1.0, 197);
  auto layout = SubspaceLayout::Uniform(2 * m, m);
  ASSERT_TRUE(layout.ok());
  std::vector<int> bits(m);
  for (size_t s = 0; s < m; ++s) {
    bits[s] = static_cast<int>(s < w ? 10 - s % 2 : 8 - s % 3);
  }
  VariableCodebooks books;
  CodebookOptions copts;
  copts.kmeans_iters = 2;
  ASSERT_TRUE(books.Train(data, *layout, bits, copts).ok());
  auto codes = books.Encode(data);
  ASSERT_TRUE(codes.ok());
  const size_t n = data.rows();
  const PartitionedCodes store(
      *codes, Partitioning::FromAssignment(std::vector<uint32_t>(n, 0), 1),
      FloatMatrix(1, 1));
  ASSERT_EQ(store.codes().wide_subspaces(), w);
  std::vector<float> lut;
  for (size_t q = 0; q < queries.rows(); ++q) {
    books.BuildLookupTable(queries.row(q), &lut);
    for (const size_t s_limit : {m, size_t{5}}) {
      SearchParams params;
      params.k = 10;
      params.num_subspaces_used = s_limit;
      const std::vector<Neighbor> want =
          OracleSearch(books, queries.row(q), store, 0, params);
      for (ScanKernelType type : BlockedKernels()) {
        for (const size_t interval : {s_limit, size_t{4}, size_t{3}}) {
          TopKHeap heap(params.k);
          float acc[kScanBlockSize];
          BlockedEaScan(store.codes(), 0, n, store.members().ids.data(),
                        lut.data(), books.lut_offsets(), s_limit, interval,
                        GetScanKernel(type), acc, &heap, nullptr);
          std::vector<Neighbor> got;
          ASSERT_TRUE(FinalizeSearchResult(nullptr, false, &heap, &got,
                                           nullptr, 0.0)
                          .ok());
          EXPECT_EQ(got, want) << GetScanKernel(type).name << " w=" << w
                               << " q=" << q << " s_limit=" << s_limit
                               << " interval=" << interval;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SplitWidthTest,
                         ::testing::Values<size_t>(0, 1, 10, 12),
                         [](const ::testing::TestParamInfo<size_t>& p) {
                           std::string name = "w";
                           name += std::to_string(p.param);
                           return name;
                         });

// ---------------------------------------------------------------------------
// End-to-end equivalence on a trained index: every kernel must return the
// exact ADC oracle's neighbors and distances bit for bit, in all modes.
// ---------------------------------------------------------------------------

class ScanSearchEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 1200 rows = 18 full blocks + a 48-row remainder.
    data_ = GenerateSpectrumMixture(1200, 32, PowerLawSpectrum(32, 1.2), 8,
                                    1.0, 3);
    queries_ = GenerateSpectrumMixture(16, 32, PowerLawSpectrum(32, 1.2), 8,
                                       1.0, 1003);
    VaqOptions opts;
    opts.num_subspaces = 8;
    // Adaptive: mixed odd widths, some above 8 bits (uint16 stripes) and
    // some at or below (uint8 stripes).
    opts.total_bits = 64;
    opts.min_bits = 1;
    opts.max_bits = 13;
    opts.ti_clusters = 32;
    opts.kmeans_iters = 10;
    opts.seed = 7;
    auto index = VaqIndex::Train(data_, opts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
  }

  void ExpectOracleResults(const SearchParams& params) {
    for (size_t q = 0; q < queries_.rows(); ++q) {
      const std::vector<Neighbor> want =
          OracleSearch(index_, queries_.row(q), params);
      std::vector<Neighbor> got;
      ASSERT_TRUE(index_.Search(queries_.row(q), params, &got).ok());
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id) << "q=" << q << " i=" << i;
        EXPECT_EQ(want[i].distance, got[i].distance) << "q=" << q;
      }
    }
  }

  FloatMatrix data_;
  FloatMatrix queries_;
  VaqIndex index_;
};

TEST_F(ScanSearchEquivalenceTest, AllKernelsMatchReferenceInAllModes) {
  for (SearchMode mode : {SearchMode::kHeap, SearchMode::kEarlyAbandon,
                          SearchMode::kTriangleInequality}) {
    for (double visit : {0.25, 1.0}) {
      for (ScanKernelType type :
           {ScanKernelType::kScalar, ScanKernelType::kAvx2,
            ScanKernelType::kAuto}) {
        SearchParams params;
        params.k = 15;
        params.mode = mode;
        params.visit_fraction = visit;
        params.kernel = type;
        ExpectOracleResults(params);
      }
    }
  }
}

TEST_F(ScanSearchEquivalenceTest, SubspacePrefixesMatchReference) {
  for (size_t used : {size_t{1}, size_t{3}, size_t{5}}) {
    for (SearchMode mode :
         {SearchMode::kHeap, SearchMode::kEarlyAbandon,
          SearchMode::kTriangleInequality /* falls back to EA */}) {
      SearchParams params;
      params.k = 10;
      params.mode = mode;
      params.num_subspaces_used = used;
      params.kernel = ScanKernelType::kAuto;
      ExpectOracleResults(params);
    }
  }
}

TEST_F(ScanSearchEquivalenceTest, ScalarAndSimdReportIdenticalStats) {
  if (!Avx2KernelsAvailable()) GTEST_SKIP() << "no AVX2 kernel in this build";
  for (SearchMode mode : {SearchMode::kHeap, SearchMode::kEarlyAbandon,
                          SearchMode::kTriangleInequality}) {
    SearchParams params;
    params.k = 15;
    params.mode = mode;
    for (size_t q = 0; q < queries_.rows(); ++q) {
      SearchStats scalar_stats, simd_stats;
      std::vector<Neighbor> out;
      params.kernel = ScanKernelType::kScalar;
      ASSERT_TRUE(
          index_.Search(queries_.row(q), params, &out, &scalar_stats).ok());
      params.kernel = ScanKernelType::kAvx2;
      ASSERT_TRUE(
          index_.Search(queries_.row(q), params, &out, &simd_stats).ok());
      EXPECT_EQ(scalar_stats.codes_visited, simd_stats.codes_visited);
      EXPECT_EQ(scalar_stats.codes_skipped_ti, simd_stats.codes_skipped_ti);
      EXPECT_EQ(scalar_stats.lut_adds, simd_stats.lut_adds);
      EXPECT_EQ(scalar_stats.clusters_visited, simd_stats.clusters_visited);
      EXPECT_EQ(scalar_stats.clusters_total, simd_stats.clusters_total);
    }
  }
}

TEST_F(ScanSearchEquivalenceTest, HeapModeCountsExactWork) {
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kHeap;
  params.num_subspaces_used = 2;
  SearchStats stats;
  std::vector<Neighbor> out;
  ASSERT_TRUE(index_.Search(queries_.row(0), params, &out, &stats).ok());
  EXPECT_EQ(stats.codes_visited, index_.size());
  EXPECT_EQ(stats.lut_adds, index_.size() * 2);
}

TEST_F(ScanSearchEquivalenceTest, SaveLoadRebuildsBlockedLayout) {
  const std::string path = "/tmp/vaq_scan_test.bin";
  ASSERT_TRUE(index_.Save(path).ok());
  auto loaded = VaqIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SearchParams params;
  params.k = 10;
  for (size_t q = 0; q < 4; ++q) {
    std::vector<Neighbor> a, b;
    ASSERT_TRUE(index_.Search(queries_.row(q), params, &a).ok());
    ASSERT_TRUE(loaded->Search(queries_.row(q), params, &b).ok());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
  std::remove(path.c_str());
}

/// Subspaces with more than 8 bits: the store's w on a trained index,
/// whose bits AllocateBits sorts descending.
size_t WideSubspaces(const std::vector<int>& bits) {
  return static_cast<size_t>(
      std::count_if(bits.begin(), bits.end(), [](int b) { return b > 8; }));
}

TEST_F(ScanSearchEquivalenceTest, CodeBytesAreOnePerSubspacePlusOnePerWide) {
  const size_t m = index_.num_subspaces();
  auto expect_split = [&](const VaqIndex& index, const char* what) {
    // w from the row-major codes: one past the last column above 255.
    const CodeMatrix codes = index.ti_partition().RowCodes();
    size_t w = 0;
    for (size_t r = 0; r < codes.rows(); ++r) {
      for (size_t s = w; s < m; ++s) {
        if (codes(r, s) > 255) w = s + 1;
      }
    }
    EXPECT_EQ(w, WideSubspaces(index.bits_per_subspace())) << what;
    EXPECT_EQ(index.ti_partition().codes().wide_subspaces(), w) << what;
    EXPECT_EQ(index.code_bytes(), index.size() * (m + w)) << what;
    return w;
  };
  // Both stripe widths are in use, so every scan here runs both kernels.
  const size_t w = expect_split(index_, "trained");
  EXPECT_GT(w, 0u);
  EXPECT_LT(w, m);

  const std::string path = "/tmp/vaq_scan_code_bytes_test.bin";
  ASSERT_TRUE(index_.Save(path).ok());
  auto loaded = VaqIndex::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  expect_split(*loaded, "loaded");
  ASSERT_TRUE(index_.Add(GenerateSpectrumMixture(
                             100, 32, PowerLawSpectrum(32, 1.2), 8, 1.0, 77))
                  .ok());
  expect_split(index_, "after Add");
}

TEST_F(ScanSearchEquivalenceTest, AddRebuildsBlockedLayout) {
  const FloatMatrix extra = GenerateSpectrumMixture(
      100, 32, PowerLawSpectrum(32, 1.2), 8, 1.0, 555);
  ASSERT_TRUE(index_.Add(extra).ok());
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kHeap;
  params.kernel = ScanKernelType::kAuto;
  ExpectOracleResults(params);
}

// ---------------------------------------------------------------------------
// IVF reuse of the scan kernels.
// ---------------------------------------------------------------------------

struct IvfProblem {
  FloatMatrix data = GenerateSpectrumMixture(
      900, 24, PowerLawSpectrum(24, 1.1), 6, 1.0, 31);
  FloatMatrix queries = GenerateSpectrumMixture(
      8, 24, PowerLawSpectrum(24, 1.1), 6, 1.0, 131);
  VaqIvfOptions opts = [] {
    VaqIvfOptions o;
    o.vaq.num_subspaces = 6;
    o.vaq.total_bits = 48;  // subspaces on both sides of 8 bits
    o.vaq.kmeans_iters = 8;
    o.coarse_k = 16;
    o.default_nprobe = 16;  // all lists: results must be exhaustive-exact
    return o;
  }();
};

TEST(VaqIvfScanTest, BlockedKernelsMatchReferenceScan) {
  // At nprobe = coarse_k the IVF index sees every row. A VaqIndex trained
  // with the same VaqOptions has the same encoder and codes, so the
  // oracle's flat kHeap over it is the exact answer.
  IvfProblem p;
  auto flat = VaqIndex::Train(p.data, p.opts.vaq);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  SearchParams heap;
  heap.k = 10;
  heap.mode = SearchMode::kHeap;
  for (ScanKernelType type : {ScanKernelType::kScalar, ScanKernelType::kAuto}) {
    p.opts.scan_kernel = type;
    auto candidate = VaqIvfIndex::Train(p.data, p.opts);
    ASSERT_TRUE(candidate.ok());
    for (size_t q = 0; q < p.queries.rows(); ++q) {
      const std::vector<Neighbor> want =
          OracleSearch(*flat, p.queries.row(q), heap);
      std::vector<Neighbor> got;
      ASSERT_TRUE(candidate->Search(p.queries.row(q), 10, 0, &got).ok());
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id) << "q=" << q << " i=" << i;
        EXPECT_EQ(want[i].distance, got[i].distance);
      }
    }
  }
}

// Value 3 was the retired row-at-a-time scan; 255 was never a kernel.
// Both reach the driver through VaqIvfOptions and fail the query.
TEST(VaqIvfScanTest, RetiredAndUnknownKernelValuesAreInvalidArgument) {
  // Rejected before any training, as coarse_k = 0 is: an index with such
  // a kernel could answer no query.
  IvfProblem p;
  for (const int value : {3, 255}) {
    p.opts.scan_kernel = static_cast<ScanKernelType>(value);
    EXPECT_EQ(VaqIvfIndex::Train(p.data, p.opts).status().code(),
              StatusCode::kInvalidArgument)
        << "kernel=" << value;
  }
}

// ---------------------------------------------------------------------------
// Scratch reuse: the steady-state query path must not touch the heap.
// ---------------------------------------------------------------------------

TEST_F(ScanSearchEquivalenceTest, ScratchReuseMakesSearchAllocationFree) {
  // Subspaces on both sides of w: the uint16 and the uint8 group functions
  // both run in every query below.
  ASSERT_GT(index_.ti_partition().codes().wide_subspaces(), 0u);
  ASSERT_LT(index_.ti_partition().codes().wide_subspaces(),
            index_.num_subspaces());
  for (ScanKernelType kernel : {ScanKernelType::kAuto, ScanKernelType::kScalar,
                                ScanKernelType::kAvx2}) {
    for (SearchMode mode : {SearchMode::kHeap, SearchMode::kEarlyAbandon,
                            SearchMode::kTriangleInequality}) {
      SearchParams params;
      params.k = 20;
      params.mode = mode;
      params.kernel = kernel;
      SearchScratch scratch;
      std::vector<Neighbor> out;
      SearchStats stats;
      // Warmup grows every scratch vector to its high-water size.
      for (size_t q = 0; q < 4; ++q) {
        ASSERT_TRUE(
            index_.Search(queries_.row(q), params, &scratch, &out, &stats)
                .ok());
      }
      const size_t before = AllocCount();
      for (size_t rep = 0; rep < 3; ++rep) {
        for (size_t q = 0; q < queries_.rows(); ++q) {
          stats.Reset();
          ASSERT_TRUE(
              index_.Search(queries_.row(q), params, &scratch, &out, &stats)
                  .ok());
        }
      }
      EXPECT_EQ(AllocCount() - before, 0u)
          << "kernel=" << static_cast<int>(kernel)
          << " mode=" << static_cast<int>(mode)
          << ": steady-state Search allocated";
    }
  }
}

TEST(VaqIvfScanTest, ScratchReuseMakesSearchAllocationFree) {
  IvfProblem p;
  for (ScanKernelType kernel : {ScanKernelType::kAuto, ScanKernelType::kScalar,
                                ScanKernelType::kAvx2}) {
    p.opts.scan_kernel = kernel;
    auto index = VaqIvfIndex::Train(p.data, p.opts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    // Both stripe widths, as in the VaqIndex case.
    const size_t w = WideSubspaces(index->bits_per_subspace());
    ASSERT_GT(w, 0u);
    ASSERT_LT(w, index->bits_per_subspace().size());
    for (const size_t nprobe : {size_t{1}, size_t{4}, size_t{16}}) {
      SearchScratch scratch;
      std::vector<Neighbor> out;
      SearchStats stats;
      for (size_t q = 0; q < 4; ++q) {
        ASSERT_TRUE(
            index->Search(p.queries.row(q), 10, nprobe, &scratch, &out, &stats)
                .ok());
      }
      const size_t before = AllocCount();
      for (size_t rep = 0; rep < 3; ++rep) {
        for (size_t q = 0; q < p.queries.rows(); ++q) {
          stats.Reset();
          ASSERT_TRUE(index
                          ->Search(p.queries.row(q), 10, nprobe, &scratch,
                                   &out, &stats)
                          .ok());
        }
      }
      EXPECT_EQ(AllocCount() - before, 0u)
          << "kernel=" << static_cast<int>(kernel) << " nprobe=" << nprobe
          << ": steady-state VaqIvfIndex::Search allocated";
    }
  }
}

TEST_F(ScanSearchEquivalenceTest, BatchIntoReusesResultBuffers) {
  SearchParams params;
  params.k = 20;
  std::vector<std::vector<Neighbor>> results;
  // First batch sizes the result vectors; second batch must reuse them.
  ASSERT_TRUE(index_.SearchBatchInto(queries_, params, 1, &results).ok());
  const size_t before = AllocCount();
  ASSERT_TRUE(index_.SearchBatchInto(queries_, params, 1, &results).ok());
  const size_t per_batch = AllocCount() - before;
  // The only steady-state allocations are the one fresh SearchScratch per
  // batch (a handful of vectors), independent of the query count.
  EXPECT_LT(per_batch, 16u) << "per-batch allocations should not scale "
                               "with the number of queries";
}

// Value 3 was the retired row-at-a-time scan; 255 was never a kernel.
TEST_F(ScanSearchEquivalenceTest,
       RetiredAndUnknownKernelValuesAreInvalidArgument) {
  for (const int value : {3, 255}) {
    for (SearchMode mode : {SearchMode::kHeap, SearchMode::kEarlyAbandon,
                            SearchMode::kTriangleInequality}) {
      SearchParams params;
      params.k = 10;
      params.mode = mode;
      params.kernel = static_cast<ScanKernelType>(value);
      std::vector<Neighbor> out(1);
      EXPECT_EQ(index_.Search(queries_.row(0), params, &out).code(),
                StatusCode::kInvalidArgument)
          << "kernel=" << value << " mode=" << static_cast<int>(mode);
    }
  }
}

TEST(ScanDispatchTest, AutoResolvesToSupportedKernel) {
  const ScanKernel& kernel = GetScanKernel(ScanKernelType::kAuto);
  ASSERT_NE(kernel.accumulate_u16, nullptr);
  ASSERT_NE(kernel.accumulate_u8, nullptr);
  // The one ISA rule forces scalar only for VAQ_SCAN_KERNEL=scalar; any
  // other value leaves kAuto to the CPU.
  const char* forced = std::getenv("VAQ_SCAN_KERNEL");
  if (Avx2KernelsAvailable() &&
      (forced == nullptr || std::strcmp(forced, "scalar") != 0)) {
    EXPECT_STREQ(kernel.name, "avx2");
    EXPECT_TRUE(CpuHasAvx2());
  } else {
    EXPECT_STREQ(kernel.name, "scalar");
  }
  // Requesting AVX2 must degrade gracefully rather than crash.
  ASSERT_NE(GetScanKernel(ScanKernelType::kAvx2).accumulate_u16, nullptr);
  ASSERT_NE(GetScanKernel(ScanKernelType::kAvx2).accumulate_u8, nullptr);
  EXPECT_STREQ(GetScanKernel(ScanKernelType::kScalar).name, "scalar");
  // The centroid kernels follow the same ISA rule.
  for (ScanKernelType type : {ScanKernelType::kAuto, ScanKernelType::kScalar,
                              ScanKernelType::kAvx2}) {
    EXPECT_STREQ(GetCentroidKernel(type).name, GetScanKernel(type).name)
        << "type=" << static_cast<int>(type);
  }
}

}  // namespace
}  // namespace vaq
