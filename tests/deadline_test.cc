// Deadline-aware and cancellable query execution (DESIGN.md §9).
//
// The timing-sensitive tests run on a virtual clock: the deadline clock is
// replaced with an atomic counter that the per-check hook advances by a
// fixed step, so "the budget expires after exactly c cooperative checks"
// is a deterministic statement, not a race against the scheduler. Checks
// happen at 64-row block boundaries and partition boundaries, which lets
// us pin expiry to an exact block edge and compare the partial result
// against the true top-k of the scanned prefix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "adc_oracle.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/search_driver.h"
#include "core/vaq_index.h"
#include "index/vaq_ivf.h"

namespace vaq {
namespace {

// ---------------------------------------------------------------------------
// Virtual clock plumbing (plain function pointers, as the hooks require).

std::atomic<int64_t> g_virtual_now{0};
std::atomic<int64_t> g_step_per_check{0};

int64_t VirtualNow() { return g_virtual_now.load(std::memory_order_relaxed); }

void AdvanceOnCheck() {
  g_virtual_now.fetch_add(g_step_per_check.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
}

/// Installs the virtual clock for the duration of a test. Every
/// StopController::ShouldStop() advances virtual time by `step` ns, so a
/// deadline of (c + 1) * step ns set at time 0 lets exactly c checks pass
/// and stops the query on check c + 1.
class VirtualClockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_virtual_now.store(0);
    g_step_per_check.store(0);
    SetDeadlineClockForTesting(&VirtualNow);
    SetDeadlineCheckHookForTesting(&AdvanceOnCheck);
  }
  void TearDown() override {
    SetDeadlineClockForTesting(nullptr);
    SetDeadlineCheckHookForTesting(nullptr);
  }

  /// A deadline that lets exactly `checks` cooperative checks pass.
  Deadline BudgetOfChecks(int64_t checks, int64_t step = 1000) {
    g_virtual_now.store(0);
    g_step_per_check.store(step);
    return Deadline::After(std::chrono::nanoseconds((checks + 1) * step));
  }
};

FloatMatrix Gaussian(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix data(n, d);
  for (size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return data;
}

// ---------------------------------------------------------------------------
// Deadline / CancellationToken / StopController unit behavior.

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.IsExpired());
  EXPECT_GT(d.RemainingNanos(), int64_t{1} << 60);
  EXPECT_FALSE(Deadline::Infinite().bounded());
}

TEST(DeadlineTest, HugeBudgetSaturatesInsteadOfOverflowing) {
  Deadline d = Deadline::After(std::chrono::nanoseconds(INT64_MAX));
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.IsExpired());
}

TEST_F(VirtualClockTest, DeadlineExpiresExactlyAtBudget) {
  Deadline d = Deadline::After(std::chrono::nanoseconds(1000));
  EXPECT_TRUE(d.bounded());
  EXPECT_FALSE(d.IsExpired());
  EXPECT_EQ(d.RemainingNanos(), 1000);
  g_virtual_now.store(999);
  EXPECT_FALSE(d.IsExpired());
  g_virtual_now.store(1000);
  EXPECT_TRUE(d.IsExpired());
  EXPECT_EQ(d.RemainingNanos(), 0);
}

TEST(CancellationTest, DefaultTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTest, CopiesShareOneFlag) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = a;  // copy after handout
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(a.cancelled());
  source.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_TRUE(source.cancelled());
}

TEST(StopControllerTest, UnarmedCostsNothingAndNeverStops) {
  StopController stop;
  EXPECT_FALSE(stop.armed());
  EXPECT_FALSE(stop.ShouldStop());
  EXPECT_FALSE(stop.stopped());
  EXPECT_EQ(stop.cause(), StopCause::kNone);
}

TEST_F(VirtualClockTest, StopControllerIsStickyAndRecordsCause) {
  StopController stop(Deadline::After(std::chrono::nanoseconds(500)),
                      CancellationToken());
  EXPECT_TRUE(stop.armed());
  g_step_per_check.store(400);
  EXPECT_FALSE(stop.ShouldStop());  // now = 400
  EXPECT_TRUE(stop.ShouldStop());   // now = 800 >= 500
  EXPECT_EQ(stop.cause(), StopCause::kDeadline);
  // Sticky: even if time rolled back the stop must hold.
  g_virtual_now.store(0);
  EXPECT_TRUE(stop.ShouldStop());
  EXPECT_EQ(stop.cause(), StopCause::kDeadline);
}

TEST_F(VirtualClockTest, CancellationWinsOverSimultaneousExpiry) {
  CancellationSource source;
  StopController stop(Deadline::Expired(), source.token());
  source.Cancel();
  EXPECT_TRUE(stop.ShouldStop());
  EXPECT_EQ(stop.cause(), StopCause::kCancelled);
}

// ---------------------------------------------------------------------------
// VaqIndex search under a budget.

class SearchDeadlineTest : public VirtualClockTest {
 protected:
  static void SetUpTestSuite() {
    base_ = new FloatMatrix(Gaussian(2000, 16, 21));
    VaqOptions opts;
    opts.num_subspaces = 4;
    opts.total_bits = 24;
    opts.ti_clusters = 32;
    opts.kmeans_iters = 5;
    auto trained = VaqIndex::Train(*base_, opts);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    index_ = new VaqIndex(std::move(*trained));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete base_;
    index_ = nullptr;
    base_ = nullptr;
  }

  static const FloatMatrix* base_;
  static const VaqIndex* index_;
};

const FloatMatrix* SearchDeadlineTest::base_ = nullptr;
const VaqIndex* SearchDeadlineTest::index_ = nullptr;

TEST_F(SearchDeadlineTest, ZeroBudgetReturnsImmediatelyTruncated) {
  for (SearchMode mode : {SearchMode::kHeap, SearchMode::kEarlyAbandon,
                          SearchMode::kTriangleInequality}) {
    for (ScanKernelType kernel :
         {ScanKernelType::kAuto, ScanKernelType::kScalar}) {
      SearchParams params;
      params.k = 10;
      params.mode = mode;
      params.kernel = kernel;
      params.deadline = Deadline::Expired();
      std::vector<Neighbor> result(1);  // must be cleared/refilled
      SearchStats stats;
      ASSERT_TRUE(index_->Search(base_->row(0), params, &result, &stats).ok());
      EXPECT_TRUE(stats.truncated);
      EXPECT_EQ(stats.rows_scanned, 0u);   // stopped at the first check
      EXPECT_TRUE(result.empty());         // best-so-far of zero work
      EXPECT_EQ(stats.partitions_visited, 0u);
    }
  }
}

TEST_F(SearchDeadlineTest, MidScanExpiryReturnsExactPrefixTopK) {
  // Ground truth: the exact ADC oracle with k = n ranks every row by its
  // ADC distance.
  SearchParams full;
  full.k = base_->rows();
  full.mode = SearchMode::kHeap;
  const std::vector<Neighbor> ranking =
      OracleSearch(*index_, base_->row(3), full);
  ASSERT_EQ(ranking.size(), base_->rows());

  for (ScanKernelType kernel :
       {ScanKernelType::kAuto, ScanKernelType::kScalar}) {
    SearchParams params;
    params.k = 10;
    params.mode = SearchMode::kHeap;
    params.kernel = kernel;
    // Let exactly 5 block checks pass: the scan stops at row 5 * 64.
    params.deadline = BudgetOfChecks(5);
    std::vector<Neighbor> partial;
    SearchStats stats;
    ASSERT_TRUE(
        index_->Search(base_->row(3), params, &partial, &stats).ok());
    EXPECT_TRUE(stats.truncated);
    ASSERT_EQ(stats.rows_scanned, 5u * kScanBlockSize);

    // Expected: the k best of the first rows_scanned rows in storage
    // order (the flat scan walks the TI cluster order of the one code
    // store) under the full ranking's distances — the heap must hold
    // exactly the prefix top-k.
    const std::vector<uint32_t>& stored = index_->ti_partition().members().ids;
    ASSERT_GE(stored.size(), stats.rows_scanned);
    std::vector<bool> scanned(base_->rows(), false);
    for (size_t i = 0; i < stats.rows_scanned; ++i) scanned[stored[i]] = true;
    std::vector<Neighbor> expected;
    for (const Neighbor& nb : ranking) {
      if (scanned[nb.id]) expected.push_back(nb);
    }
    ASSERT_GE(expected.size(), params.k);
    expected.resize(params.k);
    ASSERT_EQ(partial.size(), params.k);
    for (size_t i = 0; i < params.k; ++i) {
      EXPECT_EQ(partial[i].id, expected[i].id);
      EXPECT_FLOAT_EQ(partial[i].distance, expected[i].distance);
    }
  }
}

TEST_F(SearchDeadlineTest, EarlyAbandonMidScanExpiryReturnsSeededPrefixTopK) {
  const float* query = base_->row(3);
  const size_t n = base_->rows();
  // Ground truth, as in MidScanExpiryReturnsExactPrefixTopK.
  SearchParams full;
  full.k = n;
  full.mode = SearchMode::kHeap;
  const std::vector<Neighbor> ranking = OracleSearch(*index_, query, full);
  ASSERT_EQ(ranking.size(), n);

  // The flat early-abandon visit order: the ceil(8 k C / n) TI clusters
  // nearest the query, nearest first, then every other cluster's rows in
  // storage order, each run of unseeded clusters as one visit.
  const size_t k = 10;
  const TiPartition& ti = index_->ti_partition();
  const Partitioning& parts = ti.members();
  const size_t clusters = ti.num_partitions();
  const auto seeds = static_cast<size_t>(std::ceil(
      8.0 * static_cast<double>(k * clusters) / static_cast<double>(n)));
  ASSERT_LT(seeds, clusters);
  std::vector<float> projected;
  index_->ProjectQuery(query, &projected);
  SearchScratch rank_scratch;
  RankPartitions(projected.data(), ti.centroids(), seeds,
                 ScanKernelType::kAuto, &rank_scratch);
  const std::vector<Neighbor>& nearest = rank_scratch.ranking;
  std::vector<std::pair<size_t, size_t>> visits;  // storage row ranges
  std::vector<bool> seeded(clusters, false);
  for (const Neighbor& c : nearest) {
    seeded[c.id] = true;
    visits.emplace_back(parts.begin(c.id), parts.end(c.id));
  }
  bool in_run = false;
  for (size_t c = 0; c < clusters; ++c) {
    if (seeded[c]) {
      in_run = false;
    } else if (parts.begin(c) < parts.end(c)) {
      if (in_run) {
        visits.back().second = parts.end(c);
      } else {
        visits.emplace_back(parts.begin(c), parts.end(c));
        in_run = true;
      }
    }
  }
  // A stop check runs before the seed ranking, before the first row of
  // each visit and before each later row that starts a 64-row block of the
  // store; `checks` passing checks scan the rows before the next check.
  const int64_t checks = 7;
  std::vector<uint32_t> prefix;
  int64_t seen = 1;  // the check before the seed ranking
  for (const auto& [begin, end] : visits) {
    for (size_t row = begin; row < end; ++row) {
      if (row == begin || row % kScanBlockSize == 0) ++seen;
      if (seen > checks) break;
      prefix.push_back(parts.ids[row]);
    }
    if (seen > checks) break;
  }
  ASSERT_LT(prefix.size(), n);
  // The seeded prefix is not the storage-order prefix of the same length.
  std::vector<uint32_t> sorted_prefix = prefix;
  std::sort(sorted_prefix.begin(), sorted_prefix.end());
  std::vector<uint32_t> storage_prefix(parts.ids.begin(),
                                       parts.ids.begin() + prefix.size());
  std::sort(storage_prefix.begin(), storage_prefix.end());
  ASSERT_NE(sorted_prefix, storage_prefix);

  std::vector<bool> scanned(n, false);
  for (const uint32_t id : prefix) scanned[id] = true;
  std::vector<Neighbor> expected;
  for (const Neighbor& nb : ranking) {
    if (scanned[nb.id]) expected.push_back(nb);
  }
  ASSERT_GE(expected.size(), k);
  expected.resize(k);

  for (ScanKernelType kernel :
       {ScanKernelType::kAuto, ScanKernelType::kScalar}) {
    SearchParams params;
    params.k = k;
    params.mode = SearchMode::kEarlyAbandon;
    // Two checks per row, so rows can be abandoned: with one interval
    // spanning all 4 subspaces the flat scan is kHeap's one range.
    params.ea_check_interval = 2;
    params.kernel = kernel;
    params.deadline = BudgetOfChecks(checks);
    std::vector<Neighbor> partial;
    SearchStats stats;
    ASSERT_TRUE(index_->Search(query, params, &partial, &stats).ok());
    EXPECT_TRUE(stats.truncated);
    EXPECT_EQ(stats.partitions_visited, 0u);
    // Every row of the prefix was begun (some abandoned), and no other.
    ASSERT_EQ(stats.codes_visited, prefix.size());
    ASSERT_EQ(partial.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(partial[i].id, expected[i].id);
      EXPECT_FLOAT_EQ(partial[i].distance, expected[i].distance);
    }
  }
}

TEST_F(SearchDeadlineTest, RecallIsMonotoneInBudget) {
  // Growing the budget only extends the scanned prefix, and any member of
  // the final top-k that lies inside a prefix is necessarily in that
  // prefix's top-k — so overlap with the final answer never decreases.
  for (SearchMode mode : {SearchMode::kHeap, SearchMode::kEarlyAbandon,
                          SearchMode::kTriangleInequality}) {
    SearchParams params;
    params.k = 10;
    params.mode = mode;
    params.visit_fraction = 0.5;
    std::vector<Neighbor> final_result;
    ASSERT_TRUE(index_->Search(base_->row(7), params, &final_result).ok());
    std::vector<int64_t> final_ids;
    for (const Neighbor& nb : final_result) final_ids.push_back(nb.id);
    std::sort(final_ids.begin(), final_ids.end());

    size_t prev_overlap = 0;
    for (int64_t checks : {0, 1, 2, 4, 8, 16, 32, 64, 128, 100000}) {
      params.deadline = BudgetOfChecks(checks);
      std::vector<Neighbor> partial;
      SearchStats stats;
      ASSERT_TRUE(
          index_->Search(base_->row(7), params, &partial, &stats).ok());
      size_t overlap = 0;
      for (const Neighbor& nb : partial) {
        overlap += std::binary_search(final_ids.begin(), final_ids.end(),
                                      nb.id);
      }
      EXPECT_GE(overlap, prev_overlap)
          << "mode " << static_cast<int>(mode) << " budget of " << checks
          << " checks";
      prev_overlap = overlap;
    }
    // The largest budget must reach the unbounded answer.
    EXPECT_EQ(prev_overlap, final_ids.size());
  }
}

TEST_F(SearchDeadlineTest, StrictModeFailsInsteadOfDegrading) {
  SearchParams params;
  params.k = 10;
  params.deadline = Deadline::Expired();
  params.strict_deadline = true;
  std::vector<Neighbor> result(1);
  SearchStats stats;
  const Status st = index_->Search(base_->row(0), params, &result, &stats);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.empty());
  EXPECT_TRUE(stats.truncated);
}

TEST_F(SearchDeadlineTest, CancelledQueryAlwaysFails) {
  CancellationSource source;
  source.Cancel();
  SearchParams params;
  params.k = 10;
  params.cancel_token = source.token();
  std::vector<Neighbor> result(1);
  SearchStats stats;
  const Status st = index_->Search(base_->row(0), params, &result, &stats);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_TRUE(result.empty());
  EXPECT_TRUE(stats.truncated);
}

TEST_F(SearchDeadlineTest, AmpleDeadlineMatchesUnboundedBitExactly) {
  // Arming the controller must not change what is scanned or returned —
  // only expiry may. (The no-deadline path is additionally covered by the
  // pre-existing kernel-equivalence suite, which this PR leaves passing.)
  for (SearchMode mode : {SearchMode::kHeap, SearchMode::kEarlyAbandon,
                          SearchMode::kTriangleInequality}) {
    SearchParams params;
    params.k = 10;
    params.mode = mode;
    std::vector<Neighbor> unbounded;
    SearchStats unbounded_stats;
    ASSERT_TRUE(index_->Search(base_->row(11), params, &unbounded,
                               &unbounded_stats).ok());

    params.deadline = Deadline::AfterMillis(int64_t{1} << 40);
    std::vector<Neighbor> bounded;
    SearchStats bounded_stats;
    ASSERT_TRUE(index_->Search(base_->row(11), params, &bounded,
                               &bounded_stats).ok());

    ASSERT_EQ(bounded.size(), unbounded.size());
    for (size_t i = 0; i < bounded.size(); ++i) {
      EXPECT_EQ(bounded[i].id, unbounded[i].id);
      EXPECT_EQ(bounded[i].distance, unbounded[i].distance);
    }
    EXPECT_FALSE(bounded_stats.truncated);
    EXPECT_EQ(bounded_stats.codes_visited, unbounded_stats.codes_visited);
    EXPECT_EQ(bounded_stats.lut_adds, unbounded_stats.lut_adds);
    EXPECT_EQ(bounded_stats.rows_scanned, unbounded_stats.rows_scanned);
  }
}

TEST_F(SearchDeadlineTest, BatchSharesOneDeadline) {
  FloatMatrix queries(8, 16);
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::copy_n(base_->row(q), 16, queries.row(q));
  }
  SearchParams params;
  params.k = 10;
  params.deadline = Deadline::Expired();
  std::vector<std::vector<Neighbor>> results;
  std::vector<Status> statuses;
  std::vector<SearchStats> stats;
  ASSERT_TRUE(index_->SearchBatchInto(queries, params, 4, &results,
                                      &statuses, &stats).ok());
  ASSERT_EQ(statuses.size(), queries.rows());
  ASSERT_EQ(stats.size(), queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_TRUE(statuses[q].ok());          // degrade, don't fail
    EXPECT_TRUE(stats[q].truncated);        // ... but report it
    EXPECT_TRUE(results[q].empty());
  }
}

TEST_F(SearchDeadlineTest, ExpiryBeforeRankingPlansNothing) {
  // One stop check runs before partition ranking, TI's and the flat
  // early-abandon scan's seed ranking alike. A query out of budget there
  // skips ranking and begins no row; with one check to spare it ranks and
  // stops at the scan's first check, still before any row.
  SetTracingEnabled(true);
  for (SearchMode mode :
       {SearchMode::kEarlyAbandon, SearchMode::kTriangleInequality}) {
    for (int64_t checks : {0, 1}) {
      SearchParams params;
      params.k = 10;
      params.mode = mode;
      // Two checks per row, so the flat scan can abandon rows and seeds.
      params.ea_check_interval = 2;
      params.deadline = BudgetOfChecks(checks);
      QueryTrace trace;
      params.trace = &trace;
      std::vector<Neighbor> result(1);
      SearchStats stats;
      ASSERT_TRUE(index_->Search(base_->row(0), params, &result, &stats).ok());
      EXPECT_TRUE(stats.truncated);
      EXPECT_TRUE(result.empty());
      EXPECT_EQ(stats.partitions_visited, 0u);
      EXPECT_EQ(stats.codes_visited, 0u);
      EXPECT_TRUE(trace.HasPhase(QueryPhase::kLutBuild));
      EXPECT_EQ(trace.HasPhase(QueryPhase::kPartitionRank), checks == 1)
          << "checks " << checks;
    }
  }
  SetTracingEnabled(false);
}

TEST_F(SearchDeadlineTest, TruncationReportDescribesPartitionProgress) {
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kTriangleInequality;
  params.visit_fraction = 1.0;
  params.deadline = BudgetOfChecks(3);
  // Trace the truncated query too: even a query stopped mid-scan must
  // leave a coherent phase record (full setup phases, partial scan).
  SetTracingEnabled(true);
  QueryTrace trace;
  params.trace = &trace;
  std::vector<Neighbor> result;
  SearchStats stats;
  const Status st = index_->Search(base_->row(5), params, &result, &stats);
  SetTracingEnabled(false);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.clusters_total, 32u);
  EXPECT_LT(stats.partitions_visited, stats.clusters_total);
  EXPECT_GT(stats.wall_micros, 0.0);
  // The query got through projection, LUT build, and partition ranking
  // before the budget hit, and entered the scan phase without finishing
  // every planned partition (the truncation above proves partiality).
  EXPECT_TRUE(trace.enabled());
  EXPECT_TRUE(trace.HasPhase(QueryPhase::kProject));
  EXPECT_TRUE(trace.HasPhase(QueryPhase::kLutBuild));
  EXPECT_TRUE(trace.HasPhase(QueryPhase::kPartitionRank));
  EXPECT_TRUE(trace.HasPhase(QueryPhase::kBlockScan));
}

// ---------------------------------------------------------------------------
// VaqIvfIndex under a budget (QueryControl surface).

class IvfDeadlineTest : public VirtualClockTest {
 protected:
  static void SetUpTestSuite() {
    base_ = new FloatMatrix(Gaussian(2000, 16, 33));
    VaqIvfOptions opts;
    opts.vaq.num_subspaces = 4;
    opts.vaq.total_bits = 24;
    opts.vaq.kmeans_iters = 5;
    opts.coarse_k = 32;
    opts.default_nprobe = 8;
    auto trained = VaqIvfIndex::Train(*base_, opts);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    index_ = new VaqIvfIndex(std::move(*trained));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete base_;
    index_ = nullptr;
    base_ = nullptr;
  }

  static const FloatMatrix* base_;
  static const VaqIvfIndex* index_;
};

const FloatMatrix* IvfDeadlineTest::base_ = nullptr;
const VaqIvfIndex* IvfDeadlineTest::index_ = nullptr;

TEST_F(IvfDeadlineTest, ZeroBudgetTruncates) {
  QueryControl control;
  control.deadline = Deadline::Expired();
  SearchScratch scratch;
  std::vector<Neighbor> result(1);
  SearchStats stats;
  ASSERT_TRUE(index_->Search(base_->row(0), 10, 32, control, &scratch,
                             &result, &stats).ok());
  EXPECT_TRUE(stats.truncated);
  EXPECT_TRUE(result.empty());
  EXPECT_EQ(stats.partitions_visited, 0u);
  EXPECT_EQ(stats.clusters_total, 32u);
}

TEST_F(IvfDeadlineTest, ExpiryBeforeRankingPlansNothing) {
  SetTracingEnabled(true);
  for (int64_t checks : {0, 1}) {
    QueryControl control;
    control.deadline = BudgetOfChecks(checks);
    QueryTrace trace;
    control.trace = &trace;
    SearchScratch scratch;
    std::vector<Neighbor> result(1);
    SearchStats stats;
    ASSERT_TRUE(index_->Search(base_->row(0), 10, 8, control, &scratch,
                               &result, &stats).ok());
    EXPECT_TRUE(stats.truncated);
    EXPECT_TRUE(result.empty());
    EXPECT_EQ(stats.partitions_visited, 0u);
    EXPECT_EQ(stats.codes_visited, 0u);
    EXPECT_EQ(stats.clusters_total, 32u);
    EXPECT_EQ(trace.HasPhase(QueryPhase::kPartitionRank), checks == 1)
        << "checks " << checks;
  }
  SetTracingEnabled(false);
}

TEST_F(IvfDeadlineTest, PartialBudgetVisitsSomeCellsAndStaysExact) {
  QueryControl control;
  control.deadline = BudgetOfChecks(4);
  SearchScratch scratch;
  std::vector<Neighbor> result;
  SearchStats stats;
  ASSERT_TRUE(index_->Search(base_->row(9), 10, 32, control, &scratch,
                             &result, &stats).ok());
  EXPECT_TRUE(stats.truncated);
  EXPECT_GT(stats.partitions_visited, 0u);
  EXPECT_LT(stats.partitions_visited, 32u);
  // Whatever came back is a subset of the database with sane distances.
  for (const Neighbor& nb : result) {
    EXPECT_GE(nb.id, 0);
    EXPECT_LT(nb.id, static_cast<int64_t>(base_->rows()));
    EXPECT_GE(nb.distance, 0.f);
  }
}

TEST_F(IvfDeadlineTest, StrictAndCancelledFail) {
  SearchScratch scratch;
  std::vector<Neighbor> result(1);

  QueryControl strict;
  strict.deadline = Deadline::Expired();
  strict.strict_deadline = true;
  EXPECT_EQ(index_->Search(base_->row(0), 10, 8, strict, &scratch, &result)
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.empty());

  CancellationSource source;
  source.Cancel();
  QueryControl cancelled;
  cancelled.cancel_token = source.token();
  result.assign(1, Neighbor{});
  EXPECT_EQ(index_->Search(base_->row(0), 10, 8, cancelled, &scratch,
                           &result)
                .code(),
            StatusCode::kCancelled);
  EXPECT_TRUE(result.empty());
}

TEST_F(IvfDeadlineTest, UnboundedControlMatchesLegacyOverload) {
  SearchScratch scratch;
  std::vector<Neighbor> legacy;
  ASSERT_TRUE(index_->Search(base_->row(4), 10, 8, &scratch, &legacy).ok());
  std::vector<Neighbor> controlled;
  ASSERT_TRUE(index_->Search(base_->row(4), 10, 8, QueryControl{}, &scratch,
                             &controlled).ok());
  ASSERT_EQ(controlled.size(), legacy.size());
  for (size_t i = 0; i < controlled.size(); ++i) {
    EXPECT_EQ(controlled[i].id, legacy[i].id);
    EXPECT_EQ(controlled[i].distance, legacy[i].distance);
  }
}

TEST_F(IvfDeadlineTest, BatchDeadlineDegradesEveryQuery) {
  FloatMatrix queries(6, 16);
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::copy_n(base_->row(q), 16, queries.row(q));
  }
  QueryControl control;
  control.deadline = Deadline::Expired();
  std::vector<std::vector<Neighbor>> results;
  std::vector<Status> statuses;
  std::vector<SearchStats> stats;
  ASSERT_TRUE(index_->SearchBatchInto(queries, 10, 8, control, 3, &results,
                                      &statuses, &stats).ok());
  ASSERT_EQ(statuses.size(), queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_TRUE(statuses[q].ok());
    EXPECT_TRUE(stats[q].truncated);
    EXPECT_TRUE(results[q].empty());
  }
}

}  // namespace
}  // namespace vaq
