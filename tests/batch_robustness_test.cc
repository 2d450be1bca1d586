// Robustness of the batch execution layer: the shared ThreadPool, the
// build steps' ParallelFor, the admission controller's load shedding,
// per-query status isolation, and deadline-bounded batches with stuck
// (artificially slowed) workers. The concurrency tests here are the
// primary targets of the TSan CI leg.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/vaq_index.h"

namespace vaq {
namespace {

FloatMatrix Gaussian(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix data(n, d);
  for (size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return data;
}

Result<VaqIndex> SmallIndex(const FloatMatrix& base) {
  VaqOptions opts;
  opts.num_subspaces = 4;
  opts.total_bits = 20;
  opts.ti_clusters = 16;
  opts.kmeans_iters = 5;
  return VaqIndex::Train(base, opts);
}

// ---------------------------------------------------------------------------
// ThreadPool / TaskGroup / AdmissionController units.

TEST(ThreadPoolTest, RunsEveryTaskOnReusedWorkers) {
  ThreadPool::Options options;
  options.num_threads = 2;
  options.queue_capacity = 64;
  ThreadPool pool(options);
  EXPECT_EQ(pool.num_threads(), 2u);
  std::atomic<int> done{0};
  TaskGroup group;
  for (int i = 0; i < 32; ++i) {
    group.Add();
    ASSERT_TRUE(pool.Submit([&done, &group] {
      ++done;
      group.Done();
    }).ok());
  }
  group.Wait();
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPoolTest, TrySubmitShedsWhenQueueIsFull) {
  ThreadPool::Options options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  ThreadPool pool(options);

  // Park the single worker so nothing drains while we fill the queue.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  TaskGroup group;
  group.Add();
  ASSERT_TRUE(pool.Submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
    group.Done();
  }).ok());
  while (!started.load()) std::this_thread::yield();

  std::atomic<int> ran{0};
  group.Add();
  EXPECT_TRUE(pool.TrySubmit([&] {  // fills the one queue slot
    ++ran;
    group.Done();
  }));
  EXPECT_FALSE(pool.TrySubmit([&] { ++ran; }));  // shed, never runs
  EXPECT_EQ(pool.queued(), 1u);

  release.store(true);
  group.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, SwallowsTaskExceptions) {
  ThreadPool::Options options;
  options.num_threads = 1;
  ThreadPool pool(options);
  TaskGroup group;
  group.Add(2);
  ASSERT_TRUE(pool.Submit([&group] {
    group.Done();
    throw std::runtime_error("worker must survive this");
  }).ok());
  std::atomic<bool> second_ran{false};
  ASSERT_TRUE(pool.Submit([&] {
    second_ran.store(true);
    group.Done();
  }).ok());
  group.Wait();
  EXPECT_TRUE(second_ran.load());
}

TEST(ParallelForTest, CoversEveryIndexOnceInContiguousChunks) {
  // 10 items on 4 threads: ceil(10 / 4) = 3 per chunk, so 4 chunks with
  // the last one short. Each chunk writes only its own slots.
  std::vector<int> hits(10, 0);
  std::vector<std::pair<size_t, size_t>> chunks(4);
  std::atomic<size_t> num_chunks{0};
  ParallelFor(hits.size(), 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
    chunks[begin / 3] = {begin, end};
    ++num_chunks;
  });
  EXPECT_EQ(hits, std::vector<int>(10, 1));
  EXPECT_EQ(num_chunks.load(), 4u);
  EXPECT_EQ(chunks.back(), std::make_pair(size_t{9}, size_t{10}));
}

TEST(ParallelForTest, OneThreadOrOneItemRunsInline) {
  // 8 threads over 1 item cap at one thread, which runs on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<size_t, size_t>> calls;
  auto body = [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    calls.push_back({begin, end});
  };
  ParallelFor(5, 1, body);
  ParallelFor(1, 8, body);
  ParallelFor(0, 0, body);
  const std::vector<std::pair<size_t, size_t>> expected = {
      {0, 5}, {0, 1}, {0, 0}};
  EXPECT_EQ(calls, expected);
}

TEST(AdmissionControllerTest, EnforcesTheCapAndReleasesOnDestruction) {
  AdmissionController controller(4);
  EXPECT_EQ(controller.in_flight(), 0u);
  AdmissionController::Ticket a = controller.TryAdmit(3);
  EXPECT_TRUE(a.admitted());
  EXPECT_EQ(controller.in_flight(), 3u);
  EXPECT_FALSE(controller.TryAdmit(2).admitted());  // 3 + 2 > 4
  AdmissionController::Ticket b = controller.TryAdmit(1);
  EXPECT_TRUE(b.admitted());
  EXPECT_EQ(controller.in_flight(), 4u);
  a.Release();
  EXPECT_EQ(controller.in_flight(), 1u);
  EXPECT_TRUE(controller.TryAdmit(3).admitted());  // temporary: freed again
  EXPECT_EQ(controller.in_flight(), 1u);
  // Oversized requests fail even on an idle controller.
  b.Release();
  EXPECT_FALSE(controller.TryAdmit(5).admitted());
}

TEST(AdmissionControllerTest, TicketMoveTransfersOwnership) {
  AdmissionController controller(2);
  AdmissionController::Ticket a = controller.TryAdmit(2);
  ASSERT_TRUE(a.admitted());
  AdmissionController::Ticket b = std::move(a);
  EXPECT_FALSE(a.admitted());
  EXPECT_TRUE(b.admitted());
  EXPECT_EQ(controller.in_flight(), 2u);
  b.Release();
  EXPECT_EQ(controller.in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Batch entry points under overload, failure, and slow workers.

TEST(BatchRobustnessTest, OverloadedBatchFastFailsWithUnavailable) {
  const FloatMatrix base = Gaussian(600, 8, 41);
  auto index = SmallIndex(base);
  ASSERT_TRUE(index.ok());
  FloatMatrix queries(8, 8);
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::copy_n(base.row(q), 8, queries.row(q));
  }
  SearchParams params;
  params.k = 5;

  AdmissionController::Global().set_max_in_flight(4);  // batch of 8 > cap
  std::vector<std::vector<Neighbor>> results;
  std::vector<Status> statuses;
  const Status st =
      index->SearchBatchInto(queries, params, 4, &results, &statuses);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(statuses.empty());  // shed before any per-query work

  // Serial execution is the caller's own thread doing its own work — it
  // is never shed, so a degraded server can still answer one at a time.
  ASSERT_TRUE(index->SearchBatchInto(queries, params, 1, &results).ok());
  EXPECT_EQ(results[0].size(), 5u);

  AdmissionController::Global().set_max_in_flight(
      AdmissionController::kDefaultMaxInFlight);
  ASSERT_TRUE(
      index->SearchBatchInto(queries, params, 4, &results, &statuses).ok());
  EXPECT_EQ(AdmissionController::Global().in_flight(), 0u);
}

TEST(BatchRobustnessTest, PerQueryStatusesSurviveSharedParamFailure) {
  const FloatMatrix base = Gaussian(400, 8, 43);
  auto index = SmallIndex(base);
  ASSERT_TRUE(index.ok());
  SearchParams params;
  params.k = 5;
  params.visit_fraction = 2.0;  // invalid: every query fails validation
  std::vector<std::vector<Neighbor>> results;
  std::vector<Status> statuses;
  // With a status sink the batch itself succeeds; the failure is reported
  // per query instead of masking the whole call (legacy nullptr behavior
  // is covered by VaqBatchThreadingTest.ErrorsPropagateFromWorkers).
  ASSERT_TRUE(
      index->SearchBatchInto(base, params, 4, &results, &statuses).ok());
  ASSERT_EQ(statuses.size(), base.rows());
  for (const Status& st : statuses) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
}

// Slow-scan injection: every cooperative check stalls for a moment, like
// a worker descheduled on an oversubscribed box.
void SlowCheckHook() {
  std::this_thread::sleep_for(std::chrono::microseconds(200));
}

TEST(BatchRobustnessTest, StuckWorkersAreBoundedByTheBatchDeadline) {
  const FloatMatrix base = Gaussian(4000, 8, 47);
  auto index = SmallIndex(base);
  ASSERT_TRUE(index.ok());
  FloatMatrix queries(8, 8);
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::copy_n(base.row(q), 8, queries.row(q));
  }
  SearchParams params;
  params.k = 5;
  params.mode = SearchMode::kHeap;  // a full scan: ~63 checks per query
  // Finishing a scan costs >= 63 checks x 200us = ~12.6ms of injected
  // stall, so a 5ms budget guarantees every query truncates.
  params.deadline = Deadline::AfterMillis(5);

  SetDeadlineCheckHookForTesting(&SlowCheckHook);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::vector<Neighbor>> results;
  std::vector<Status> statuses;
  std::vector<SearchStats> stats;
  const Status st = index->SearchBatchInto(queries, params, 4, &results,
                                           &statuses, &stats);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  SetDeadlineCheckHookForTesting(nullptr);

  ASSERT_TRUE(st.ok());
  // Unthrottled, 8 queries x 63 checks x 200us of stall is ~100ms of
  // injected delay; the 5ms budget must cut that off long before. The
  // wall bound is deliberately loose (scheduling noise) — the real
  // assertions are the per-query truncation reports.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  ASSERT_EQ(statuses.size(), queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_TRUE(statuses[q].ok());
    EXPECT_TRUE(stats[q].truncated);
    EXPECT_LT(stats[q].rows_scanned, base.rows());
  }
}

TEST(BatchRobustnessTest, ConcurrentBatchesWithCancellationAreRaceFree) {
  // Primary TSan stress: several threads run batches against one shared
  // index (each batch fanning out on the shared pool) while another
  // thread fires a shared cancellation token mid-flight.
  const FloatMatrix base = Gaussian(3000, 8, 53);
  auto index = SmallIndex(base);
  ASSERT_TRUE(index.ok());
  FloatMatrix queries(16, 8);
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::copy_n(base.row(q), 8, queries.row(q));
  }

  CancellationSource source;
  SearchParams params;
  params.k = 5;
  params.cancel_token = source.token();

  std::atomic<int> batches_ok{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        std::vector<std::vector<Neighbor>> results;
        std::vector<Status> statuses;
        const Status st = index->SearchBatchInto(queries, params, 2,
                                                 &results, &statuses);
        if (!st.ok()) continue;  // admission shed under CI load is fine
        ++batches_ok;
        for (size_t q = 0; q < statuses.size(); ++q) {
          // Each query either finished or observed the cancellation.
          if (statuses[q].ok()) {
            EXPECT_EQ(results[q].size(), 5u);
          } else {
            EXPECT_EQ(statuses[q].code(), StatusCode::kCancelled);
            EXPECT_TRUE(results[q].empty());
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  source.Cancel();
  for (std::thread& caller : callers) caller.join();
  EXPECT_GT(batches_ok.load(), 0);
}

}  // namespace
}  // namespace vaq
