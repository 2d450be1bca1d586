#ifndef VAQ_CORE_SEARCH_BATCH_H_
#define VAQ_CORE_SEARCH_BATCH_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/scan.h"
#include "core/search_driver.h"

namespace vaq {

/// Answers one query of a batch: the index's scratch-reusing Search.
using BatchQueryFn = std::function<Status(
    const float* query, const SearchParams& params, SearchScratch* scratch,
    std::vector<Neighbor>* out, SearchStats* stats)>;

/// The one SearchBatchInto body behind VaqIndex and VaqIvfIndex. Checks
/// that `queries` has `dim` columns, sizes `results` (and `query_stats`,
/// when given) to the query count, and runs `search` on every row with a
/// copy of `params` whose trace is cleared: a single QueryTrace is not
/// thread-safe, so batch callers trace through single-query calls.
/// `params.deadline` is an absolute expiry shared by every query, so one
/// budget bounds the whole batch.
///
/// Execution model (DESIGN.md §9):
///  - num_threads <= 1 runs inline on the caller's thread.
///  - Otherwise the batch is split into `num_threads` contiguous chunks
///    executed on the process-wide ThreadPool — no threads are created or
///    joined per call. Each chunk owns one SearchScratch, preserving the
///    allocation-free steady state of the previous per-call threads.
///  - Parallel batches pass admission control first: when the in-flight
///    query cap would be exceeded the whole batch fast-fails with
///    kUnavailable and `statuses` is left untouched.
///  - A query failure is recorded in its status slot and the chunk moves
///    on; an exception poisons only the chunk's remaining queries (their
///    slots get kInternal) — other chunks' results always survive.
///
/// Returns non-OK only for batch-level failures (dimension mismatch,
/// admission overflow, pool shutdown). When `statuses` is nullptr a
/// per-query failure is instead surfaced as the first non-OK status,
/// preserving the legacy all-or-nothing contract.
///
/// Concurrency discipline: chunk workers write disjoint result and status
/// slots and own their SearchScratch, so the only shared capabilities are
/// inside ThreadPool/TaskGroup (vaq::Mutex, statically checked under
/// VAQ_ENABLE_THREAD_SAFETY_ANALYSIS) and the lock-free
/// AdmissionController (common/thread_pool.h).
Status RunSearchBatch(const FloatMatrix& queries, size_t dim,
                      const SearchParams& params, size_t num_threads,
                      const BatchQueryFn& search,
                      std::vector<std::vector<Neighbor>>* results,
                      std::vector<Status>* statuses,
                      std::vector<SearchStats>* query_stats);

}  // namespace vaq

#endif  // VAQ_CORE_SEARCH_BATCH_H_
