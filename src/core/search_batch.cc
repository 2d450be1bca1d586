#include "core/search_batch.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace vaq {
namespace {

Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace

Status RunSearchBatch(const FloatMatrix& queries, size_t dim,
                      const SearchParams& params, size_t num_threads,
                      const BatchQueryFn& search,
                      std::vector<std::vector<Neighbor>>* results,
                      std::vector<Status>* statuses,
                      std::vector<SearchStats>* query_stats) {
  if (queries.cols() != dim) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  const size_t num_queries = queries.rows();
  results->resize(num_queries);
  if (query_stats != nullptr) query_stats->assign(num_queries, SearchStats{});
  SearchParams query_params = params;
  query_params.trace = nullptr;
  auto run_query = [&](size_t q, SearchScratch* scratch) {
    SearchStats* stats = query_stats != nullptr ? &(*query_stats)[q] : nullptr;
    return search(queries.row(q), query_params, scratch, &(*results)[q],
                  stats);
  };

  if (num_queries == 0) {
    if (statuses != nullptr) statuses->clear();
    return Status::OK();
  }
  num_threads = WorkerCount(num_queries, num_threads);

  if (num_threads <= 1) {
    if (statuses != nullptr) statuses->assign(num_queries, Status::OK());
    SearchScratch scratch;
    for (size_t q = 0; q < num_queries; ++q) {
      const Status st = run_query(q, &scratch);
      if (statuses != nullptr) {
        (*statuses)[q] = st;
      } else if (!st.ok()) {
        return st;
      }
    }
    return Status::OK();
  }

  // Overload shedding happens before any work is queued: a rejected batch
  // costs one atomic compare-exchange and returns immediately.
  AdmissionController::Ticket ticket =
      AdmissionController::Global().TryAdmit(num_queries);
  if (!ticket.admitted()) {
    return Status::Unavailable(
        "query admission rejected: in-flight query cap reached");
  }

  std::vector<Status> local_statuses;
  std::vector<Status>* sts = statuses;
  if (sts == nullptr) sts = &local_statuses;
  sts->assign(num_queries, Status::OK());

  ThreadPool& pool = ThreadPool::Shared();
  TaskGroup group;
  const size_t chunk = (num_queries + num_threads - 1) / num_threads;
  for (size_t t = 0; t < num_threads; ++t) {
    const size_t begin = t * chunk;
    const size_t end = std::min(num_queries, begin + chunk);
    if (begin >= end) break;
    group.Add();
    const Status submitted = pool.Submit([&run_query, sts, begin, end,
                                          &group] {
      // Each chunk owns its scratch; status slots are disjoint per chunk,
      // so no synchronization is needed to write them.
      size_t q = begin;
      try {
        SearchScratch scratch;
        for (; q < end; ++q) {
          (*sts)[q] = run_query(q, &scratch);
        }
      } catch (...) {
        for (; q < end; ++q) {
          (*sts)[q] = Status::Internal(
              "batch worker raised an exception; chunk abandoned");
        }
      }
      group.Done();
    });
    if (!submitted.ok()) {
      // Pool is shutting down; fail this chunk's queries and keep going
      // so already-submitted chunks still complete and report.
      for (size_t q = begin; q < end; ++q) (*sts)[q] = submitted;
      group.Done();
    }
  }
  group.Wait();
  if (statuses == nullptr) return FirstError(local_statuses);
  return Status::OK();
}

}  // namespace vaq
