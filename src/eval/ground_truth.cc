#include "eval/ground_truth.h"

#include <cmath>

#include "common/thread_pool.h"

namespace vaq {

std::vector<Neighbor> BruteForceKnnSingle(const FloatMatrix& base,
                                          const float* query, size_t k) {
  TopKHeap heap(k);
  const size_t d = base.cols();
  for (size_t r = 0; r < base.rows(); ++r) {
    heap.Push(SquaredL2(query, base.row(r), d), static_cast<int64_t>(r));
  }
  std::vector<Neighbor> out = heap.TakeSorted();
  for (Neighbor& nb : out) nb.distance = std::sqrt(nb.distance);
  return out;
}

Result<std::vector<std::vector<Neighbor>>> BruteForceKnn(
    const FloatMatrix& base, const FloatMatrix& queries, size_t k,
    size_t num_threads) {
  if (base.rows() == 0) return Status::InvalidArgument("empty base set");
  if (base.cols() != queries.cols()) {
    return Status::InvalidArgument("base/query dimension mismatch");
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");

  const size_t nq = queries.rows();
  std::vector<std::vector<Neighbor>> results(nq);
  ParallelFor(nq, num_threads, [&](size_t begin, size_t end) {
    for (size_t q = begin; q < end; ++q) {
      results[q] = BruteForceKnnSingle(base, queries.row(q), k);
    }
  });
  return results;
}

}  // namespace vaq
