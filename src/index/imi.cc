#include "index/imi.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_set>

#include "common/macros.h"

namespace vaq {

Status InvertedMultiIndex::Train(const FloatMatrix& data) {
  if (data.cols() < 2) {
    return Status::InvalidArgument("IMI requires at least 2 dimensions");
  }
  half_dim_ = data.cols() / 2;
  const size_t second_dim = data.cols() - half_dim_;

  const FloatMatrix first = data.SliceColumns(0, half_dim_);
  const FloatMatrix second = data.SliceColumns(half_dim_, second_dim);

  KMeansOptions kopts;
  kopts.k = options_.coarse_k;
  kopts.max_iters = options_.kmeans_iters;
  kopts.seed = options_.seed;
  VAQ_RETURN_IF_ERROR(coarse_first_.Train(first, kopts));
  kopts.seed = options_.seed + 1;
  VAQ_RETURN_IF_ERROR(coarse_second_.Train(second, kopts));

  const std::vector<uint32_t> a1 = coarse_first_.AssignAll(first);
  const std::vector<uint32_t> a2 = coarse_second_.AssignAll(second);

  // Fine PQ over the raw vectors, so one lookup table serves all cells.
  VAQ_ASSIGN_OR_RETURN(
      SubspaceLayout layout,
      SubspaceLayout::Uniform(data.cols(), options_.num_subspaces));
  CodebookOptions copts;
  copts.kmeans_iters = options_.kmeans_iters;
  copts.seed = options_.seed + 2;
  std::vector<int> bits(options_.num_subspaces,
                        static_cast<int>(options_.bits_per_subspace));
  VAQ_RETURN_IF_ERROR(books_.Train(data, layout, bits, copts));
  VAQ_ASSIGN_OR_RETURN(codes_, books_.Encode(data));

  // Populate the cell lists.
  const size_t grid = options_.coarse_k * options_.coarse_k;
  lists_.assign(grid, {});
  for (size_t r = 0; r < data.rows(); ++r) {
    lists_[a1[r] * options_.coarse_k + a2[r]].push_back(
        static_cast<uint32_t>(r));
  }
  num_rows_ = data.rows();
  return Status::OK();
}

Status InvertedMultiIndex::Search(const float* query, size_t k,
                                  std::vector<Neighbor>* out) const {
  return SearchWithBudget(query, k, 0, out);
}

Status InvertedMultiIndex::SearchWithBudget(const float* query, size_t k,
                                            size_t max_candidates,
                                            std::vector<Neighbor>* out) const {
  if (num_rows_ == 0) return Status::FailedPrecondition("IMI is not trained");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (max_candidates == 0) max_candidates = kDefaultMaxCandidates;

  const size_t kk = options_.coarse_k;
  // Distances from the query halves to both coarse dictionaries, sorted.
  std::vector<float> d1(kk), d2(kk);
  for (size_t c = 0; c < kk; ++c) {
    d1[c] = SquaredL2(query, coarse_first_.centroids().row(c), half_dim_);
    d2[c] = SquaredL2(query + half_dim_, coarse_second_.centroids().row(c),
                      coarse_second_.dim());
  }
  std::vector<size_t> o1(kk), o2(kk);
  for (size_t c = 0; c < kk; ++c) o1[c] = o2[c] = c;
  std::sort(o1.begin(), o1.end(),
            [&](size_t a, size_t b) { return d1[a] < d1[b]; });
  std::sort(o2.begin(), o2.end(),
            [&](size_t a, size_t b) { return d2[a] < d2[b]; });

  // Multi-sequence algorithm: enumerate (i, j) by increasing
  // d1[o1[i]] + d2[o2[j]].
  struct Cell {
    float cost;
    uint32_t i, j;
    bool operator>(const Cell& other) const { return cost > other.cost; }
  };
  std::priority_queue<Cell, std::vector<Cell>, std::greater<Cell>> frontier;
  std::unordered_set<uint64_t> seen;
  auto push_cell = [&](uint32_t i, uint32_t j) {
    if (i >= kk || j >= kk) return;
    const uint64_t key = (static_cast<uint64_t>(i) << 32) | j;
    if (!seen.insert(key).second) return;
    frontier.push({d1[o1[i]] + d2[o2[j]], i, j});
  };
  push_cell(0, 0);

  std::vector<float> lut;
  books_.BuildLookupTable(query, &lut);
  TopKHeap heap(k);
  size_t candidates = 0;
  while (!frontier.empty() && candidates < max_candidates) {
    const Cell cell = frontier.top();
    frontier.pop();
    const auto& list = lists_[o1[cell.i] * kk + o2[cell.j]];
    for (uint32_t id : list) {
      heap.Push(books_.AdcDistance(codes_.row(id), lut.data()),
                static_cast<int64_t>(id));
    }
    candidates += list.size();
    push_cell(cell.i + 1, cell.j);
    push_cell(cell.i, cell.j + 1);
  }

  *out = heap.TakeSorted();
  for (Neighbor& nb : *out) nb.distance = std::sqrt(std::max(0.f, nb.distance));
  return Status::OK();
}

}  // namespace vaq
