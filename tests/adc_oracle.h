// Exact ADC top-k oracle for the query driver's tests.
//
// It states what a query must return, not how the scan finds it: the k
// smallest (squared ADC distance, row id) pairs over the rows the query
// is allowed to see, with no early abandoning, no TI window and no block
// structure. Each row's distance sums the lookup-table entries of
// subspaces [0, s_limit) from 0.f in ascending subspace order, then takes
// the square root, as every scan kernel and FinalizeSearchResult do, so a
// correct scan matches it bit for bit.
//
// The rows a query may see:
//   - a flat query (kHeap, kEarlyAbandon, or kTriangleInequality with a
//     subspace prefix): every row, over the prefix's subspaces;
//   - a ranked query (TI clusters, IVF cells): the members of the `visit`
//     partitions whose centroids are nearest the query by (SquaredL2, id),
//     as RankPartitions must pick them, over every subspace.

#ifndef VAQ_TESTS_ADC_ORACLE_H_
#define VAQ_TESTS_ADC_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/topk.h"
#include "core/codebook.h"
#include "core/scan.h"
#include "core/search_driver.h"
#include "core/vaq_index.h"
#include "linalg/ops.h"

namespace vaq {

/// The oracle of SearchEncoded(encoder, store, visit, query, params) for an
/// encoder with `books`, given the query projected into code space: the
/// exact top-k sorted by (distance, id), with distances non-squared. Fewer
/// than k visible rows give all of them.
inline std::vector<Neighbor> OracleSearch(const VariableCodebooks& books,
                                          const float* projected,
                                          const PartitionedCodes& store,
                                          size_t visit,
                                          const SearchParams& params) {
  const size_t m = books.num_subspaces();
  const Partitioning& parts = store.members();
  std::vector<size_t> partitions;
  size_t s_limit = m;
  if (visit != 0) {
    // Every centroid's SquaredL2, sorted by (distance, id), cut at visit.
    const FloatMatrix centroids = Transpose(store.centroids());
    std::vector<Neighbor> ranking;
    for (size_t c = 0; c < centroids.rows(); ++c) {
      ranking.push_back(
          {SquaredL2(projected, centroids.row(c), centroids.cols()),
           static_cast<int64_t>(c)});
    }
    std::sort(ranking.begin(), ranking.end());
    ranking.resize(std::min(visit, ranking.size()));
    for (const Neighbor& r : ranking) {
      partitions.push_back(static_cast<size_t>(r.id));
    }
  } else {
    for (size_t p = 0; p < parts.size(); ++p) partitions.push_back(p);
    if (params.num_subspaces_used != 0) {
      s_limit = std::min(params.num_subspaces_used, m);
    }
  }

  std::vector<float> lut;
  books.BuildLookupTable(projected, &lut);
  std::vector<uint16_t> code(m);
  std::vector<Neighbor> all;
  for (const size_t p : partitions) {
    for (size_t row = parts.begin(p); row < parts.end(p); ++row) {
      store.codes().ReadRow(row, code.data());
      float acc = 0.f;
      for (size_t s = 0; s < s_limit; ++s) {
        acc += lut[books.lut_offset(s) + code[s]];
      }
      all.push_back({acc, parts.ids[row]});
    }
  }
  // Ordered by squared distance: two sums can round to one square root.
  const size_t keep = std::min(params.k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end());
  all.resize(keep);
  for (Neighbor& nb : all) nb.distance = std::sqrt(std::max(0.f, nb.distance));
  return all;
}

/// The oracle of VaqIndex::Search: a TI query with every subspace sees the
/// ceil(visit_fraction · C) nearest TI clusters; any other query is flat.
inline std::vector<Neighbor> OracleSearch(const VaqIndex& index,
                                          const float* query,
                                          const SearchParams& params) {
  std::vector<float> projected;
  index.ProjectQuery(query, &projected);
  const TiPartition& ti = index.ti_partition();
  const bool ranked = params.mode == SearchMode::kTriangleInequality &&
                      (params.num_subspaces_used == 0 ||
                       params.num_subspaces_used >= index.num_subspaces());
  const auto visit = static_cast<size_t>(std::ceil(
      params.visit_fraction * static_cast<double>(ti.num_partitions())));
  return OracleSearch(index.codebooks(), projected.data(), ti,
                      ranked ? visit : 0, params);
}

}  // namespace vaq

#endif  // VAQ_TESTS_ADC_ORACLE_H_
