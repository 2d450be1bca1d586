#ifndef VAQ_CORE_SEARCH_DRIVER_H_
#define VAQ_CORE_SEARCH_DRIVER_H_

#include <cstddef>
#include <vector>

#include "common/deadline.h"
#include "common/matrix.h"
#include "common/status.h"
#include "common/topk.h"
#include "common/trace.h"
#include "core/scan.h"
#include "core/vaq_encoder.h"

namespace vaq {

/// Query-time pruning strategy (Figure 7's variants).
enum class SearchMode {
  kHeap,             ///< plain ADC scan into a top-k heap
  kEarlyAbandon,     ///< + subspace skipping (EA)
  kTriangleInequality  ///< + data skipping (TI) cascading into EA
};

/// A VaqIndex query: what to search for and how to prune, plus the
/// execution control (deadline, cancellation, trace) every entry point
/// shares.
struct SearchParams : QueryControl {
  size_t k = 100;
  SearchMode mode = SearchMode::kTriangleInequality;
  /// Fraction of TI clusters visited (paper evaluates 0.25 and 0.1).
  double visit_fraction = 0.25;
  /// Use only the first `num_subspaces_used` subspaces when accumulating
  /// distances (0 = all). Supports the subspace-omission study (Figure 4);
  /// TI mode requires all subspaces and falls back to EA when set.
  size_t num_subspaces_used = 0;
  /// How many subspaces to accumulate between early-abandon threshold
  /// checks (Section III-E notes checks "after every four subspaces" to
  /// amortize the branch). The blocked scan checks once per block after
  /// every `ea_check_interval` subspaces.
  size_t ea_check_interval = 4;
  /// Which blocked kernel runs the accumulation. kAuto picks the fastest
  /// one for this CPU; kScalar and kAvx2 force one, for A/B runs. All
  /// choices return bit-identical neighbors and distances; any other value
  /// fails with InvalidArgument.
  ScanKernelType kernel = ScanKernelType::kAuto;
};

/// Algorithm 4's partition ranking, for TI clusters and IVF cells alike:
/// writes the min(visit, centroids.cols()) centroids of the
/// dimension-major `centroids` (PartitionedCodes::centroids()) nearest the
/// first `centroids.rows()` dims of `projected` to `scratch->ranking` as
/// (squared distance, partition id), sorted nearest first with exact ties
/// in ascending id. The distances are the centroid kernel of `kernel`'s,
/// bit-identical to SquaredL2 on every instruction set; a bucket select
/// (DESIGN.md §7) picks the nearest. It reuses the scratch's buffers, so
/// it allocates nothing once they have grown.
void RankPartitions(const float* projected, const FloatMatrix& centroids,
                    size_t visit, ScanKernelType kernel,
                    SearchScratch* scratch);

/// The one query driver under VaqIndex and VaqIvfIndex: validate, project,
/// build the LUT, plan the visits, scan, finalize (FinalizeSearchResult)
/// and record the query's telemetry. `store` is the index's one code store.
///
/// With `visit` > 0 the query is ranked: the scan visits the `visit`
/// partitions whose centroids are nearest the projected query, nearest
/// first (RankPartitions, inside the partition_rank trace span), each a row
/// range of the store, early-abandoned over all subspaces; when the store
/// has distances (TI) each visit is scanned inside its triangle-inequality
/// window. With `visit` == 0 the scan is flat and visits every row once. A
/// flat scan that can abandon rows (SearchMode::kEarlyAbandon) first seeds
/// its threshold from the partitions nearest the query, the fewest expected
/// to hold 8k rows (ranked inside the partition_rank span), then sweeps
/// every other row in storage order; a flat kHeap scan ranks nothing and is
/// the one range [0, n). Every scan is early-abandoned; SearchMode::kHeap
/// is the one whose check interval spans all accumulated subspaces, so it
/// never abandons a row. The visit order never changes the result.
/// `params.visit_fraction` is validated here but read only by the caller
/// that chose `visit`.
///
/// Every call starts `stats` from zero and fills it, so afterwards it
/// describes this query alone. With `stats` == nullptr the driver fills a
/// record of its own; either way the record feeds the metrics registry.
Status SearchEncoded(const VaqEncoder& encoder, const PartitionedCodes& store,
                     size_t visit, const float* query,
                     const SearchParams& params, SearchScratch* scratch,
                     std::vector<Neighbor>* out, SearchStats* stats);

}  // namespace vaq

#endif  // VAQ_CORE_SEARCH_DRIVER_H_
