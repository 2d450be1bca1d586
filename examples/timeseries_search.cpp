// Time-series similarity search: seismic-style recordings, the second
// workload family of the paper (SEISMIC/SALD/ASTRO). Demonstrates the
// query-time pruning cascade (Figure 7's Heap / EA / TI+EA variants) and
// reports how much work each strategy skips.
//
// Run: ./build/examples/timeseries_search

#include <cstdio>

#include "common/timer.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

int main() {
  using namespace vaq;

  constexpr size_t kBase = 20000;
  constexpr size_t kQueries = 30;
  constexpr size_t kK = 50;

  std::printf("Generating %zu seismic-like recordings (256 samples)...\n",
              kBase);
  const FloatMatrix base =
      GenerateSynthetic(SyntheticKind::kSeismicLike, kBase, 21);
  const FloatMatrix queries =
      GenerateSyntheticQueries(SyntheticKind::kSeismicLike, kQueries, 21,
                               /*noise=*/0.1);

  VaqOptions opts;
  opts.num_subspaces = 16;
  opts.total_bits = 128;
  opts.ti_clusters = 400;
  auto index = VaqIndex::Train(base, opts);
  if (!index.ok()) {
    std::fprintf(stderr, "train: %s\n", index.status().ToString().c_str());
    return 1;
  }

  auto exact = BruteForceKnn(base, queries, kK);
  if (!exact.ok()) {
    std::fprintf(stderr, "ground truth: %s\n",
                 exact.status().ToString().c_str());
    return 1;
  }

  struct Variant {
    const char* name;
    SearchMode mode;
    double visit;
  };
  const Variant variants[] = {
      {"Heap", SearchMode::kHeap, 1.0},
      {"EA", SearchMode::kEarlyAbandon, 1.0},
      {"TI+EA-0.25", SearchMode::kTriangleInequality, 0.25},
      {"TI+EA-0.10", SearchMode::kTriangleInequality, 0.10},
  };

  std::printf("\n%-12s %10s %12s %14s %14s\n", "strategy", "recall",
              "query(ms)", "codes visited", "lut adds");
  double heap_ms = 0.0;
  for (const Variant& v : variants) {
    SearchParams params;
    params.k = kK;
    params.mode = v.mode;
    params.visit_fraction = v.visit;

    size_t visited = 0, lut_adds = 0;
    std::vector<std::vector<Neighbor>> results(kQueries);
    CpuTimer timer;
    for (size_t q = 0; q < kQueries; ++q) {
      SearchStats stats;
      const Status st =
          index->Search(queries.row(q), params, &results[q], &stats);
      if (!st.ok()) {
        std::fprintf(stderr, "%s search: %s\n", v.name,
                     st.ToString().c_str());
        return 1;
      }
      visited += stats.codes_visited;
      lut_adds += stats.lut_adds;
    }
    const double ms = timer.ElapsedMillis() / kQueries;
    if (v.mode == SearchMode::kHeap) heap_ms = ms;
    std::printf("%-12s %10.3f %12.3f %14zu %14zu", v.name,
                Recall(results, *exact, kK), ms, visited / kQueries,
                lut_adds / kQueries);
    if (v.mode != SearchMode::kHeap && ms > 0) {
      std::printf("   (%.1fx vs Heap)", heap_ms / ms);
    }
    std::printf("\n");
  }

  std::printf("\nNote: TI+EA changes *work*, not answers, until clusters are"
              " skipped;\nvisit=1.0 is provably identical to the plain "
              "scan.\n");
  return 0;
}
