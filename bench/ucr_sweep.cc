#include "ucr_sweep.h"

#include <algorithm>
#include <cstdio>

#include "core/vaq_index.h"
#include "datasets/ucr_like.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "quant/bolt.h"
#include "quant/opq.h"
#include "quant/pq.h"

namespace vaq::bench {
namespace {

struct Scores {
  double recall5, recall10, map5, map10;
};

Scores Evaluate(const std::vector<std::vector<Neighbor>>& results,
                const std::vector<std::vector<Neighbor>>& gt) {
  return {Recall(results, gt, 5), Recall(results, gt, 10),
          MeanAveragePrecision(results, gt, 5),
          MeanAveragePrecision(results, gt, 10)};
}

}  // namespace

UcrScores RunUcrSweep(size_t num_datasets,
                      const std::vector<UcrConfig>& configs,
                      size_t max_queries, bool verbose) {
  UcrScores out;
  for (const UcrConfig& config : configs) {
    const std::string suffix = '-' + std::to_string(config.budget);
    out.method_names.push_back("Bolt" + suffix);
    out.method_names.push_back("PQ" + suffix);
    out.method_names.push_back("OPQ" + suffix);
    out.method_names.push_back("VAQ" + suffix);
  }
  const size_t num_methods = out.method_names.size();
  out.recall5.Resize(num_datasets, num_methods);
  out.recall10.Resize(num_datasets, num_methods);
  out.map5.Resize(num_datasets, num_methods);
  out.map10.Resize(num_datasets, num_methods);

  UcrArchiveGenerator generator(2022);
  for (size_t d = 0; d < num_datasets; ++d) {
    UcrLikeDataset dataset = generator.Generate(d);
    out.dataset_names.push_back(dataset.name);
    // Cap the query set for runtime.
    if (dataset.test.rows() > max_queries) {
      std::vector<size_t> head(max_queries);
      for (size_t i = 0; i < max_queries; ++i) head[i] = i;
      dataset.test = dataset.test.GatherRows(head);
    }
    auto gt = BruteForceKnn(dataset.train, dataset.test, 10, 0);
    VAQ_CHECK(gt.ok());

    size_t column = 0;
    for (const UcrConfig& config : configs) {
      const size_t dim = dataset.train.cols();
      // Clamp segment counts for short series so every method stays valid.
      const size_t segments = std::min(config.segments, dim);
      const size_t bolt_subspaces = std::min(config.budget / 4, dim);

      auto record = [&](size_t col, const Scores& s) {
        out.recall5(d, col) = s.recall5;
        out.recall10(d, col) = s.recall10;
        out.map5(d, col) = s.map5;
        out.map10(d, col) = s.map10;
      };

      {
        BoltOptions opts;
        opts.num_subspaces = bolt_subspaces;
        opts.kmeans_iters = 15;
        BoltQuantizer bolt(opts);
        VAQ_CHECK(bolt.Train(dataset.train).ok());
        auto results = bolt.SearchBatch(dataset.test, 10);
        VAQ_CHECK(results.ok());
        record(column++, Evaluate(*results, *gt));
      }
      {
        PqOptions opts;
        opts.num_subspaces = segments;
        opts.bits_per_subspace = config.budget / segments;
        opts.kmeans_iters = 15;
        ProductQuantizer pq(opts);
        VAQ_CHECK(pq.Train(dataset.train).ok());
        auto results = pq.SearchBatch(dataset.test, 10);
        VAQ_CHECK(results.ok());
        record(column++, Evaluate(*results, *gt));
      }
      {
        OpqOptions opts;
        opts.num_subspaces = segments;
        opts.bits_per_subspace = config.budget / segments;
        opts.refine_iters = 1;
        opts.kmeans_iters = 15;
        OptimizedProductQuantizer opq(opts);
        VAQ_CHECK(opq.Train(dataset.train).ok());
        auto results = opq.SearchBatch(dataset.test, 10);
        VAQ_CHECK(results.ok());
        record(column++, Evaluate(*results, *gt));
      }
      {
        VaqOptions opts;
        opts.num_subspaces = segments;
        opts.total_bits = config.budget;
        opts.min_bits = 1;
        opts.max_bits = 13;
        opts.ti_clusters = 100;
        opts.kmeans_iters = 15;
        auto index = VaqIndex::Train(dataset.train, opts);
        VAQ_CHECK(index.ok());
        SearchParams params;
        params.k = 10;
        params.mode = SearchMode::kHeap;  // accuracy comparison
        auto results = index->SearchBatch(dataset.test, params);
        VAQ_CHECK(results.ok());
        record(column++, Evaluate(*results, *gt));
      }
    }
    if (verbose && ((d + 1) % 16 == 0 || d + 1 == num_datasets)) {
      std::fprintf(stderr, "  ... %zu/%zu datasets done\n", d + 1,
                   num_datasets);
    }
  }
  return out;
}

}  // namespace vaq::bench
