// External data pipeline: demonstrates running VAQ on vectors stored in
// the TEXMEX .fvecs format (how the real SIFT/DEEP corpora ship). The
// example writes a synthetic corpus to /tmp as .fvecs, then loads it back
// and builds both the scan index (VaqIndex) and the IVF index
// (VaqIvfIndex) from the files — exactly the flow for real datasets.
//
// Run: ./build/examples/external_data [base.fvecs query.fvecs]

#include <cstdio>
#include <string>

#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "datasets/vector_io.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/vaq_ivf.h"

int main(int argc, char** argv) {
  using namespace vaq;

  std::string base_path, query_path;
  bool cleanup = false;
  if (argc >= 3) {
    base_path = argv[1];
    query_path = argv[2];
  } else {
    // No files supplied: materialize a synthetic corpus in .fvecs form.
    base_path = "/tmp/vaq_example_base.fvecs";
    query_path = "/tmp/vaq_example_query.fvecs";
    cleanup = true;
    std::printf("No input files given; writing a synthetic corpus to %s\n",
                base_path.c_str());
    const FloatMatrix base =
        GenerateSynthetic(SyntheticKind::kSiftLike, 10000, 99);
    const FloatMatrix queries =
        GenerateSyntheticQueries(SyntheticKind::kSiftLike, 20, 99);
    if (!WriteFvecs(base_path, base).ok() ||
        !WriteFvecs(query_path, queries).ok()) {
      std::fprintf(stderr, "failed to write example fvecs files\n");
      return 1;
    }
  }

  auto base = ReadFvecs(base_path);
  auto queries = ReadFvecs(query_path);
  if (!base.ok() || !queries.ok()) {
    std::fprintf(stderr, "load failed: %s / %s\n",
                 base.status().ToString().c_str(),
                 queries.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu base vectors and %zu queries (%zu dims)\n",
              base->rows(), queries->rows(), base->cols());

  auto gt = BruteForceKnn(*base, *queries, 10);
  if (!gt.ok()) {
    std::fprintf(stderr, "ground truth: %s\n", gt.status().ToString().c_str());
    return 1;
  }

  // Scan index with TI skipping.
  VaqOptions opts;
  opts.num_subspaces = 16;
  opts.total_bits = 128;
  opts.ti_clusters = 256;
  auto index = VaqIndex::Train(*base, opts);
  if (!index.ok()) {
    std::fprintf(stderr, "train: %s\n", index.status().ToString().c_str());
    return 1;
  }
  SearchParams params;
  params.k = 10;
  params.visit_fraction = 0.25;
  auto scan_results = index->SearchBatch(*queries, params);
  if (!scan_results.ok()) {
    std::fprintf(stderr, "search: %s\n",
                 scan_results.status().ToString().c_str());
    return 1;
  }
  std::printf("VaqIndex   (TI visit 0.25): Recall@10 = %.3f\n",
              Recall(*scan_results, *gt, 10));

  // IVF index over the same primitives.
  VaqIvfOptions iopts;
  iopts.vaq = opts;
  iopts.coarse_k = 128;
  auto ivf = VaqIvfIndex::Train(*base, iopts);
  if (!ivf.ok()) {
    std::fprintf(stderr, "ivf train: %s\n", ivf.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<Neighbor>> ivf_results(queries->rows());
  for (size_t q = 0; q < queries->rows(); ++q) {
    const Status st =
        ivf->Search(queries->row(q), 10, /*nprobe=*/16, &ivf_results[q]);
    if (!st.ok()) {
      std::fprintf(stderr, "ivf search: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("VaqIvfIndex (nprobe 16)   : Recall@10 = %.3f\n",
              Recall(ivf_results, *gt, 10));

  if (cleanup) {
    std::remove(base_path.c_str());
    std::remove(query_path.c_str());
  }
  return 0;
}
