#ifndef VAQ_CORE_VAQ_INDEX_H_
#define VAQ_CORE_VAQ_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "common/topk.h"
#include "core/codebook.h"
#include "core/scan.h"
#include "core/search_driver.h"
#include "core/subspace.h"
#include "core/ti_partition.h"
#include "core/vaq_encoder.h"

namespace vaq {

/// Variance-Aware Quantization index: the paper's end-to-end system
/// (Algorithm 5). Train() runs the shared VaqEncoder (VarPCA, subspace
/// construction, partial balancing, adaptive bit allocation,
/// variable-size dictionary learning, encoding) and builds the TI
/// partition; Search() answers k-NN queries through the shared query
/// driver with ADC plus the two skipping strategies.
class VaqIndex {
 public:
  VaqIndex() = default;

  /// Trains the index on `data` (n x d) and encodes all of it as the
  /// database. Requires n >= 2 and options.num_subspaces <= d.
  static Result<VaqIndex> Train(const FloatMatrix& data,
                                const VaqOptions& options);

  /// Encodes additional vectors and appends them to the database, then
  /// rebuilds the TI partition.
  Status Add(const FloatMatrix& data);

  size_t size() const { return ti_.rows(); }
  size_t dim() const { return encoder_.dim(); }
  size_t num_subspaces() const { return encoder_.num_subspaces(); }
  const std::vector<int>& bits_per_subspace() const {
    return encoder_.bits();
  }
  const SubspaceLayout& layout() const { return encoder_.layout(); }
  const VariableCodebooks& codebooks() const {
    return encoder_.codebooks();
  }
  /// The TI clusters, which are also the index's one code store.
  const TiPartition& ti_partition() const { return ti_; }
  const VaqOptions& options() const { return options_; }
  /// Normalized variance share of each (importance-ordered) subspace.
  const std::vector<double>& subspace_variances() const {
    return encoder_.subspace_variances();
  }
  /// Number of swaps the partial balancing step performed.
  size_t balance_swaps() const { return encoder_.balance_swaps(); }

  /// Bytes of the codes in memory, n·(m + w) (perfbench's
  /// scan.code_bytes_per_vector): one per subspace, two for each of the w
  /// subspaces wider than 8 bits (BlockedCodes). The store adds only the
  /// padding of its last 64-row block; the CODE section saves n·m·2.
  size_t code_bytes() const { return size() * ti_.codes().row_bytes(); }

  /// k-NN search for a raw (unprojected) query of length dim(). Results
  /// are ADC distance estimates (non-squared), ascending. This overload
  /// allocates a fresh SearchScratch per call.
  Status Search(const float* query, const SearchParams& params,
                std::vector<Neighbor>* out, SearchStats* stats = nullptr) const;

  /// Same, but reuses caller-owned scratch. After a warmup query the hot
  /// path performs no heap allocations: the lookup table, projection
  /// buffers, TI ordering, and top-k heap all live in `scratch`, and `out`
  /// is refilled in place.
  Status Search(const float* query, const SearchParams& params,
                SearchScratch* scratch, std::vector<Neighbor>* out,
                SearchStats* stats = nullptr) const;

  /// Batch search over the rows of `queries`. `num_threads` > 1 answers
  /// queries concurrently (each query remains single-threaded, matching
  /// the paper's per-query CPU accounting); 0 = hardware concurrency.
  Result<std::vector<std::vector<Neighbor>>> SearchBatch(
      const FloatMatrix& queries, const SearchParams& params,
      size_t num_threads = 1) const;

  /// Batch search into a caller-owned result buffer. `results` is resized
  /// to the query count; per-query vectors and per-worker scratches are
  /// reused across calls, so a steady-state serving loop that recycles
  /// `results` performs no per-query allocations after its first batch.
  ///
  /// Parallel batches run on the process-wide ThreadPool (no threads are
  /// spawned per call) behind admission control: when the global
  /// in-flight query cap would be exceeded the call fast-fails with
  /// kUnavailable before doing any work. `params.deadline` is shared by
  /// every query, bounding the whole batch; a query that fails mid-batch
  /// no longer discards the others.
  ///
  /// `statuses` (optional) receives one Status per query; when provided,
  /// the return value reports only batch-level failures (admission,
  /// shutdown) and per-query errors never mask other queries' results.
  /// When omitted, the first per-query error is returned (legacy
  /// contract). `query_stats` (optional) receives per-query SearchStats,
  /// including the truncation report for deadline-degraded queries.
  Status SearchBatchInto(const FloatMatrix& queries,
                         const SearchParams& params, size_t num_threads,
                         std::vector<std::vector<Neighbor>>* results,
                         std::vector<Status>* statuses = nullptr,
                         std::vector<SearchStats>* query_stats = nullptr)
      const;

  /// Projects a raw vector into the index's (permuted PCA) code space.
  void ProjectQuery(const float* query, std::vector<float>* projected) const;

  /// Persists the index as a versioned, checksummed container (DESIGN.md
  /// §8), staged to a temp file and renamed into place so a crash or full
  /// disk mid-save never destroys an existing index.
  Status Save(const std::string& path) const;
  /// Restores an index saved by Save (container format) or by the legacy
  /// unversioned v0 layout, which holds the same sections without the
  /// envelope; one LoadSections pass reads either. Checksums (container
  /// files) and ValidateInvariants() both gate success: a file that
  /// decodes but is semantically inconsistent is rejected with a non-OK
  /// Status.
  static Result<VaqIndex> Load(const std::string& path);

  /// Semantic consistency of the full index state: the encoder's
  /// permutation is a true permutation, bits sum to the budget, every stored
  /// code addresses an existing dictionary entry, PCA/codebook/TI
  /// dimensions mutually consistent, TI clusters partition the database.
  /// Run automatically after Load and before Save.
  Status ValidateInvariants() const {
    return ValidateInvariants(ti_.RowCodes());
  }

 private:
  void SaveOptionsSection(std::ostream& os) const;
  Status LoadOptionsSection(std::istream& is);
  /// ValidateInvariants against `codes`, the database in row order.
  Status ValidateInvariants(const CodeMatrix& codes) const;

  VaqOptions options_;
  VaqEncoder encoder_;
  /// The TI clusters over the only copy of the codes, in cluster order
  /// with no padding between clusters. A flat kHeap scan reads it start to
  /// end; a flat early-abandon scan reads the clusters nearest the query
  /// first, then the rest start to end.
  TiPartition ti_;
};

}  // namespace vaq

#endif  // VAQ_CORE_VAQ_INDEX_H_
