#ifndef VAQ_INDEX_VAQ_IVF_H_
#define VAQ_INDEX_VAQ_IVF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/vaq_index.h"

namespace vaq {

struct VaqIvfOptions {
  /// Underlying VAQ encoder configuration (its TI partition is replaced by
  /// the IVF lists, so ti_clusters and ti_prefix_subspaces are ignored).
  VaqOptions vaq;
  /// Number of coarse k-means partitions (inverted lists).
  size_t coarse_k = 256;
  /// Default number of lists probed per query (>= 1).
  size_t default_nprobe = 8;
  /// ADC scan implementation for the in-list scans (shared with VaqIndex;
  /// see ScanKernelType). All choices return identical results; Train
  /// rejects a value outside the enum. It is not saved, so Load restores
  /// kAuto.
  ScanKernelType scan_kernel = ScanKernelType::kAuto;
};

/// Inverted-file index over VAQ primitives — the "new index for
/// quantization methods" the paper's conclusion calls for (Sections V-B/E
/// show random-sample TI partitions already rival tree indexes; this
/// replaces them with trained coarse k-means partitions in the projected
/// space, the IVF pattern). Encoding and scanning are VaqIndex's: the same
/// VaqEncoder and the same query driver, with early abandoning inside each
/// list. Only the coarse cells and their ranking are IVF's own.
class VaqIvfIndex {
 public:
  VaqIvfIndex() = default;

  static Result<VaqIvfIndex> Train(const FloatMatrix& data,
                                   const VaqIvfOptions& options);

  size_t size() const { return lists_.rows(); }
  size_t dim() const { return encoder_.dim(); }
  size_t coarse_k() const { return lists_.num_partitions(); }
  const std::vector<int>& bits_per_subspace() const {
    return encoder_.bits();
  }

  /// k-NN over the `nprobe` nearest lists (0 = the configured default;
  /// nprobe >= coarse_k degenerates to a full early-abandoned scan).
  Status Search(const float* query, size_t k, size_t nprobe,
                std::vector<Neighbor>* out,
                SearchStats* stats = nullptr) const;

  /// Same, but reuses caller-owned scratch for an allocation-free
  /// steady-state query path (see VaqIndex::Search).
  Status Search(const float* query, size_t k, size_t nprobe,
                SearchScratch* scratch, std::vector<Neighbor>* out,
                SearchStats* stats = nullptr) const;

  /// Deadline-aware / cancellable variant: the budget and token in
  /// `control` are checked between coarse cells and between 64-row blocks
  /// inside each probed list, with the same degrade-vs-strict semantics
  /// as VaqIndex (DESIGN.md §9).
  Status Search(const float* query, size_t k, size_t nprobe,
                const QueryControl& control, SearchScratch* scratch,
                std::vector<Neighbor>* out,
                SearchStats* stats = nullptr) const;

  /// Batch search on the process-wide ThreadPool behind admission
  /// control; mirrors VaqIndex::SearchBatchInto (fast-fail kUnavailable
  /// on overload, shared batch deadline, per-query statuses).
  Status SearchBatchInto(const FloatMatrix& queries, size_t k, size_t nprobe,
                         const QueryControl& control, size_t num_threads,
                         std::vector<std::vector<Neighbor>>* results,
                         std::vector<Status>* statuses = nullptr,
                         std::vector<SearchStats>* query_stats = nullptr)
      const;

  /// Persists the index as a versioned, checksummed container, staged to
  /// a temp file and renamed into place (crash-safe; see DESIGN.md §8).
  Status Save(const std::string& path) const;
  /// Restores a container or legacy v0 index (the same sections without
  /// the envelope) in one LoadSections pass, then runs
  /// ValidateInvariants() before any scan structure is built.
  static Result<VaqIvfIndex> Load(const std::string& path);

  /// Semantic consistency: permutation, codebook/code agreement, coarse
  /// centroid shape, a default nprobe of at least 1, and the inverted
  /// lists covering every row exactly once.
  Status ValidateInvariants() const {
    return ValidateInvariants(lists_.RowCodes());
  }

 private:
  void SaveOptionsSection(std::ostream& os) const;
  Status LoadOptionsSection(std::istream& is);
  /// ValidateInvariants against `codes`, the database in row order.
  Status ValidateInvariants(const CodeMatrix& codes) const;
  /// `nprobe`, or the configured default for 0.
  size_t Probes(size_t nprobe) const {
    return nprobe != 0 ? nprobe : options_.default_nprobe;
  }

  VaqIvfOptions options_;
  VaqEncoder encoder_;
  /// The inverted lists, each in ascending row id, with their coarse
  /// centroids in the projected space, over the only copy of the codes:
  /// list after list with no padding between.
  PartitionedCodes lists_;
};

}  // namespace vaq

#endif  // VAQ_INDEX_VAQ_IVF_H_
