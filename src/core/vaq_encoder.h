#ifndef VAQ_CORE_VAQ_ENCODER_H_
#define VAQ_CORE_VAQ_ENCODER_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/codebook.h"
#include "core/subspace.h"
#include "linalg/pca.h"

namespace vaq {

/// Training-time configuration of a VaqIndex (Algorithm 5 inputs).
struct VaqOptions {
  /// Number of subspaces m.
  size_t num_subspaces = 32;
  /// Total encoding budget in bits (sum over subspaces).
  size_t total_bits = 256;
  /// C2 bounds on the per-subspace allocation (paper: 1 and 13).
  size_t min_bits = 1;
  size_t max_bits = 13;
  /// Non-uniform subspace widths via 1-D k-means over the variance profile
  /// (Section III-B "Clustering of Dimensions"); uniform widths otherwise.
  bool clustered_subspaces = false;
  /// Partial importance balancing (Algorithm 2 lines 2-9).
  bool partial_balance = true;
  /// Adaptive bit allocation (AllocateBits: log-variance water-filling,
  /// the optimum of the paper's C1-C4 MILP); false assigns total_bits/m
  /// uniformly (the PQ/OPQ regime) for ablation studies.
  bool adaptive_allocation = true;
  /// Triangle-inequality partition size (paper: 1000 clusters).
  size_t ti_clusters = 1000;
  /// Subspaces spanned by TI centroids; 0 picks the smallest prefix
  /// explaining >= 90% of the variance.
  size_t ti_prefix_subspaces = 0;
  int kmeans_iters = 25;
  uint64_t seed = 42;
  /// Threads used for the parallel training steps: codebook training (one
  /// subspace per thread at a time), data encoding, TI cluster assignment
  /// and VaqIvfIndex's coarse k-means (its assignment steps split over
  /// rows). 0 = hardware concurrency. The trained index, and so its saved
  /// bytes, do not depend on it.
  /// Query execution is always single-threaded per query, matching the
  /// paper's CPU-time reporting.
  size_t train_threads = 1;
};

/// The VAQ encoder every index family shares (Algorithms 1-3): VarPCA,
/// subspace construction, partial balancing, adaptive bit allocation and
/// variable-size dictionaries. It turns raw vectors into codes and raw
/// queries into ADC lookup tables; how the codes are partitioned and
/// scanned is up to the index that owns it.
class VaqEncoder {
 public:
  /// What Train hands back besides the trained encoder.
  struct TrainedRows {
    CodeMatrix codes;       ///< the training rows, encoded
    FloatMatrix projected;  ///< the training rows in permuted PCA space
    /// Wall time of each stage (us), for the owning index's build report.
    double pca_us = 0.0, subspace_us = 0.0, allocation_us = 0.0,
           codebook_us = 0.0, encode_us = 0.0;
  };

  /// Trains on `data` (n x d, n >= 2, options.num_subspaces <= d, every
  /// value finite) and encodes it. Each stage feeds its vaq_build_*_us_total counter
  /// (DESIGN.md §10).
  Status Train(const FloatMatrix& data, const VaqOptions& options,
               TrainedRows* rows);

  /// Encodes raw rows (n x dim(), every value finite).
  Result<CodeMatrix> Encode(const FloatMatrix& rows,
                            size_t num_threads) const;

  /// Projects a raw vector into the permuted PCA code space. `pca_space`
  /// is a work buffer; both vectors are resized to dim().
  void ProjectQuery(const float* query, std::vector<float>* pca_space,
                    std::vector<float>* projected) const;

  /// ADC lookup table of a projected query (Algorithm 4 lines 5-13).
  void BuildLut(const float* projected, std::vector<float>* lut) const {
    books_.BuildLookupTable(projected, lut);
  }

  bool trained() const { return books_.trained(); }
  size_t dim() const { return pca_.dim(); }
  size_t num_subspaces() const { return books_.num_subspaces(); }
  const std::vector<int>& bits() const { return books_.bits(); }
  const SubspaceLayout& layout() const { return books_.layout(); }
  const VariableCodebooks& codebooks() const { return books_; }
  /// Normalized variance share of each (importance-ordered) subspace.
  const std::vector<double>& subspace_variances() const {
    return subspace_variances_;
  }
  /// Number of swaps the partial balancing step performed.
  size_t balance_swaps() const { return balance_swaps_; }

  /// Encoder state is consistent (PCA fitted, permutation_ a true
  /// permutation, codebooks as wide as the PCA) and `codes` is a non-empty
  /// database every code of which addresses an existing dictionary entry.
  Status ValidateInvariants(const CodeMatrix& codes) const;

  // Persistence pieces. Each index family keeps its own section order, so
  // the encoder only writes and reads the payloads.
  void SavePca(std::ostream& os) const;
  Status LoadPca(std::istream& is);
  void SavePermutation(std::ostream& os) const;
  Status LoadPermutation(std::istream& is);
  /// Permutation, subspace variances and balance swaps.
  void SaveLayout(std::ostream& os) const;
  Status LoadLayout(std::istream& is);
  void SaveBooks(std::ostream& os) const { books_.Save(os); }
  Status LoadBooks(std::istream& is) { return books_.Load(is); }

 private:
  Result<FloatMatrix> Project(const FloatMatrix& rows) const;

  Pca pca_;
  std::vector<size_t> permutation_;  ///< layout position -> PCA component
  std::vector<double> subspace_variances_;
  size_t balance_swaps_ = 0;
  VariableCodebooks books_;  ///< also holds the subspace layout and bits
};

}  // namespace vaq

#endif  // VAQ_CORE_VAQ_ENCODER_H_
