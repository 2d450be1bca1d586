#ifndef VAQ_QUANT_PQ_H_
#define VAQ_QUANT_PQ_H_

#include <cstdint>
#include <vector>

#include "core/codebook.h"
#include "quant/quantizer.h"

namespace vaq {

struct PqOptions {
  /// Number of subspaces m; dimensions are split uniformly.
  size_t num_subspaces = 8;
  /// Bits per subspace (uniform; the classic configuration is 8).
  size_t bits_per_subspace = 8;
  int kmeans_iters = 25;
  uint64_t seed = 42;
};

/// Product Quantization (Jegou et al., TPAMI 2011; Section II-C).
///
/// Uniform subspaces, uniform dictionary sizes, asymmetric distance
/// computation via per-subspace lookup tables, exhaustive scan of the
/// encoded database. The reference baseline every other method in this
/// library is measured against.
class ProductQuantizer : public Quantizer {
 public:
  explicit ProductQuantizer(const PqOptions& options = PqOptions())
      : options_(options) {}

  std::string name() const override { return "PQ"; }
  Status Train(const FloatMatrix& data) override;
  size_t size() const override { return codes_.rows(); }
  size_t code_bytes() const override {
    // One uint8-equivalent index per subspace at <= 8 bits; we store
    // uint16 for uniformity, so report the information-theoretic size.
    return codes_.rows() * options_.num_subspaces *
           ((options_.bits_per_subspace + 7) / 8);
  }
  Status Search(const float* query, size_t k,
                std::vector<Neighbor>* out) const override;

  /// Search using only the `num_subspaces_used` most informative
  /// subspaces (by training variance), for the subspace-omission study of
  /// Figure 4. 0 means all.
  Status SearchSubset(const float* query, size_t k, size_t num_subspaces_used,
                      std::vector<Neighbor>* out) const;

  const VariableCodebooks& codebooks() const { return books_; }
  const CodeMatrix& codes() const { return codes_; }
  /// Per-subspace share of training variance, used for subspace ranking.
  const std::vector<double>& subspace_variances() const {
    return subspace_variances_;
  }
  /// Subspace indices sorted by descending training variance.
  const std::vector<size_t>& subspace_order() const {
    return subspace_order_;
  }

  /// Mean squared reconstruction (quantization) error on the training set.
  double train_error() const { return train_error_; }

  /// Persists/restores the trained dictionaries, codes, and subspace
  /// ranking. Save writes the checksummed container format atomically;
  /// Load reads it or the legacy v0 layout (the same sections without the
  /// envelope) in one LoadSections pass and runs ValidateInvariants()
  /// either way.
  Status Save(const std::string& path) const;
  static Result<ProductQuantizer> Load(const std::string& path);

  /// Semantic consistency of the quantizer state: codebook shapes, every
  /// stored code in range, subspace ranking a true permutation.
  Status ValidateInvariants() const;

 private:
  /// OPQ is this quantizer run in a rotated space; it stores these same
  /// sections after its own rotation section.
  friend class OptimizedProductQuantizer;

  void SaveOptionsSection(std::ostream& os) const;
  Status LoadOptionsSection(std::istream& is);
  void SaveStatsSection(std::ostream& os) const;
  Status LoadStatsSection(std::istream& is);
  PqOptions options_;
  VariableCodebooks books_;
  CodeMatrix codes_;
  std::vector<double> subspace_variances_;
  std::vector<size_t> subspace_order_;
  double train_error_ = 0.0;
};

}  // namespace vaq

#endif  // VAQ_QUANT_PQ_H_
