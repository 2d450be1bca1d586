#ifndef VAQ_QUANT_OPQ_H_
#define VAQ_QUANT_OPQ_H_

#include <cstdint>
#include <vector>

#include "core/codebook.h"
#include "quant/quantizer.h"

namespace vaq {

struct OpqOptions {
  size_t num_subspaces = 8;
  size_t bits_per_subspace = 8;
  /// Non-parametric refinement iterations (alternating Procrustes rotation
  /// updates and codebook retraining) on top of the parametric
  /// initialization. 0 keeps the pure parametric solution.
  int refine_iters = 4;
  int kmeans_iters = 25;
  uint64_t seed = 42;
  bool center = true;
};

/// Optimized Product Quantization (Ge et al., CVPR 2013; Section II-C).
///
/// Parametric solution: PCA followed by *eigenvalue allocation* — greedy
/// assignment of principal components to subspaces balancing the product
/// of eigenvalues, which balances subspace importance so uniform
/// dictionary sizes become appropriate. Optionally refined with the
/// non-parametric alternating optimization (encode, then solve the
/// orthogonal Procrustes problem for a better rotation).
class OptimizedProductQuantizer : public Quantizer {
 public:
  explicit OptimizedProductQuantizer(const OpqOptions& options = OpqOptions())
      : options_(options) {}

  std::string name() const override { return "OPQ"; }
  Status Train(const FloatMatrix& data) override;
  size_t size() const override { return codes_.rows(); }
  size_t code_bytes() const override {
    return codes_.rows() * options_.num_subspaces *
           ((options_.bits_per_subspace + 7) / 8);
  }
  Status Search(const float* query, size_t k,
                std::vector<Neighbor>* out) const override;

  /// Subspace-omission variant (Figure 4); subspaces ranked by rotated
  /// training variance. 0 means all.
  Status SearchSubset(const float* query, size_t k, size_t num_subspaces_used,
                      std::vector<Neighbor>* out) const;

  const VariableCodebooks& codebooks() const { return books_; }
  /// Learned (d x d) rotation applied to centered data before encoding.
  const FloatMatrix& rotation() const { return rotation_; }
  /// Applies the learned centering + rotation to a raw vector (used to
  /// compose OPQ's space with other indexes, e.g. IMI+OPQ).
  void Project(const float* x, float* out) const { RotateRow(x, out); }
  const std::vector<double>& subspace_variances() const {
    return subspace_variances_;
  }
  const std::vector<size_t>& subspace_order() const {
    return subspace_order_;
  }
  double train_error() const { return train_error_; }

  /// Persists/restores the learned rotation, dictionaries, and codes.
  /// Save writes the checksummed container format atomically; Load reads
  /// it or the legacy v0 layout (the same sections without the envelope)
  /// in one LoadSections pass and runs ValidateInvariants().
  Status Save(const std::string& path) const;
  static Result<OptimizedProductQuantizer> Load(const std::string& path);

  /// Semantic consistency: rotation square and finite, codebook shapes,
  /// every stored code in range, subspace ranking a true permutation.
  Status ValidateInvariants() const;

 private:
  void RotateRow(const float* x, float* out) const;
  void SaveOptionsSection(std::ostream& os) const;
  Status LoadOptionsSection(std::istream& is);
  void SaveRotationSection(std::ostream& os) const;
  Status LoadRotationSection(std::istream& is);
  void SaveStatsSection(std::ostream& os) const;
  Status LoadStatsSection(std::istream& is);

  OpqOptions options_;
  std::vector<float> means_;
  FloatMatrix rotation_;
  VariableCodebooks books_;
  CodeMatrix codes_;
  std::vector<double> subspace_variances_;
  std::vector<size_t> subspace_order_;
  double train_error_ = 0.0;
};

}  // namespace vaq

#endif  // VAQ_QUANT_OPQ_H_
