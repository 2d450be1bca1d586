#ifndef VAQ_QUANT_OPQ_H_
#define VAQ_QUANT_OPQ_H_

#include <cstdint>
#include <vector>

#include "linalg/ops.h"
#include "quant/pq.h"

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
};

/// Optimized Product Quantization (Ge et al., CVPR 2013; Section II-C):
/// PQ run after a learned orthogonal rotation.
///
/// The rotation starts from the parametric solution, PCA followed by
/// *eigenvalue allocation* — greedy assignment of principal components to
/// subspaces balancing the product of eigenvalues, which balances subspace
/// importance so uniform dictionary sizes become appropriate. It is then
/// refined with the non-parametric alternating optimization (encode, then
/// solve the orthogonal Procrustes problem for a better rotation). The
/// codes, dictionaries and search are a ProductQuantizer's, trained on and
/// queried in the rotated space.
class OptimizedProductQuantizer : public Quantizer {
 public:
  explicit OptimizedProductQuantizer(const OpqOptions& options = OpqOptions())
      : options_(options) {}

  std::string name() const override { return "OPQ"; }
  Status Train(const FloatMatrix& data) override;
  size_t size() const override { return pq_.size(); }
  size_t code_bytes() const override { return pq_.code_bytes(); }
  Status Search(const float* query, size_t k,
                std::vector<Neighbor>* out) const override;

  /// Subspace-omission variant (Figure 4); subspaces ranked by rotated
  /// training variance. 0 means all.
  Status SearchSubset(const float* query, size_t k, size_t num_subspaces_used,
                      std::vector<Neighbor>* out) const;

  const VariableCodebooks& codebooks() const { return pq_.codebooks(); }
  /// Learned (d x d) rotation applied to centered data before encoding.
  const FloatMatrix& rotation() const { return rotation_; }
  /// Applies the learned centering + rotation to a raw vector (used to
  /// compose OPQ's space with other indexes, e.g. IMI+OPQ).
  void Project(const float* x, float* out) const {
    RowTimesMatrix(x, rotation_, out, means_.data());
  }
  const std::vector<double>& subspace_variances() const {
    return pq_.subspace_variances();
  }
  const std::vector<size_t>& subspace_order() const {
    return pq_.subspace_order();
  }
  double train_error() const { return pq_.train_error(); }

  /// Persists/restores the learned rotation, dictionaries, and codes.
  /// Save writes the checksummed container format atomically; Load reads
  /// it or the legacy v0 layout (the same sections without the envelope)
  /// in one LoadSections pass and runs ValidateInvariants().
  Status Save(const std::string& path) const;
  static Result<OptimizedProductQuantizer> Load(const std::string& path);

  /// Semantic consistency: the rotated-space PQ's invariants, plus the
  /// rotation square in the codebook dimension and finite.
  Status ValidateInvariants() const;

 private:
  /// The options the rotated-space PQ is trained with: the final
  /// dictionaries take the seed after the last refinement iteration's.
  PqOptions pq_options() const {
    return PqOptions{options_.num_subspaces, options_.bits_per_subspace,
                     options_.kmeans_iters,
                     options_.seed + options_.refine_iters};
  }
  void SaveOptionsSection(std::ostream& os) const;
  Status LoadOptionsSection(std::istream& is);
  void SaveRotationSection(std::ostream& os) const;
  Status LoadRotationSection(std::istream& is);

  OpqOptions options_;
  std::vector<float> means_;
  FloatMatrix rotation_;
  ProductQuantizer pq_;
};

}  // namespace vaq

#endif  // VAQ_QUANT_OPQ_H_
