#ifndef VAQ_INDEX_IMI_H_
#define VAQ_INDEX_IMI_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "clustering/kmeans.h"
#include "core/codebook.h"
#include "quant/quantizer.h"

namespace vaq {

struct ImiOptions {
  /// Cells per coarse block; the grid has coarse_k^2 cells.
  size_t coarse_k = 128;
  /// Fine PQ configuration for the stored codes.
  size_t num_subspaces = 8;
  size_t bits_per_subspace = 8;
  int kmeans_iters = 20;
  uint64_t seed = 42;
};

/// Inverted Multi-Index (Babenko & Lempitsky, CVPR 2012) — the indexing
/// baseline over PQ/OPQ codes of Figure 11 (IMI+OPQ variants).
///
/// The dimensions are split into two halves, each coarse-quantized with
/// k-means; every vector lands in the cell (i, j) of its two nearest
/// coarse centroids. Queries enumerate cells in increasing
/// d(q1, u_i) + d(q2, v_j) with the multi-sequence algorithm, pull
/// candidates until the budget is met, and rank them with ADC over the
/// fine PQ codes. Like the original, it trades recall for speed: fewer
/// candidates = faster but misses neighbors that fell into far cells.
///
/// (Substitution note: the original encodes residuals w.r.t. cell
/// centroids; we encode the raw vectors with a shared PQ so a single
/// lookup table serves all cells. The speed/recall trade-off behaviour —
/// what Figure 11 exercises — is preserved; see DESIGN.md §4.)
class InvertedMultiIndex : public Quantizer {
 public:
  explicit InvertedMultiIndex(const ImiOptions& options = ImiOptions())
      : options_(options) {}

  std::string name() const override { return "IMI+PQ"; }
  Status Train(const FloatMatrix& data) override;
  size_t size() const override { return num_rows_; }
  size_t code_bytes() const override {
    return num_rows_ * (options_.num_subspaces *
                            ((options_.bits_per_subspace + 7) / 8) +
                        2 * sizeof(uint16_t));
  }
  Status Search(const float* query, size_t k,
                std::vector<Neighbor>* out) const override;

  /// Search with an explicit candidate budget: the number of candidates
  /// pulled from the nearest cells before the ADC ranking (the index's
  /// speed/recall knob). 0 means 10000.
  Status SearchWithBudget(const float* query, size_t k,
                          size_t max_candidates,
                          std::vector<Neighbor>* out) const;

 private:
  static constexpr size_t kDefaultMaxCandidates = 10000;

  ImiOptions options_;
  size_t half_dim_ = 0;
  KMeans coarse_first_;
  KMeans coarse_second_;
  VariableCodebooks books_;
  CodeMatrix codes_;
  /// lists_[i * coarse_k + j] = row ids in cell (i, j).
  std::vector<std::vector<uint32_t>> lists_;
  size_t num_rows_ = 0;
};

}  // namespace vaq

#endif  // VAQ_INDEX_IMI_H_
