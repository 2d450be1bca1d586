#ifndef VAQ_CORE_CODEBOOK_H_
#define VAQ_CORE_CODEBOOK_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/subspace.h"

namespace vaq {

struct CodebookOptions {
  int kmeans_iters = 25;
  uint64_t seed = 42;
};

/// Per-subspace dictionaries of *variable* sizes (Section III-D) plus the
/// encode/decode and lookup-table machinery shared by the query engine.
///
/// Dictionary i holds 2^bits[i] centroids of the subspace's width, stored
/// dimension-major (DESIGN.md §7.1) so that one kernel call computes a
/// sub-vector's distance to 8 centroids per SIMD vector. Encoded vectors
/// store one uint16 dictionary index per subspace.
class VariableCodebooks {
 public:
  VariableCodebooks() = default;

  /// Trains one k-means dictionary per subspace of `projected`
  /// (n x layout.dim(), already PCA-projected and permuted). `bits[i]` in
  /// [1, 16]. `num_threads` > 1 trains that many subspaces at a time (0
  /// picks the hardware concurrency); the dictionaries do not depend on
  /// it.
  Status Train(const FloatMatrix& projected, const SubspaceLayout& layout,
               const std::vector<int>& bits, const CodebookOptions& options,
               size_t num_threads = 1);

  bool trained() const { return trained_; }
  size_t num_subspaces() const { return layout_.num_subspaces(); }
  size_t dim() const { return layout_.dim(); }
  const SubspaceLayout& layout() const { return layout_; }
  const std::vector<int>& bits() const { return bits_; }

  /// Dictionary for subspace s, dimension-major:
  /// (span(s).length x 2^bits[s]). Column c is centroid c, so
  /// dictionary(s)(j, c) is its j-th dimension.
  const FloatMatrix& dictionary(size_t s) const { return dictionaries_[s]; }

  /// Encodes every row of `data` (n x dim()). `num_threads` > 1 splits the
  /// rows across std::thread workers (encoding is embarrassingly
  /// parallel); 0 picks the hardware concurrency.
  Result<CodeMatrix> Encode(const FloatMatrix& data,
                            size_t num_threads = 1) const;

  /// Encodes a single vector (length dim()) into `code` (num_subspaces()):
  /// per subspace, the lowest index among the nearest dictionary items.
  /// Allocation-free.
  void EncodeRow(const float* x, uint16_t* code) const;

  /// Reconstructs the vector represented by `code` into `out`
  /// (length dim()).
  void DecodeRow(const uint16_t* code, float* out) const;

  /// Total number of lookup-table entries (sum of dictionary sizes).
  size_t lut_entries() const { return lut_entries_; }

  /// Start of subspace s's block inside a flat lookup table.
  size_t lut_offset(size_t s) const { return lut_offsets_[s]; }
  /// The num_subspaces() starts, as the scan kernels read them.
  const uint32_t* lut_offsets() const { return lut_offsets_.data(); }

  /// Fills `lut` (resized to lut_entries()) with squared distances from the
  /// query's subvectors to every dictionary item — the ADC table of
  /// Algorithm 4 lines 5-13.
  void BuildLookupTable(const float* query, std::vector<float>* lut) const;

  /// Same as BuildLookupTable but only for the first `prefix_subspaces`
  /// subspaces: `lut` is resized to prefix_lut_entries(prefix_subspaces),
  /// the leading entries of the full table, and `prefix` holds the leading
  /// prefix dims of a projected vector. Used by the triangle-inequality
  /// partitioner, which assigns codes to clusters on the scan kernel.
  void BuildPrefixLookupTable(const float* prefix, size_t prefix_subspaces,
                              std::vector<float>* lut) const;

  /// Entries of the first `prefix_subspaces` subspaces' tables:
  /// lut_offset(prefix_subspaces), or lut_entries() for all of them.
  size_t prefix_lut_entries(size_t prefix_subspaces) const {
    return prefix_subspaces < lut_offsets_.size()
               ? lut_offsets_[prefix_subspaces]
               : lut_entries_;
  }

  /// Full ADC accumulation over all subspaces (squared distance).
  float AdcDistance(const uint16_t* code, const float* lut) const;

  /// Mean squared reconstruction error of `data` under the codebooks
  /// (the quantization error of Eq. 2, averaged).
  Result<double> ReconstructionError(const FloatMatrix& data) const;

  /// Writes the dictionaries row-major (one centroid per row), the byte
  /// layout of every saved file; Load transposes them back.
  void Save(std::ostream& os) const;
  /// Restores from a stream, validating structural consistency (span
  /// contiguity, bits in [1, 16], dictionary shapes) before any state is
  /// committed, so corrupted payloads fail with a Status instead of
  /// aborting or indexing out of bounds.
  Status Load(std::istream& is);

  /// Post-load semantic validation: trained, shapes mutually consistent,
  /// every centroid value finite. Cheap relative to deserialization.
  Status ValidateInvariants() const;

  /// Checks an encoded database against these codebooks: one column per
  /// subspace and every stored code `< 2^bits[s]`, i.e. addressing an
  /// existing dictionary entry — the bound the ADC scan kernels index
  /// lookup tables with.
  Status ValidateCodes(const CodeMatrix& codes) const;

 private:
  /// Sets lut_offsets_ and lut_entries_ from bits_.
  void SetLutOffsets();

  bool trained_ = false;
  SubspaceLayout layout_;
  std::vector<int> bits_;
  std::vector<FloatMatrix> dictionaries_;  ///< dimension-major, see above
  std::vector<uint32_t> lut_offsets_;
  size_t lut_entries_ = 0;
};

}  // namespace vaq

#endif  // VAQ_CORE_CODEBOOK_H_
