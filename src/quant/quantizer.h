#ifndef VAQ_QUANT_QUANTIZER_H_
#define VAQ_QUANT_QUANTIZER_H_

#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "common/topk.h"

namespace vaq {

/// Common interface of the baseline ANN methods (PQ, OPQ, Bolt, PQFS,
/// ITQ-LSH) so the benchmark harness can drive them uniformly.
///
/// Train() learns the method's parameters on `data` AND encodes `data` as
/// the searchable database (the paper's scan-based regime: the training
/// set is the collection). Search() answers a k-NN query by scanning the
/// encoded database.
class Quantizer {
 public:
  virtual ~Quantizer() = default;

  virtual std::string name() const = 0;

  /// Trains on and encodes `data` (n x d).
  virtual Status Train(const FloatMatrix& data) = 0;

  /// Number of encoded database vectors.
  virtual size_t size() const = 0;

  /// Bytes of the encoded database representation.
  virtual size_t code_bytes() const = 0;

  /// k-NN search; results ascending by estimated distance.
  virtual Status Search(const float* query, size_t k,
                        std::vector<Neighbor>* out) const = 0;

  /// Batch search over rows of `queries`.
  Result<std::vector<std::vector<Neighbor>>> SearchBatch(
      const FloatMatrix& queries, size_t k) const;
};

}  // namespace vaq

#endif  // VAQ_QUANT_QUANTIZER_H_
