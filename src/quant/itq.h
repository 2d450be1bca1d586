#ifndef VAQ_QUANT_ITQ_H_
#define VAQ_QUANT_ITQ_H_

#include <cstdint>
#include <vector>

#include "quant/quantizer.h"

namespace vaq {

struct ItqOptions {
  /// Binary code length. When num_bits <= dim the projection is the top
  /// PCA components (the ITQ paper's setting); when larger, a random
  /// Gaussian projection lifts to the requested width first.
  size_t num_bits = 256;
  /// Alternating minimization iterations for the rotation.
  int itq_iters = 50;
  uint64_t seed = 42;
};

/// ITQ-LSH (Gong et al., TPAMI 2012): Iterative Quantization hashing —
/// the quantization-based state-of-the-art hashing baseline of Figure 6.
///
/// Learns a rotation R minimizing the binarization error ||B - VR||_F by
/// alternating B = sign(VR) and an orthogonal Procrustes solve. Codes are
/// packed 64 bits per word; queries are ranked by Hamming distance
/// (popcount scan).
class ItqLsh : public Quantizer {
 public:
  explicit ItqLsh(const ItqOptions& options = ItqOptions())
      : options_(options) {}

  std::string name() const override { return "ITQ-LSH"; }
  Status Train(const FloatMatrix& data) override;
  size_t size() const override { return num_rows_; }
  size_t code_bytes() const override {
    return num_rows_ * words_per_code_ * sizeof(uint64_t);
  }
  Status Search(const float* query, size_t k,
                std::vector<Neighbor>* out) const override;

  /// Encodes one raw vector into packed binary words (for tests).
  void EncodeRow(const float* x, uint64_t* words) const;

 private:
  ItqOptions options_;
  std::vector<float> means_;
  FloatMatrix projection_;  ///< (d x num_bits): PCA components or Gaussian
  FloatMatrix rotation_;    ///< (num_bits x num_bits) learned by ITQ
  std::vector<uint64_t> codes_;
  size_t num_rows_ = 0;
  size_t words_per_code_ = 0;
};

}  // namespace vaq

#endif  // VAQ_QUANT_ITQ_H_
