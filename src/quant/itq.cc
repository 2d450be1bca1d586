#include "quant/itq.h"

#include <bit>
#include <cmath>

#include "common/macros.h"
#include "common/rng.h"
#include "linalg/covariance.h"
#include "linalg/ops.h"
#include "linalg/pca.h"
#include "linalg/rotation.h"
#include "linalg/svd.h"

namespace vaq {

void ItqLsh::EncodeRow(const float* x, uint64_t* words) const {
  const size_t b = options_.num_bits;
  std::vector<float> projected(b);
  RowTimesMatrix(x, projection_, projected.data(), means_.data());
  std::vector<float> rotated(b);
  RowTimesMatrix(projected.data(), rotation_, rotated.data());
  for (size_t w = 0; w < words_per_code_; ++w) words[w] = 0;
  for (size_t j = 0; j < b; ++j) {
    if (rotated[j] >= 0.f) {
      words[j / 64] |= uint64_t{1} << (j % 64);
    }
  }
}

Status ItqLsh::Train(const FloatMatrix& data) {
  const size_t d = data.cols();
  const size_t b = options_.num_bits;
  if (b == 0) return Status::InvalidArgument("num_bits must be >= 1");
  if (data.rows() < 2) {
    return Status::InvalidArgument("ITQ requires at least 2 samples");
  }

  // Projection: top-b PCA components, or a Gaussian lift when b > d.
  const std::vector<double> mu = ColumnMeans(data);
  means_.resize(d);
  for (size_t i = 0; i < d; ++i) means_[i] = static_cast<float>(mu[i]);
  if (b <= d) {
    Pca pca;
    VAQ_RETURN_IF_ERROR(pca.Fit(data));
    projection_.Resize(d, b);
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < b; ++j) {
        projection_(i, j) = pca.components()(i, j);
      }
    }
  } else {
    Rng rng(options_.seed);
    projection_.Resize(d, b);
    const float inv_sqrt_d = 1.f / std::sqrt(static_cast<float>(d));
    for (size_t i = 0; i < projection_.size(); ++i) {
      projection_.data()[i] =
          static_cast<float>(rng.Gaussian()) * inv_sqrt_d;
    }
  }

  // Projected training data V (n x b).
  FloatMatrix v(data.rows(), b);
  for (size_t r = 0; r < data.rows(); ++r) {
    RowTimesMatrix(data.row(r), projection_, v.row(r), means_.data());
  }

  // ITQ alternating minimization of ||B - V R||_F.
  rotation_ = RandomRotation(b, options_.seed ^ 0x1234567ULL);
  FloatMatrix binary(data.rows(), b);
  for (int iter = 0; iter < options_.itq_iters; ++iter) {
    const FloatMatrix rotated = MatMul(v, rotation_);
    for (size_t i = 0; i < binary.size(); ++i) {
      binary.data()[i] = rotated.data()[i] >= 0.f ? 1.f : -1.f;
    }
    VAQ_ASSIGN_OR_RETURN(rotation_, OrthogonalProcrustes(v, binary));
  }

  // Encode the database.
  words_per_code_ = (b + 63) / 64;
  num_rows_ = data.rows();
  codes_.assign(num_rows_ * words_per_code_, 0);
  for (size_t r = 0; r < num_rows_; ++r) {
    EncodeRow(data.row(r), codes_.data() + r * words_per_code_);
  }
  return Status::OK();
}

Status ItqLsh::Search(const float* query, size_t k,
                      std::vector<Neighbor>* out) const {
  if (num_rows_ == 0) return Status::FailedPrecondition("ITQ is not trained");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");

  std::vector<uint64_t> qcode(words_per_code_);
  EncodeRow(query, qcode.data());

  TopKHeap heap(k);
  for (size_t r = 0; r < num_rows_; ++r) {
    const uint64_t* code = codes_.data() + r * words_per_code_;
    uint32_t hamming = 0;
    for (size_t w = 0; w < words_per_code_; ++w) {
      hamming += static_cast<uint32_t>(std::popcount(code[w] ^ qcode[w]));
    }
    heap.Push(static_cast<float>(hamming), static_cast<int64_t>(r));
  }
  *out = heap.TakeSorted();
  return Status::OK();
}

}  // namespace vaq
