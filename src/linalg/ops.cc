#include "linalg/ops.h"

#include <algorithm>
#include <cmath>

namespace vaq {

FloatMatrix MatMul(const FloatMatrix& a, const FloatMatrix& b) {
  VAQ_CHECK(a.cols() == b.rows());
  FloatMatrix c(a.rows(), b.cols(), 0.f);
  // ikj loop order: streams through B and C rows contiguously.
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const float aik = arow[k];
      if (aik == 0.f) continue;
      const float* brow = b.row(k);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

namespace {

/// Side of the square tiles a transpose copies: a tile's 16 source and 16
/// destination rows stay in L1 while it is copied. Row by row, the writes
/// of a transpose with a long destination row (256 floats, 1 KiB, for
/// deep-ivf's coarse centroids) fall into a few L1 sets and miss.
constexpr size_t kTransposeTile = 16;

template <typename T>
Matrix<T> TransposeTiled(const Matrix<T>& a) {
  Matrix<T> t(a.cols(), a.rows());
  for (size_t i0 = 0; i0 < a.rows(); i0 += kTransposeTile) {
    const size_t i1 = std::min(a.rows(), i0 + kTransposeTile);
    for (size_t j0 = 0; j0 < a.cols(); j0 += kTransposeTile) {
      const size_t j1 = std::min(a.cols(), j0 + kTransposeTile);
      for (size_t i = i0; i < i1; ++i) {
        for (size_t j = j0; j < j1; ++j) t(j, i) = a(i, j);
      }
    }
  }
  return t;
}

}  // namespace

FloatMatrix Transpose(const FloatMatrix& a) { return TransposeTiled(a); }

DoubleMatrix Transpose(const DoubleMatrix& a) { return TransposeTiled(a); }

void RowTimesMatrix(const float* x, const FloatMatrix& a, float* out,
                    const float* means) {
  for (size_t j = 0; j < a.cols(); ++j) out[j] = 0.f;
  for (size_t k = 0; k < a.rows(); ++k) {
    const float xk = means != nullptr ? x[k] - means[k] : x[k];
    if (xk == 0.f) continue;
    const float* arow = a.row(k);
    for (size_t j = 0; j < a.cols(); ++j) out[j] += xk * arow[j];
  }
}

double FrobeniusDistance(const FloatMatrix& a, const FloatMatrix& b) {
  VAQ_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff =
        static_cast<double>(a.data()[i]) - static_cast<double>(b.data()[i]);
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

bool IsOrthonormal(const FloatMatrix& a, double tol) {
  // Check A^T A == I column-wise.
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = i; j < a.cols(); ++j) {
      double dot = 0.0;
      for (size_t r = 0; r < a.rows(); ++r) {
        dot += static_cast<double>(a(r, i)) * static_cast<double>(a(r, j));
      }
      const double expected = (i == j) ? 1.0 : 0.0;
      if (std::fabs(dot - expected) > tol) return false;
    }
  }
  return true;
}

FloatMatrix Identity(size_t n) {
  FloatMatrix id(n, n, 0.f);
  for (size_t i = 0; i < n; ++i) id(i, i) = 1.f;
  return id;
}

}  // namespace vaq
