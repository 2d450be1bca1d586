#include "linalg/covariance.h"

namespace vaq {

std::vector<double> ColumnMeans(const FloatMatrix& x) {
  std::vector<double> means(x.cols(), 0.0);
  if (x.rows() == 0) return means;
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.row(r);
    for (size_t c = 0; c < x.cols(); ++c) means[c] += row[c];
  }
  const double inv_n = 1.0 / static_cast<double>(x.rows());
  for (double& m : means) m *= inv_n;
  return means;
}

std::vector<double> ColumnVariances(const FloatMatrix& x) {
  std::vector<double> means = ColumnMeans(x);
  std::vector<double> vars(x.cols(), 0.0);
  if (x.rows() == 0) return vars;
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.row(r);
    for (size_t c = 0; c < x.cols(); ++c) {
      const double diff = row[c] - means[c];
      vars[c] += diff * diff;
    }
  }
  const double inv_n = 1.0 / static_cast<double>(x.rows());
  for (double& v : vars) v *= inv_n;
  return vars;
}

DoubleMatrix Covariance(const FloatMatrix& x) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  VAQ_CHECK(n > 0);
  const std::vector<double> means = ColumnMeans(x);

  DoubleMatrix cov(d, d, 0.0);
  std::vector<double> centered(d);
  for (size_t r = 0; r < n; ++r) {
    const float* row = x.row(r);
    for (size_t c = 0; c < d; ++c) centered[c] = row[c] - means[c];
    for (size_t i = 0; i < d; ++i) {
      const double ci = centered[i];
      if (ci == 0.0) continue;
      double* cov_row = cov.row(i);
      for (size_t j = i; j < d; ++j) cov_row[j] += ci * centered[j];
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) {
      const double v = cov(i, j) * inv_n;
      cov(i, j) = v;
      cov(j, i) = v;
    }
  }
  return cov;
}

}  // namespace vaq
