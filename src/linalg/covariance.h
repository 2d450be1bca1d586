#ifndef VAQ_LINALG_COVARIANCE_H_
#define VAQ_LINALG_COVARIANCE_H_

#include <vector>

#include "common/matrix.h"

namespace vaq {

/// Column means of X (length = cols).
std::vector<double> ColumnMeans(const FloatMatrix& x);

/// Per-dimension variance of X (population variance, Eq. 4 of the paper).
std::vector<double> ColumnVariances(const FloatMatrix& x);

/// Covariance matrix of X: (1/n) (X - mu)^T (X - mu). On the paper's
/// z-normalized data this is its C = X^T X up to scale (the 1/n factor
/// does not change eigenvectors or eigenvalue ratios).
DoubleMatrix Covariance(const FloatMatrix& x);

}  // namespace vaq

#endif  // VAQ_LINALG_COVARIANCE_H_
