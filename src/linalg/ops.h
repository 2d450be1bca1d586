#ifndef VAQ_LINALG_OPS_H_
#define VAQ_LINALG_OPS_H_

#include "common/matrix.h"

namespace vaq {

/// Dense matrix product C = A * B. A is (n x k), B is (k x m).
FloatMatrix MatMul(const FloatMatrix& a, const FloatMatrix& b);

/// Matrix transpose.
FloatMatrix Transpose(const FloatMatrix& a);
DoubleMatrix Transpose(const DoubleMatrix& a);

/// out = (x - means) * A for a single row vector x (length k) and A
/// (k x m); `means` (length k) may be null for no centering. This is the
/// one row projection: PCA, OPQ's rotation and ITQ's projection and
/// rotation all run it. Coordinates that center to exactly zero are
/// skipped, so sparse inputs cost less.
void RowTimesMatrix(const float* x, const FloatMatrix& a, float* out,
                    const float* means = nullptr);

/// Frobenius norm of the difference A - B. Matrices must agree in shape.
double FrobeniusDistance(const FloatMatrix& a, const FloatMatrix& b);

/// Returns true if A^T A is within `tol` of the identity (column
/// orthonormality check).
bool IsOrthonormal(const FloatMatrix& a, double tol);

/// Identity matrix of size n.
FloatMatrix Identity(size_t n);

}  // namespace vaq

#endif  // VAQ_LINALG_OPS_H_
