#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "linalg/covariance.h"
#include "linalg/ops.h"
#include "linalg/pca.h"
#include "linalg/rotation.h"
#include "linalg/svd.h"

namespace vaq {
namespace {

FloatMatrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return m;
}

TEST(OpsTest, MatMulKnown) {
  FloatMatrix a(2, 2, std::vector<float>{1, 2, 3, 4});
  FloatMatrix b(2, 2, std::vector<float>{5, 6, 7, 8});
  FloatMatrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.f);
}

TEST(OpsTest, TransposeInvolution) {
  const FloatMatrix a = RandomMatrix(3, 7, 3);
  EXPECT_TRUE(Transpose(Transpose(a)) == a);
}

TEST(OpsTest, RowTimesMatrix) {
  FloatMatrix a(2, 3, std::vector<float>{1, 2, 3, 4, 5, 6});
  const float x[] = {2.f, -1.f};
  float out[3];
  RowTimesMatrix(x, a, out);
  EXPECT_FLOAT_EQ(out[0], -2.f);
  EXPECT_FLOAT_EQ(out[1], -1.f);
  EXPECT_FLOAT_EQ(out[2], 0.f);
  // With means, the row is centered first: (3, 1) - (1, 2) is x above.
  const float raw[] = {3.f, 1.f};
  const float means[] = {1.f, 2.f};
  float centered_out[3];
  RowTimesMatrix(raw, a, centered_out, means);
  for (size_t j = 0; j < 3; ++j) EXPECT_EQ(centered_out[j], out[j]);
}

TEST(OpsTest, IdentityIsOrthonormal) {
  EXPECT_TRUE(IsOrthonormal(Identity(5), 1e-9));
}

TEST(CovarianceTest, ColumnMeansAndVariances) {
  FloatMatrix m(4, 2, std::vector<float>{1, 0, 2, 0, 3, 0, 4, 0});
  const auto means = ColumnMeans(m);
  EXPECT_DOUBLE_EQ(means[0], 2.5);
  EXPECT_DOUBLE_EQ(means[1], 0.0);
  const auto vars = ColumnVariances(m);
  EXPECT_DOUBLE_EQ(vars[0], 1.25);  // population variance of {1,2,3,4}
  EXPECT_DOUBLE_EQ(vars[1], 0.0);
}

TEST(CovarianceTest, DiagonalMatchesVariance) {
  const FloatMatrix m = RandomMatrix(200, 5, 7);
  const DoubleMatrix cov = Covariance(m);
  const auto vars = ColumnVariances(m);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(cov(i, i), vars[i], 1e-6);
  }
}

TEST(CovarianceTest, SymmetricResult) {
  const FloatMatrix m = RandomMatrix(50, 8, 11);
  const DoubleMatrix cov = Covariance(m);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(cov(i, j), cov(j, i));
    }
  }
}

TEST(PcaTest, CapturesDominantDirection) {
  // Data stretched along (1, 1): first PC must align with it.
  Rng rng(13);
  FloatMatrix data(500, 2);
  for (size_t r = 0; r < 500; ++r) {
    const float t = static_cast<float>(rng.Gaussian(0.0, 10.0));
    const float n = static_cast<float>(rng.Gaussian(0.0, 0.1));
    data(r, 0) = t + n;
    data(r, 1) = t - n;
  }
  Pca pca;
  ASSERT_TRUE(pca.Fit(data).ok());
  EXPECT_GT(pca.eigenvalues()[0], pca.eigenvalues()[1] * 100);
  const float ratio = pca.components()(0, 0) / pca.components()(1, 0);
  EXPECT_NEAR(std::fabs(ratio), 1.0, 1e-3);
}

TEST(PcaTest, ExplainedVarianceRatioSumsToOne) {
  const FloatMatrix m = RandomMatrix(100, 6, 17);
  Pca pca;
  ASSERT_TRUE(pca.Fit(m).ok());
  const auto ratio = pca.ExplainedVarianceRatio();
  EXPECT_NEAR(std::accumulate(ratio.begin(), ratio.end(), 0.0), 1.0, 1e-9);
  for (size_t i = 1; i < ratio.size(); ++i) {
    EXPECT_LE(ratio[i], ratio[i - 1] + 1e-12);
  }
}

TEST(PcaTest, TransformPreservesDistances) {
  // Orthonormal projection preserves pairwise Euclidean distances.
  const FloatMatrix m = RandomMatrix(20, 8, 19);
  Pca pca;
  ASSERT_TRUE(pca.Fit(m).ok());
  auto z = pca.Transform(m);
  ASSERT_TRUE(z.ok());
  for (size_t a = 0; a < 5; ++a) {
    for (size_t b = a + 1; b < 5; ++b) {
      const float orig = SquaredL2(m.row(a), m.row(b), 8);
      const float proj = SquaredL2(z->row(a), z->row(b), 8);
      EXPECT_NEAR(orig, proj, 1e-3 * std::max(1.f, orig));
    }
  }
}

TEST(PcaTest, ProjectedVarianceMatchesEigenvalues) {
  const FloatMatrix m = RandomMatrix(300, 4, 23);
  Pca pca;
  ASSERT_TRUE(pca.Fit(m).ok());
  auto z = pca.Transform(m);
  ASSERT_TRUE(z.ok());
  const auto vars = ColumnVariances(*z);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(vars[i], pca.eigenvalues()[i],
                1e-4 * std::max(1.0, pca.eigenvalues()[i]));
  }
}

TEST(PcaTest, ErrorsOnBadInput) {
  Pca pca;
  EXPECT_FALSE(pca.Fit(FloatMatrix(1, 4)).ok());
  EXPECT_FALSE(pca.Transform(FloatMatrix(3, 4)).ok());  // not fitted
  const FloatMatrix m = RandomMatrix(10, 4, 29);
  ASSERT_TRUE(pca.Fit(m).ok());
  EXPECT_FALSE(pca.Transform(FloatMatrix(3, 5)).ok());  // wrong width
}

TEST(PcaTest, RestoreRoundtrip) {
  const FloatMatrix m = RandomMatrix(50, 3, 31);
  Pca pca;
  ASSERT_TRUE(pca.Fit(m).ok());
  Pca restored;
  ASSERT_TRUE(restored
                  .Restore(pca.eigenvalues(), pca.means(), pca.components())
                  .ok());
  float a[3], b[3];
  pca.TransformRow(m.row(0), a);
  restored.TransformRow(m.row(0), b);
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(SvdTest, ReconstructsInput) {
  const FloatMatrix a = RandomMatrix(10, 4, 37);
  auto svd = ThinSvd(a);
  ASSERT_TRUE(svd.ok());
  // A == U diag(s) V^T.
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(svd->u(i, k)) * svd->singular[k] *
               svd->v(j, k);
      }
      EXPECT_NEAR(acc, a(i, j), 1e-3);
    }
  }
}

TEST(SvdTest, SingularValuesDescendingNonNegative) {
  const FloatMatrix a = RandomMatrix(20, 6, 41);
  auto svd = ThinSvd(a);
  ASSERT_TRUE(svd.ok());
  for (size_t i = 0; i < svd->singular.size(); ++i) {
    EXPECT_GE(svd->singular[i], 0.0);
    if (i > 0) {
      EXPECT_LE(svd->singular[i], svd->singular[i - 1] + 1e-9);
    }
  }
}

TEST(SvdTest, RejectsWideMatrix) {
  EXPECT_FALSE(ThinSvd(FloatMatrix(2, 5)).ok());
}

TEST(ProcrustesTest, RecoversKnownRotation) {
  const FloatMatrix a = RandomMatrix(50, 5, 43);
  const FloatMatrix r_true = RandomRotation(5, 99);
  const FloatMatrix b = MatMul(a, r_true);
  auto r = OrthogonalProcrustes(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(FrobeniusDistance(*r, r_true), 1e-3);
}

TEST(ProcrustesTest, ResultIsOrthonormal) {
  const FloatMatrix a = RandomMatrix(30, 4, 47);
  const FloatMatrix b = RandomMatrix(30, 4, 53);
  auto r = OrthogonalProcrustes(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(IsOrthonormal(*r, 1e-3));
}

TEST(RotationTest, RandomRotationIsOrthonormal) {
  for (size_t d : {2u, 5u, 16u, 64u}) {
    const FloatMatrix r = RandomRotation(d, 1000 + d);
    EXPECT_TRUE(IsOrthonormal(r, 1e-4)) << "d=" << d;
  }
}

TEST(RotationTest, DeterministicBySeed) {
  EXPECT_TRUE(RandomRotation(8, 5) == RandomRotation(8, 5));
  EXPECT_FALSE(RandomRotation(8, 5) == RandomRotation(8, 6));
}

TEST(RotationTest, OrthonormalizeRepairsDegenerateColumns) {
  FloatMatrix m(4, 3, 0.f);  // all-zero columns are degenerate
  OrthonormalizeColumns(&m, 7);
  EXPECT_TRUE(IsOrthonormal(m, 1e-4));
}

}  // namespace
}  // namespace vaq
