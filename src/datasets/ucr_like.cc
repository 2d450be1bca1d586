#include "datasets/ucr_like.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "datasets/synthetic.h"

namespace vaq {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Per-class latent parameters drawn once per dataset, so that members of
/// the same class are genuinely similar (classes are what give medium-scale
/// datasets non-trivial nearest-neighbor structure).
struct ClassParams {
  double a = 0.0, b = 0.0, c = 0.0, d = 0.0;
};

void CbfRow(Rng* rng, const ClassParams& p, float* row, size_t len) {
  // Cylinder / bell / funnel on a random support [start, start+width).
  const size_t start = static_cast<size_t>(
      len / 8 + rng->NextIndex(std::max<size_t>(1, len / 4)));
  const size_t width = std::max<size_t>(
      4, len / 4 + static_cast<size_t>(rng->NextIndex(len / 4)));
  const double amp = 4.0 + rng->Gaussian(0.0, 0.5);
  const int shape = static_cast<int>(p.a) % 3;
  for (size_t i = 0; i < len; ++i) row[i] = static_cast<float>(rng->Gaussian());
  for (size_t i = start; i < std::min(len, start + width); ++i) {
    const double t = static_cast<double>(i - start) /
                     static_cast<double>(width);
    double shape_val = 1.0;                      // cylinder
    if (shape == 1) shape_val = t;               // bell (ramp up)
    if (shape == 2) shape_val = 1.0 - t;         // funnel (ramp down)
    row[i] += static_cast<float>(amp * shape_val);
  }
}

void TwoPatternsRow(Rng* rng, const ClassParams& p, float* row, size_t len) {
  // Step pattern: up-up / up-down / down-up / down-down, jittered in time.
  const int pattern = static_cast<int>(p.a) % 4;
  const double first = (pattern & 2) ? -5.0 : 5.0;
  const double second = (pattern & 1) ? -5.0 : 5.0;
  const size_t t1 = len / 4 + static_cast<size_t>(rng->NextIndex(len / 8));
  const size_t t2 = len / 2 + static_cast<size_t>(rng->NextIndex(len / 8));
  for (size_t i = 0; i < len; ++i) {
    double v = rng->Gaussian();
    if (i >= t1 && i < t1 + len / 16 + 2) v += first;
    if (i >= t2 && i < t2 + len / 16 + 2) v += second;
    row[i] = static_cast<float>(v);
  }
}

void SinusoidRow(Rng* rng, const ClassParams& p, float* row, size_t len) {
  const double jitter = rng->Gaussian(0.0, 0.1);
  for (size_t i = 0; i < len; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(len);
    const double v = p.a * std::sin(2.0 * kPi * p.b * t + p.c + jitter) +
                     0.5 * p.a * std::sin(2.0 * kPi * 2.0 * p.b * t + p.d) +
                     rng->Gaussian(0.0, 0.2);
    row[i] = static_cast<float>(v);
  }
}

void RandomWalkRow(Rng* rng, const ClassParams& p, float* row, size_t len) {
  double acc = 0.0;
  for (size_t i = 0; i < len; ++i) {
    acc += rng->Gaussian(p.a * 0.01, 1.0);
    row[i] = static_cast<float>(acc);
  }
}

void GaussianBumpRow(Rng* rng, const ClassParams& p, float* row, size_t len) {
  const double center = p.a + rng->Gaussian(0.0, 1.0);
  const double width = std::max(2.0, p.b);
  const double amp = p.c;
  for (size_t i = 0; i < len; ++i) {
    const double z = (static_cast<double>(i) - center) / width;
    row[i] = static_cast<float>(amp * std::exp(-0.5 * z * z) +
                                rng->Gaussian(0.0, 0.3));
  }
}

void ArRow(Rng* rng, const ClassParams& p, float* row, size_t len) {
  const double phi = std::clamp(p.a, -0.95, 0.95);
  double prev = rng->Gaussian();
  for (size_t i = 0; i < len; ++i) {
    prev = phi * prev + rng->Gaussian();
    row[i] = static_cast<float>(prev + p.b * std::sin(2.0 * kPi * p.c *
                                                      static_cast<double>(i) /
                                                      static_cast<double>(len)));
  }
}

}  // namespace

UcrLikeDataset UcrArchiveGenerator::Generate(size_t index) const {
  Rng rng(seed_ + 0x1000193ULL * (index + 1));

  // Diversity axes derived deterministically from the index.
  // Lengths match the real archive's distribution (mean ~400, long tail),
  // capped at 640 so the per-dataset PCA eigensolve stays affordable
  // across a 128-dataset sweep.
  static constexpr size_t kLengths[] = {64, 128, 160, 256, 320,
                                        384, 448, 512, 576, 640};
  const size_t len = kLengths[index % (sizeof(kLengths) / sizeof(size_t))];
  const auto family = static_cast<UcrFamily>(index % 6);
  const size_t num_classes = 2 + index % 5;
  const size_t train_rows = 200 + (index * 37) % 600;
  const size_t test_rows = 50 + (index * 13) % 100;

  // Per-class latent parameters.
  std::vector<ClassParams> params(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    params[c].a = (family == UcrFamily::kCylinderBellFunnel ||
                   family == UcrFamily::kTwoPatterns)
                      ? static_cast<double>(c)
                      : rng.Uniform(0.5, 4.0);
    params[c].b = rng.Uniform(1.0, 8.0);
    params[c].c = rng.Uniform(0.0, 2.0 * kPi);
    params[c].d = rng.Uniform(0.0, 2.0 * kPi);
    if (family == UcrFamily::kGaussianBumps) {
      params[c].a = rng.Uniform(0.2, 0.8) * static_cast<double>(len);
      params[c].b = rng.Uniform(2.0, static_cast<double>(len) / 8.0);
      params[c].c = rng.Uniform(2.0, 6.0);
    }
    if (family == UcrFamily::kArProcess) {
      params[c].a = rng.Uniform(-0.9, 0.9);
      params[c].b = rng.Uniform(0.0, 2.0);
      params[c].c = rng.Uniform(1.0, 6.0);
    }
  }

  auto fill = [&](FloatMatrix* out, size_t rows) {
    out->Resize(rows, len);
    for (size_t r = 0; r < rows; ++r) {
      const size_t cls = r % num_classes;
      float* row = out->row(r);
      switch (family) {
        case UcrFamily::kCylinderBellFunnel:
          CbfRow(&rng, params[cls], row, len);
          break;
        case UcrFamily::kTwoPatterns:
          TwoPatternsRow(&rng, params[cls], row, len);
          break;
        case UcrFamily::kSinusoidMix:
          SinusoidRow(&rng, params[cls], row, len);
          break;
        case UcrFamily::kRandomWalk:
          RandomWalkRow(&rng, params[cls], row, len);
          break;
        case UcrFamily::kGaussianBumps:
          GaussianBumpRow(&rng, params[cls], row, len);
          break;
        case UcrFamily::kArProcess:
          ArRow(&rng, params[cls], row, len);
          break;
      }
    }
    ZNormalizeRows(out);
  };

  UcrLikeDataset dataset;
  char name[64];
  std::snprintf(name, sizeof(name), "ucr_synth_%03zu", index);
  dataset.name = name;
  fill(&dataset.train, train_rows);
  fill(&dataset.test, test_rows);
  return dataset;
}

}  // namespace vaq
