#ifndef VAQ_DATASETS_UCR_LIKE_H_
#define VAQ_DATASETS_UCR_LIKE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace vaq {

/// One generated medium-scale dataset (train = database, test = queries),
/// z-normalized per row as in the UCR archive.
struct UcrLikeDataset {
  std::string name;
  FloatMatrix train;
  FloatMatrix test;
};

/// Pattern families spanning the diversity axes of the UCR archive.
enum class UcrFamily {
  kCylinderBellFunnel,  ///< CBF: piecewise plateau / ramp / decay shapes
  kTwoPatterns,         ///< alternating up-down step patterns
  kSinusoidMix,         ///< sums of low-frequency sinusoids (SLC-like)
  kRandomWalk,          ///< integrated noise
  kGaussianBumps,       ///< localized bumps (GunPoint-like)
  kArProcess,           ///< autoregressive noise (high-noise regime)
};

/// Deterministic generator for a UCR-archive-style collection
/// (DESIGN.md §4): dataset `index` in [0, count) draws its family, series
/// length (32..1024), class count, noise level, and sizes from the index,
/// producing a diverse, reproducible archive to run the paper's 128-dataset
/// statistical comparison (Table II, Figure 10).
class UcrArchiveGenerator {
 public:
  explicit UcrArchiveGenerator(uint64_t seed = 2022) : seed_(seed) {}

  /// Default archive size matching the paper's UCR snapshot.
  static constexpr size_t kDefaultCount = 128;

  /// Generates dataset `index` (train/test split included).
  UcrLikeDataset Generate(size_t index) const;

 private:
  uint64_t seed_;
};

}  // namespace vaq

#endif  // VAQ_DATASETS_UCR_LIKE_H_
