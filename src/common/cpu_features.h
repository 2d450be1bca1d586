#ifndef VAQ_COMMON_CPU_FEATURES_H_
#define VAQ_COMMON_CPU_FEATURES_H_

namespace vaq {

/// Runtime CPU feature detection for kernel dispatch. Detection happens
/// once (the first call) and is cached; all functions are thread-safe and
/// return false on non-x86 targets or compilers without the probing
/// builtin, so callers can branch unconditionally.
bool CpuHasAvx2();

/// Which instruction set runs the exact kernels: the blocked ADC scan
/// (core/scan.h) and the centroid distances (clustering/centroid_kernel.h).
/// Every choice returns bit-identical results. A query, or a VaqIvfIndex
/// trained, with any other value fails with InvalidArgument
/// (IsScanKernelType).
enum class ScanKernelType {
  kAuto,    ///< AVX2 where available, unless VAQ_SCAN_KERNEL=scalar
            ///< (the default)
  kScalar,  ///< scalar kernels (always available)
  kAvx2,    ///< AVX2 kernels; falls back to kScalar when the binary or
            ///< CPU lacks AVX2
};

/// True for the three values of the enum.
bool IsScanKernelType(ScanKernelType type);

/// True when the AVX2 kernels were compiled in (src/CMakeLists.txt) and
/// the CPU supports them.
bool Avx2KernelsAvailable();

/// The one ISA rule of every kernel dispatch: kAuto runs the AVX2 kernels
/// when they are available, unless the environment sets
/// VAQ_SCAN_KERNEL=scalar (read once and cached); kAvx2 runs them when
/// they are available; any other value runs the scalar kernels.
bool UseAvx2Kernels(ScanKernelType type);

}  // namespace vaq

#endif  // VAQ_COMMON_CPU_FEATURES_H_
