#ifndef VAQ_COMMON_CPU_FEATURES_H_
#define VAQ_COMMON_CPU_FEATURES_H_

namespace vaq {

/// Runtime CPU feature detection for kernel dispatch. Detection happens
/// once (the first call) and is cached; all functions are thread-safe and
/// return false on non-x86 targets or compilers without the probing
/// builtin, so callers can branch unconditionally.
bool CpuHasAvx2();

/// True when the environment sets VAQ_SCAN_KERNEL=scalar, which makes
/// every kAuto kernel dispatch (the ADC scan and the centroid kernels)
/// pick the scalar kernel. Read once and cached.
bool ScalarKernelForcedByEnv();

}  // namespace vaq

#endif  // VAQ_COMMON_CPU_FEATURES_H_
