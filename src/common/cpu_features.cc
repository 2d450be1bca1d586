#include "common/cpu_features.h"

#include <cstdlib>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define VAQ_CPU_PROBE_X86 1
#else
#define VAQ_CPU_PROBE_X86 0
#endif

namespace vaq {

bool CpuHasAvx2() {
#if VAQ_CPU_PROBE_X86
  static const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  return has_avx2;
#else
  return false;
#endif
}

bool IsScanKernelType(ScanKernelType type) {
  switch (type) {
    case ScanKernelType::kAuto:
    case ScanKernelType::kScalar:
    case ScanKernelType::kAvx2:
      return true;
  }
  return false;
}

bool Avx2KernelsAvailable() {
#if defined(VAQ_AVX2_KERNELS)
  return CpuHasAvx2();
#else
  return false;
#endif
}

bool UseAvx2Kernels(ScanKernelType type) {
  static const bool scalar_forced = [] {
    // getenv is mt-unsafe only against concurrent setenv; this read
    // happens once under the static-local guard and the process never
    // mutates its environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("VAQ_SCAN_KERNEL");
    return env != nullptr && std::strcmp(env, "scalar") == 0;
  }();
  switch (type) {
    case ScanKernelType::kAuto:
      return Avx2KernelsAvailable() && !scalar_forced;
    case ScanKernelType::kAvx2:
      return Avx2KernelsAvailable();
    default:
      return false;
  }
}

}  // namespace vaq
