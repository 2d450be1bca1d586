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

bool ScalarKernelForcedByEnv() {
  static const bool forced = [] {
    // getenv is mt-unsafe only against concurrent setenv; this read
    // happens once under the static-local guard and the process never
    // mutates its environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("VAQ_SCAN_KERNEL");
    return env != nullptr && std::strcmp(env, "scalar") == 0;
  }();
  return forced;
}

}  // namespace vaq
