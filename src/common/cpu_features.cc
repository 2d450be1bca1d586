#include "common/cpu_features.h"

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

}  // namespace vaq
