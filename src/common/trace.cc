#include "common/trace.h"

#include <cstdio>

namespace vaq {
namespace {

std::atomic<bool> g_tracing_enabled{false};

/// Bit pattern of the threshold double, stored in a uint64 atomic so the
/// hot-path load stays a plain relaxed integer read.
std::atomic<uint64_t> g_slow_query_threshold_bits{0};
std::atomic<uint32_t> g_slow_query_sample_every{1};
std::atomic<uint64_t> g_slow_query_seen{0};

uint64_t DoubleBits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kProject:
      return "project";
    case QueryPhase::kLutBuild:
      return "lut_build";
    case QueryPhase::kPartitionRank:
      return "partition_rank";
    case QueryPhase::kBlockScan:
      return "block_scan";
    case QueryPhase::kTiPrune:
      return "ti_prune";
  }
  return "unknown";
}

void SetTracingEnabled(bool enabled) {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

std::string QueryTrace::Format() const {
  std::string out;
  char buf[64];
  for (int i = 0; i < kNumQueryPhases; ++i) {
    if (phase_counts_[i] == 0) continue;
    const QueryPhase phase = static_cast<QueryPhase>(i);
    if (!out.empty()) out += ' ';
    if (phase_counts_[i] == 1) {
      std::snprintf(buf, sizeof(buf), "%s=%.1fus", QueryPhaseName(phase),
                    phase_micros_[i]);
    } else {
      std::snprintf(buf, sizeof(buf), "%s=%.1fus(x%llu)",
                    QueryPhaseName(phase), phase_micros_[i],
                    static_cast<unsigned long long>(phase_counts_[i]));
    }
    out += buf;
  }
  if (dropped_spans_ > 0) {
    std::snprintf(buf, sizeof(buf), " +%llu dropped spans",
                  static_cast<unsigned long long>(dropped_spans_));
    out += buf;
  }
  if (out.empty()) out = "(no spans)";
  return out;
}

void SetSlowQueryLogThresholdMicros(double micros) {
  g_slow_query_threshold_bits.store(DoubleBits(micros),
                                    std::memory_order_relaxed);
}

double SlowQueryLogThresholdMicros() {
  return BitsToDouble(
      g_slow_query_threshold_bits.load(std::memory_order_relaxed));
}

void SetSlowQueryLogSampleEvery(uint32_t n) {
  g_slow_query_sample_every.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

uint32_t SlowQueryLogSampleEvery() {
  return g_slow_query_sample_every.load(std::memory_order_relaxed);
}

bool ShouldLogSlowQuery() {
  const uint64_t seen =
      g_slow_query_seen.fetch_add(1, std::memory_order_relaxed);
  const uint32_t every =
      g_slow_query_sample_every.load(std::memory_order_relaxed);
  return seen % every == 0;
}

}  // namespace vaq
