#ifndef VAQ_COMMON_TRACE_H_
#define VAQ_COMMON_TRACE_H_

/// Per-query phase tracing (DESIGN.md §10). A QueryTrace records how a
/// single search spent its time across the pipeline phases (LUT build,
/// partition ranking, block scan, ...). Tracing is off by default and
/// gated by one process-wide atomic: a TraceSpan opened against a null
/// or disabled trace compiles down to two branches and no clock reads,
/// so the query path pays nothing until someone turns tracing on.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace vaq {

/// Pipeline phases a query can spend time in, in pipeline order.
enum class QueryPhase : int {
  kProject = 0,        ///< rotate/project the query into PCA space
  kLutBuild = 1,       ///< per-subspace distance LUT construction
  kPartitionRank = 2,  ///< rank TI partitions / coarse lists by lower bound
  kBlockScan = 3,      ///< blocked ADC scan over candidate codes
  kTiPrune = 4,        ///< triangle-inequality partition pruning decisions
};

inline constexpr int kNumQueryPhases = 5;

const char* QueryPhaseName(QueryPhase phase);

/// Process-wide tracing switch. QueryTrace captures the flag at Reset /
/// construction time, so a query's trace is consistently on or off for
/// its whole lifetime even if the flag flips mid-query.
void SetTracingEnabled(bool enabled);
bool TracingEnabled();

/// Timing record for one query. Not thread-safe: a trace belongs to the
/// one thread running its query (batch drivers allocate one per lane).
///
/// Two views of the same data:
///  - per-phase aggregate totals/counts — always complete;
///  - an ordered span list for phase-sequence assertions and slow-query
///    logs, capped at kMaxSpans (overflow is counted, not stored).
class QueryTrace {
 public:
  static constexpr size_t kMaxSpans = 32;

  struct Span {
    QueryPhase phase;
    double micros;
  };

  QueryTrace() { Reset(); }

  /// Clears all recorded data and re-samples the global tracing flag.
  void Reset() {
    enabled_ = TracingEnabled();
    num_spans_ = 0;
    dropped_spans_ = 0;
    for (int i = 0; i < kNumQueryPhases; ++i) {
      phase_micros_[i] = 0.0;
      phase_counts_[i] = 0;
    }
  }

  bool enabled() const { return enabled_; }

  void Record(QueryPhase phase, double micros) {
    const int p = static_cast<int>(phase);
    phase_micros_[p] += micros;
    ++phase_counts_[p];
    if (num_spans_ < kMaxSpans) {
      spans_[num_spans_++] = Span{phase, micros};
    } else {
      ++dropped_spans_;
    }
  }

  size_t num_spans() const { return num_spans_; }
  const Span& span(size_t i) const { return spans_[i]; }
  uint64_t dropped_spans() const { return dropped_spans_; }

  double PhaseTotalMicros(QueryPhase phase) const {
    return phase_micros_[static_cast<int>(phase)];
  }
  uint64_t PhaseCount(QueryPhase phase) const {
    return phase_counts_[static_cast<int>(phase)];
  }
  bool HasPhase(QueryPhase phase) const { return PhaseCount(phase) > 0; }

  /// One-line human-readable summary, e.g.
  /// "lut_build=12.3us partition_rank=4.0us block_scan=87.1us(x5)".
  /// Phases never entered are omitted.
  std::string Format() const;

 private:
  bool enabled_;
  size_t num_spans_;
  uint64_t dropped_spans_;
  Span spans_[kMaxSpans];
  double phase_micros_[kNumQueryPhases];
  uint64_t phase_counts_[kNumQueryPhases];
};

/// RAII phase timer. Construct with the query's trace (may be null) and
/// the phase; the elapsed wall time is recorded on destruction or at an
/// explicit Stop(). Disabled or null traces skip the clock reads.
class TraceSpan {
 public:
  TraceSpan(QueryTrace* trace, QueryPhase phase)
      : trace_(trace != nullptr && trace->enabled() ? trace : nullptr),
        phase_(phase) {
    if (trace_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~TraceSpan() { Stop(); }

  /// Ends the span early (idempotent).
  void Stop() {
    if (trace_ == nullptr) return;
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    trace_->Record(phase_, us);
    trace_ = nullptr;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  QueryTrace* trace_;
  QueryPhase phase_;
  std::chrono::steady_clock::time_point start_;
};

/// Slow-query log configuration. When the threshold is > 0, a query
/// whose wall time exceeds it emits one kWarning log line containing the
/// latency, scan stats, and — when tracing is on — the trace summary.
/// `sample_every` keeps a pathological workload from flooding the sink:
/// only every Nth slow query is logged (1 = log all). Threshold <= 0
/// (the default) disables the log entirely; the query path then pays a
/// single relaxed atomic load.
void SetSlowQueryLogThresholdMicros(double micros);
double SlowQueryLogThresholdMicros();
void SetSlowQueryLogSampleEvery(uint32_t n);
uint32_t SlowQueryLogSampleEvery();

/// Returns true when this slow query is the one-in-N sample that should
/// be logged; advances the shared sample counter.
bool ShouldLogSlowQuery();

}  // namespace vaq

#endif  // VAQ_COMMON_TRACE_H_
