#include "core/scan.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/cpu_features.h"
#include "common/io.h"
#include "common/log.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "linalg/ops.h"

namespace vaq {

BlockedCodes BlockedCodes::Build(const CodeMatrix& codes) {
  return Build(codes, nullptr, codes.rows());
}

BlockedCodes BlockedCodes::Build(const CodeMatrix& codes, const uint32_t* ids,
                                 size_t count) {
  BlockedCodes bc;
  bc.rows_ = count;
  bc.num_subspaces_ = codes.cols();
  if (count == 0 || bc.num_subspaces_ == 0) return bc;
  const size_t m = bc.num_subspaces_;
  auto source = [&](size_t r) {
    VAQ_DCHECK(ids == nullptr || ids[r] < codes.rows());
    return codes.row(ids != nullptr ? ids[r] : r);
  };
  // w is one past the last subspace whose codes, OR-ed, exceed a byte.
  std::vector<uint16_t> column_or(m, 0);
  for (size_t r = 0; r < count; ++r) {
    const uint16_t* src = source(r);
    for (size_t s = 0; s < m; ++s) column_or[s] |= src[s];
  }
  size_t& w = bc.wide_subspaces_;
  for (size_t s = 0; s < m; ++s) {
    if (column_or[s] > UINT8_MAX) w = s + 1;
  }
  const size_t block_bytes = bc.row_bytes() * kScanBlockSize;
  const size_t blocks = (count + kScanBlockSize - 1) / kScanBlockSize;
  bc.data_.assign(blocks * block_bytes, 0);
  // One block at a time: its rows stay in L1 while each stripe is written
  // front to back.
  const uint16_t* rows[kScanBlockSize];
  for (size_t b = 0; b < blocks; ++b) {
    const size_t lanes = std::min(kScanBlockSize, count - b * kScanBlockSize);
    for (size_t i = 0; i < lanes; ++i) rows[i] = source(b * kScanBlockSize + i);
    uint8_t* dst = bc.data_.data() + b * block_bytes;
    for (size_t s = 0; s < w; ++s) {
      uint8_t* stripe = dst + 2 * s * kScanBlockSize;
      for (size_t i = 0; i < lanes; ++i) {
        StoreAs<uint16_t>(stripe + 2 * i, rows[i][s]);
      }
    }
    for (size_t s = w; s < m; ++s) {
      uint8_t* stripe = dst + (s + w) * kScanBlockSize;
      for (size_t i = 0; i < lanes; ++i) {
        stripe[i] = static_cast<uint8_t>(rows[i][s]);
      }
    }
  }
  return bc;
}

void BlockedCodes::ReadRow(size_t r, uint16_t* out) const {
  VAQ_DCHECK(r < rows_);
  const uint8_t* src = block(r / kScanBlockSize);
  const size_t lane = r % kScanBlockSize;
  const size_t w = wide_subspaces_;
  for (size_t s = 0; s < w; ++s) {
    out[s] = LoadAs<uint16_t>(src + 2 * (s * kScanBlockSize + lane));
  }
  for (size_t s = w; s < num_subspaces_; ++s) {
    out[s] = src[(s + w) * kScanBlockSize + lane];
  }
}

CodeMatrix BlockedCodes::Scatter(const uint32_t* ids,
                                 size_t extra_rows) const {
  CodeMatrix codes(rows_ + extra_rows, num_subspaces_);
  for (size_t r = 0; r < rows_; ++r) ReadRow(r, codes.row(ids[r]));
  return codes;
}

Partitioning Partitioning::FromAssignment(
    const std::vector<uint32_t>& assignment, size_t count) {
  Partitioning parts;
  parts.offsets.assign(count + 1, 0);
  for (const uint32_t p : assignment) ++parts.offsets[p + 1];
  for (size_t p = 0; p < count; ++p) parts.offsets[p + 1] += parts.offsets[p];
  parts.ids.resize(assignment.size());
  std::vector<uint32_t> next(parts.offsets.begin(), parts.offsets.end() - 1);
  for (size_t r = 0; r < assignment.size(); ++r) {
    parts.ids[next[assignment[r]]++] = static_cast<uint32_t>(r);
  }
  return parts;
}

Status Partitioning::Validate(size_t num_rows, const char* what) const {
  // num_rows distinct ids below num_rows are a permutation of [0, num_rows).
  bool ok = ids.size() == num_rows && offsets.front() == 0 &&
            offsets.back() == num_rows &&
            std::is_sorted(offsets.begin(), offsets.end());
  std::vector<bool> seen(num_rows, false);
  for (size_t i = 0; ok && i < ids.size(); ++i) {
    ok = ids[i] < num_rows && !seen[ids[i]];
    if (ok) seen[ids[i]] = true;
  }
  if (ok) return Status::OK();
  return Status::Internal(std::string(what) +
                          " do not hold every database row exactly once");
}

PartitionedCodes::PartitionedCodes(const CodeMatrix& codes,
                                   Partitioning members,
                                   const FloatMatrix& centroids,
                                   std::vector<float> distances)
    : members_(std::move(members)),
      centroids_(Transpose(centroids)),
      distances_(std::move(distances)) {
  BlockCodes(codes);
}

void PartitionedCodes::BlockCodes(const CodeMatrix& codes) {
  StageTimer timer(MetricsRegistry::Global().GetCounter(
      "vaq_build_scan_layout_us_total",
      "Cumulative blocked scan-layout build time (us)"));
  codes_ = BlockedCodes::Build(codes, members_.ids.data(), codes.rows());
}

Status PartitionedCodes::Validate(size_t num_rows, size_t centroid_dims,
                                  const char* what) const {
  const std::string name(what);
  if (num_partitions() == 0 || centroids_.cols() != num_partitions()) {
    return Status::Internal(name + " and their centroids disagree in count");
  }
  if (centroids_.rows() != centroid_dims) {
    return Status::Internal(name + ": centroid width disagrees with the "
                                   "index");
  }
  for (size_t i = 0; i < centroids_.size(); ++i) {
    if (!std::isfinite(centroids_.data()[i])) {
      return Status::Internal(name + ": centroids contain non-finite values");
    }
  }
  VAQ_RETURN_IF_ERROR(members_.Validate(num_rows, what));
  if (distances_.empty()) return Status::OK();
  if (distances_.size() != num_rows) {
    return Status::Internal(name + ": one cached distance per row expected");
  }
  for (size_t p = 0; p < num_partitions(); ++p) {
    float prev = 0.f;
    for (size_t i = members_.begin(p); i < members_.end(p); ++i) {
      const float d = distances_[i];
      if (!std::isfinite(d) || d < prev) {
        return Status::Internal(name + ": cached distances are not sorted "
                                       "non-negative finite values");
      }
      prev = d;
    }
  }
  return Status::OK();
}

void PartitionedCodes::SavePartitions(std::ostream& os) const {
  WritePod<uint64_t>(os, num_partitions());
  for (size_t p = 0; p < num_partitions(); ++p) {
    const size_t begin = members_.begin(p);
    const size_t count = members_.end(p) - begin;
    WriteArray(os, members_.ids.data() + begin, count);
    if (!distances_.empty()) WriteArray(os, distances_.data() + begin, count);
  }
}

Status PartitionedCodes::LoadPartitions(std::istream& is,
                                        bool with_distances) {
  uint64_t num = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &num));
  // Every partition costs at least one 8-byte length header per array;
  // bound the loop on seekable streams so a corrupted count cannot drive
  // a huge allocation.
  const uint64_t min_bytes = with_distances ? 16 : 8;
  const int64_t remaining = RemainingBytes(is);
  if (remaining >= 0 && num > static_cast<uint64_t>(remaining) / min_bytes) {
    return Status::IoError("partition count exceeds remaining payload "
                           "(corrupted file?)");
  }
  members_ = Partitioning{};
  distances_.clear();
  std::vector<uint32_t> ids;
  std::vector<float> distances;
  for (uint64_t p = 0; p < num; ++p) {
    VAQ_RETURN_IF_ERROR(ReadVector(is, &ids));
    members_.ids.insert(members_.ids.end(), ids.begin(), ids.end());
    members_.offsets.push_back(static_cast<uint32_t>(members_.ids.size()));
    if (!with_distances) continue;
    VAQ_RETURN_IF_ERROR(ReadVector(is, &distances));
    if (distances.size() != ids.size()) {
      return Status::IoError("corrupted partition: id/distance arrays "
                             "disagree in length");
    }
    distances_.insert(distances_.end(), distances.begin(), distances.end());
  }
  return Status::OK();
}

void PartitionedCodes::SaveCentroids(std::ostream& os) const {
  WriteMatrix(os, Transpose(centroids_));
}

Status PartitionedCodes::LoadCentroids(std::istream& is) {
  FloatMatrix rows;
  VAQ_RETURN_IF_ERROR(ReadMatrix(is, &rows));
  centroids_ = Transpose(rows);
  return Status::OK();
}

namespace internal {
// Defined in scan_avx2.cc, the only core translation unit built with
// -mavx2, and linked only where the compiler has it (src/CMakeLists.txt),
// for Code = uint16_t and uint8_t.
template <typename Code>
void Avx2Accumulate(const uint8_t* codes, const float* lut,
                    const uint32_t* lut_offsets, size_t subspaces,
                    size_t groups, float* acc);
}  // namespace internal

namespace {

// Stripes of Code (uint16_t or uint8_t) codes, sizeof(Code) * 64 bytes
// apart.
template <typename Code>
void ScalarAccumulate(const uint8_t* codes, const float* lut,
                      const uint32_t* lut_offsets, size_t subspaces,
                      size_t groups, float* acc) {
  for (size_t s = 0; s < subspaces; ++s) {
    const float* base = lut + lut_offsets[s];
    const uint8_t* stripe = codes + s * sizeof(Code) * kScanBlockSize;
    // The fixed-width lane loop unrolls: one loop branch per 8 lanes.
    for (size_t g = 0; g < groups; ++g) {
      for (size_t j = 0; j < kScanLaneGroup; ++j) {
        const size_t i = g * kScanLaneGroup + j;
        acc[i] += base[LoadAs<Code>(stripe + i * sizeof(Code))];
      }
    }
  }
}

constexpr ScanKernel kScalarKernel{&ScalarAccumulate<uint16_t>,
                                   &ScalarAccumulate<uint8_t>, "scalar"};
#if defined(VAQ_AVX2_KERNELS)
constexpr ScanKernel kAvx2Kernel{&internal::Avx2Accumulate<uint16_t>,
                                 &internal::Avx2Accumulate<uint8_t>, "avx2"};
#else
// Never picked: without AVX2 kernels UseAvx2Kernels is always false.
constexpr ScanKernel kAvx2Kernel = kScalarKernel;
#endif

}  // namespace

const ScanKernel& GetScanKernel(ScanKernelType type) {
  return UseAvx2Kernels(type) ? kAvx2Kernel : kScalarKernel;
}

void BlockedFullScan(const BlockedCodes& bc, const uint32_t* ids,
                     const float* lut, const uint32_t* lut_offsets,
                     size_t s_limit, const ScanKernel& kernel, float* acc,
                     TopKHeap* heap, SearchStats* stats,
                     StopController* stop) {
  BlockedEaScan(bc, 0, bc.rows(), ids, lut, lut_offsets, s_limit, s_limit,
                kernel, acc, heap, stats, stop);
}

void BlockedEaScan(const BlockedCodes& bc, size_t row_begin, size_t row_end,
                   const uint32_t* ids, const float* lut,
                   const uint32_t* lut_offsets, size_t s_limit,
                   size_t interval, const ScanKernel& kernel, float* acc,
                   TopKHeap* heap, SearchStats* stats,
                   StopController* stop) {
  VAQ_DCHECK(row_end <= bc.rows());
  interval = std::max<size_t>(1, interval);
  size_t row = row_begin;
  while (row < row_end) {
    if (stop != nullptr && stop->ShouldStop()) return;
    const size_t b = row / kScanBlockSize;
    const size_t block_row0 = b * kScanBlockSize;
    const size_t lo = row - block_row0;
    const size_t hi =
        std::min(row_end, block_row0 + kScanBlockSize) - block_row0;
    // The 8-lane groups holding lanes [lo, hi).
    const size_t g_begin = lo / kScanLaneGroup;
    const size_t g_end = (hi + kScanLaneGroup - 1) / kScanLaneGroup;
    const float threshold = heap->Threshold();
    std::fill(acc, acc + kScanBlockSize, 0.f);
    size_t s = 0;
    bool abandoned = false;
    while (s < s_limit) {
      const size_t s_stop = std::min(s + interval, s_limit);
      kernel.accumulate(bc, b, lut, lut_offsets, s, s_stop, g_begin, g_end,
                        acc);
      s = s_stop;
      if (s >= s_limit) break;
      // The block is abandoned when no active lane is at or under the
      // threshold: a row whose distance ties it can still enter the heap
      // on a smaller id, so only strictly larger partial sums abandon.
      if (std::none_of(acc + lo, acc + hi,
                       [threshold](float a) { return a <= threshold; })) {
        abandoned = true;
        break;
      }
    }
    if (stats != nullptr) {
      stats->codes_visited += hi - lo;
      stats->lut_adds += s * (hi - lo);
    }
    if (!abandoned) {
      // Every lane holds a complete distance; Push rejects anything not
      // in the live top-k, so stale-threshold pushes are harmless.
      if (stats != nullptr) stats->rows_scanned += hi - lo;
      for (size_t i = lo; i < hi; ++i) {
        const size_t global = block_row0 + i;
        heap->Push(acc[i], static_cast<int64_t>(
                               ids != nullptr ? ids[global] : global));
      }
    }
    row = block_row0 + kScanBlockSize;
  }
}

Status FinalizeSearchResult(const StopController* stop, bool strict_deadline,
                            TopKHeap* heap, std::vector<Neighbor>* out,
                            SearchStats* stats, double wall_micros,
                            double cpu_micros) {
  const bool stopped = stop != nullptr && stop->stopped();
  if (stats != nullptr) {
    stats->truncated = stopped;
    stats->wall_micros = wall_micros;
    stats->cpu_micros = cpu_micros;
    // A scan can never enter more partitions than it planned to visit
    // (see SearchStats): drivers stamp the plan before the first block.
    VAQ_CHECK(stats->partitions_visited <= stats->clusters_visited);
  }
  if (stopped && stop->cause() == StopCause::kCancelled) {
    out->clear();
    return Status::Cancelled("search cancelled by caller");
  }
  if (stopped && strict_deadline) {
    out->clear();
    return Status::DeadlineExceeded("search deadline expired before the "
                                    "planned work completed");
  }
  heap->ExtractSorted(out);
  for (Neighbor& nb : *out) {
    nb.distance = std::sqrt(std::max(0.f, nb.distance));
  }
  return Status::OK();
}

void RecordQueryTelemetry(const SearchStats& query, const Status& status,
                          const QueryTrace* trace) {
  // All metric pointers are resolved once per process; afterwards this
  // function is registry-mutex-free and allocation-free (relaxed atomic
  // adds only), which the zero-alloc scan tests rely on.
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* queries = reg.GetCounter(
      "vaq_queries_total", "Queries answered (any outcome)");
  static Counter* failed = reg.GetCounter(
      "vaq_queries_failed_total", "Queries that returned a non-OK status");
  static Counter* truncated = reg.GetCounter(
      "vaq_queries_truncated_total",
      "Queries degraded to best-so-far results by an expired deadline");
  static Counter* deadline_exceeded = reg.GetCounter(
      "vaq_queries_deadline_exceeded_total",
      "Strict-deadline queries failed with kDeadlineExceeded");
  static Counter* cancelled = reg.GetCounter(
      "vaq_queries_cancelled_total", "Queries failed with kCancelled");
  static Counter* rows_scanned = reg.GetCounter(
      "vaq_scan_rows_scanned_total", "Rows fully accumulated by ADC scans");
  static Counter* lut_adds = reg.GetCounter(
      "vaq_scan_lut_adds_total", "Lookup-table additions performed");
  static Counter* codes_skipped = reg.GetCounter(
      "vaq_scan_codes_skipped_ti_total",
      "Codes pruned by the triangle inequality");
  static Counter* codes_visited = reg.GetCounter(
      "vaq_scan_codes_visited_total",
      "Codes whose distance accumulation began");
  static Counter* partitions_visited = reg.GetCounter(
      "vaq_scan_partitions_visited_total",
      "TI clusters / IVF cells entered by scans");
  static Histogram* wall_us = reg.GetHistogram(
      "vaq_query_wall_us", "Per-query wall time in microseconds");
  static Histogram* cpu_us = reg.GetHistogram(
      "vaq_query_cpu_us", "Per-query thread CPU time in microseconds");

  queries->Increment();
  if (!status.ok()) failed->Increment();
  if (status.ok() && query.truncated) truncated->Increment();
  if (status.code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded->Increment();
  }
  if (status.code() == StatusCode::kCancelled) cancelled->Increment();

  rows_scanned->Increment(query.rows_scanned);
  lut_adds->Increment(query.lut_adds);
  codes_skipped->Increment(query.codes_skipped_ti);
  codes_visited->Increment(query.codes_visited);
  partitions_visited->Increment(query.partitions_visited);
  wall_us->Observe(query.wall_micros);
  cpu_us->Observe(query.cpu_micros);

  const double slow_threshold = SlowQueryLogThresholdMicros();
  if (slow_threshold > 0.0 && query.wall_micros > slow_threshold &&
      ShouldLogSlowQuery()) {
    static Counter* slow_logged = reg.GetCounter(
        "vaq_slow_queries_logged_total",
        "Slow queries that were sampled into the log");
    slow_logged->Increment();
    if (trace != nullptr && trace->enabled()) {
      VAQ_LOG(LogLevel::kWarning,
              "slow query: wall=%.1fus cpu=%.1fus rows=%zu truncated=%d "
              "status=%d trace: %s",
              query.wall_micros, query.cpu_micros, query.rows_scanned,
              query.truncated ? 1 : 0, static_cast<int>(status.code()),
              trace->Format().c_str());
    } else {
      VAQ_LOG(LogLevel::kWarning,
              "slow query: wall=%.1fus cpu=%.1fus rows=%zu truncated=%d "
              "status=%d (tracing off)",
              query.wall_micros, query.cpu_micros, query.rows_scanned,
              query.truncated ? 1 : 0, static_cast<int>(status.code()));
    }
  }
}

}  // namespace vaq
