#include "core/search_driver.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "clustering/centroid_kernel.h"
#include "common/timer.h"

namespace vaq {
namespace {

/// User-supplied SearchParams and queries never abort: every reachable
/// misuse maps to InvalidArgument (the same rule as for untrusted files).
Status ValidateSearchParams(const VaqEncoder& encoder, size_t n,
                            const float* query, const SearchParams& params) {
  if (!encoder.trained()) {
    return Status::FailedPrecondition("index is not trained");
  }
  // A NaN coordinate would make every distance NaN and every row a tie.
  for (size_t i = 0; i < encoder.dim(); ++i) {
    if (!std::isfinite(query[i])) {
      return Status::InvalidArgument("query must be finite");
    }
  }
  if (params.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (params.k > n) {
    return Status::InvalidArgument("k exceeds the number of indexed "
                                   "vectors");
  }
  // Written so that NaN fails it too.
  if (!(params.visit_fraction > 0.0 && params.visit_fraction <= 1.0)) {
    return Status::InvalidArgument("visit_fraction must be in (0, 1]");
  }
  switch (params.mode) {
    case SearchMode::kHeap:
    case SearchMode::kEarlyAbandon:
    case SearchMode::kTriangleInequality:
      break;
    default:
      return Status::InvalidArgument("unknown SearchMode value");
  }
  if (!IsScanKernelType(params.kernel)) {
    return Status::InvalidArgument("unknown ScanKernelType value");
  }
  return Status::OK();
}

/// Everything the scan of one query reads or writes, fixed before the
/// first row.
struct QueryScan {
  const PartitionedCodes* store;  ///< the index's one code store
  const float* lut;
  const uint32_t* lut_offsets;
  size_t s_limit;   ///< subspaces accumulated per row
  size_t interval;  ///< subspaces between early-abandon checks
  bool ranked;      ///< the visits are ranked partitions
  SearchScratch* scratch;
  SearchStats* stats;  ///< the query's one record, never null
  StopController* stop;
  QueryTrace* trace;
};

/// Triangle-inequality cascade through one TI partition (Algorithm 4),
/// block-wise: the sorted cached distances bound a candidate window that
/// is re-tightened from the live threshold before each block of the store
/// rather than before each row.
void ScanWindow(const QueryScan& q, const PartitionRef& p,
                const ScanKernel& kernel) {
  TopKHeap& heap = q.scratch->heap;
  const float* cached = p.sorted_distances;
  const float dq = p.query_distance;
  const size_t end = p.end - p.begin;  // partition-local indices
  size_t i = 0;
  while (i < end) {
    size_t stop_row = end;
    if (heap.full()) {
      // Members that can beat a best-so-far of radius r satisfy
      // |dq - d(x, centroid)| <= d(q, x) <= r by the triangle inequality,
      // i.e. d(x, centroid) in [dq - r, dq + r]. The bounds are inclusive:
      // a member at exactly the radius ties the k-th distance and may
      // still enter on a smaller id. The first window is the prune phase.
      // vaq-lint: allow(kernel-no-clock) -- reads the clock only if traced
      TraceSpan prune_span(i == 0 ? q.trace : nullptr, QueryPhase::kTiPrune);
      const float r = std::sqrt(heap.Threshold());
      const size_t from = i;
      i = std::lower_bound(cached + i, cached + end, dq - r) - cached;
      stop_row = std::upper_bound(cached + i, cached + end, dq + r) - cached;
      q.stats->codes_skipped_ti += i - from;
      if (i == stop_row) {
        q.stats->codes_skipped_ti += end - i;
        break;
      }
    }
    // Scan to the nearer of the window edge and the store's next block
    // boundary, so the window is re-tightened against the improved
    // threshold before the next block starts.
    const size_t row = p.begin + i;
    const size_t chunk_end = std::min(
        stop_row, (row / kScanBlockSize + 1) * kScanBlockSize - p.begin);
    {
      // vaq-lint: allow(kernel-no-clock) -- reads the clock only if traced
      TraceSpan span(q.trace, QueryPhase::kBlockScan);
      BlockedEaScan(q.store->codes(), row, p.begin + chunk_end,
                    q.store->members().ids.data(), q.lut, q.lut_offsets,
                    q.s_limit, q.interval, kernel, q.scratch->acc, &heap,
                    q.stats, q.stop);
    }
    if (q.stop != nullptr && q.stop->stopped()) return;
    if (chunk_end == stop_row && stop_row < end) {
      q.stats->codes_skipped_ti += end - stop_row;
      break;
    }
    i = chunk_end;
  }
}

/// The one scan of a query: every visit in order, a TI visit inside its
/// window. Entering a ranked partition is a stop check and counts it as
/// visited; the flat scan's visits are neither.
void ScanBlocked(const QueryScan& q, const ScanKernel& kernel) {
  for (const PartitionRef& p : q.scratch->visits) {
    if (q.ranked) {
      if (q.stop != nullptr && q.stop->ShouldStop()) return;
      ++q.stats->partitions_visited;
    }
    if (p.sorted_distances != nullptr) {
      ScanWindow(q, p, kernel);
    } else {
      BlockedEaScan(q.store->codes(), p.begin, p.end,
                    q.store->members().ids.data(), q.lut, q.lut_offsets,
                    q.s_limit, q.interval, kernel, q.scratch->acc,
                    &q.scratch->heap, q.stats, q.stop);
    }
  }
}

/// Rows a flat early-abandon query scans nearest first, per result: enough
/// that the k-th best-so-far is tight before the sweep begins. Seeding
/// from more partitions prunes little more and costs partial-block scans
/// (EXPERIMENTS.md, "Seeding the flat early-abandon scan").
constexpr size_t kSeedRowsPerResult = 8;

/// The one planner: writes a query's visits to `scratch->visits`. First
/// the `nearest` partitions nearest the query, nearest first, each inside
/// its TI window when the store has distances and the query is ranked. A
/// `flat` query then visits every other row in storage order, each run
/// between two ranked partitions as one range, so the sweep keeps the
/// whole-block kernel path and every row is visited once.
void PlanVisits(const float* projected, const PartitionedCodes& store,
                size_t nearest, bool flat, ScanKernelType kernel,
                SearchScratch* scratch) {
  const Partitioning& parts = store.members();
  std::vector<Neighbor>& ranking = scratch->ranking;
  RankPartitions(projected, store.centroids(), nearest, kernel, scratch);
  const bool windowed = !flat && !store.distances().empty();
  std::vector<PartitionRef>& visits = scratch->visits;
  // At most one sweep range before each ranked partition and one after the
  // last: reserving that up front keeps later queries allocation-free.
  visits.reserve(2 * ranking.size() + 1);
  visits.clear();
  for (const Neighbor& r : ranking) {
    const size_t begin = parts.begin(r.id);
    visits.push_back({begin, parts.end(r.id),
                      windowed ? store.distances().data() + begin : nullptr,
                      std::sqrt(r.distance)});
  }
  if (!flat) return;
  std::sort(ranking.begin(), ranking.end(),
            [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
  size_t row = 0;
  for (const Neighbor& r : ranking) {
    if (row < parts.begin(r.id)) visits.push_back({row, parts.begin(r.id)});
    row = parts.end(r.id);
  }
  if (row < store.rows()) visits.push_back({row, store.rows()});
}

/// Buckets of the ranking's distance histogram (SelectNearest).
constexpr size_t kRankBuckets = 256;

/// The largest bucket SelectNearest still orders by insertion; a larger
/// one (clustered or tied distances) falls back to a comparison sort.
constexpr size_t kInsertionBucket = 16;

/// A ranking key: (distance bits << 32 | id). Distances are >= +0, whose
/// bits order as the floats do, so the key order is the (distance, id)
/// order.
inline uint64_t RankKey(float distance, size_t id) {
  return uint64_t{std::bit_cast<uint32_t>(distance)} << 32 | uint64_t{id};
}

/// Orders the `visit` <= `count` smallest of keys[0, count) into
/// keys[0, visit).
void SortPrefix(uint64_t* keys, size_t count, size_t visit) {
  if (count > visit) std::nth_element(keys, keys + visit, keys + count);
  std::sort(keys, keys + visit);
}

/// Writes the keys (RankKey) of the `visit` <= `count` smallest squared
/// distances `dist[0, count)` to `keys[0, visit)`, ascending. `buckets`
/// holds `count` bytes and `keys` count + 1 keys.
///
/// A bucket select: bucket(d) = min(255, int((d - lo) · 255 / (hi - lo)))
/// over the distances' range [lo, hi] never decreases as d grows. The
/// buckets before the first one, `cut`, at which the prefix count reaches
/// `visit` bound the answer: a centroid in a later bucket is strictly
/// farther than the >= `visit` centroids in them, so it is not among the
/// nearest. Only their keys are placed, bucket by bucket in ascending
/// order, so only keys within one bucket are out of order.
void SelectNearest(const float* dist, size_t count, size_t visit,
                   uint8_t* buckets, uint64_t* keys) {
  // The range [lo, hi], over four independent chains.
  float chain_lo[4], chain_hi[4];
  std::fill_n(chain_lo, 4, std::numeric_limits<float>::infinity());
  std::fill_n(chain_hi, 4, -std::numeric_limits<float>::infinity());
  size_t c = 0;
  for (; c + 4 <= count; c += 4) {
    for (size_t j = 0; j < 4; ++j) {
      chain_lo[j] = std::min(chain_lo[j], dist[c + j]);
      chain_hi[j] = std::max(chain_hi[j], dist[c + j]);
    }
  }
  for (; c < count; ++c) {
    chain_lo[0] = std::min(chain_lo[0], dist[c]);
    chain_hi[0] = std::max(chain_hi[0], dist[c]);
  }
  const float lo = std::min(std::min(chain_lo[0], chain_lo[1]),
                            std::min(chain_lo[2], chain_lo[3]));
  const float hi = std::max(std::max(chain_hi[0], chain_hi[1]),
                            std::max(chain_hi[2], chain_hi[3]));
  const float top = static_cast<float>(kRankBuckets - 1);
  const float scale = top / (hi - lo);
  if (!(scale > 0.f && scale <= std::numeric_limits<float>::max())) {
    // No range that is finite and positive (every distance equal, or one
    // overflowed to +inf): one bucket. Bucketing would compute 0 · inf,
    // a NaN, and casting a NaN to an integer is undefined.
    for (c = 0; c < count; ++c) keys[c] = RankKey(dist[c], c);
    SortPrefix(keys, count, visit);
    return;
  }
  // min() sends a NaN distance to the last bucket too.
  for (c = 0; c < count; ++c) {
    buckets[c] = static_cast<uint8_t>(
        static_cast<int32_t>(std::min(top, (dist[c] - lo) * scale)));
  }
  uint32_t counts[kRankBuckets] = {};
  for (c = 0; c < count; ++c) ++counts[buckets[c]];
  // Buckets [0, cut) hold the `kept` >= visit nearest; bucket b's keys go
  // from start[b].
  uint32_t start[kRankBuckets];
  size_t kept = 0;
  size_t largest = 0;
  size_t cut = 0;
  for (; kept < visit; ++cut) {
    start[cut] = static_cast<uint32_t>(kept);
    kept += counts[cut];
    largest = std::max<size_t>(largest, counts[cut]);
  }
  // Later buckets all write the spare slot keys[kept] and never advance,
  // so placing a key takes no branch.
  std::fill(start + cut, start + kRankBuckets, static_cast<uint32_t>(kept));
  for (c = 0; c < count; ++c) {
    const uint32_t b = buckets[c];
    const uint32_t slot = start[b];
    keys[slot] = RankKey(dist[c], c);
    start[b] = slot + (b < cut ? 1 : 0);
  }
  if (largest > kInsertionBucket) {
    SortPrefix(keys, kept, visit);
    return;
  }
  // Every key moves only within its own bucket.
  for (size_t i = 1; i < kept; ++i) {
    const uint64_t key = keys[i];
    size_t j = i;
    for (; j > 0 && keys[j - 1] > key; --j) keys[j] = keys[j - 1];
    keys[j] = key;
  }
}

}  // namespace

void RankPartitions(const float* projected, const FloatMatrix& centroids,
                    size_t visit, ScanKernelType kernel,
                    SearchScratch* scratch) {
  const size_t total = centroids.cols();
  visit = std::min(visit, total);
  std::vector<Neighbor>& ranking = scratch->ranking;
  ranking.resize(visit);
  if (visit == 0) return;
  std::vector<float>& dist = scratch->centroid_distances;
  std::vector<uint8_t>& buckets = scratch->rank_buckets;
  std::vector<uint64_t>& keys = scratch->rank_keys;
  dist.resize(total);
  buckets.resize(total);
  keys.resize(total + 1);
  GetCentroidKernel(kernel).distances(projected, centroids.data(),
                                      centroids.rows(), total, total,
                                      dist.data());
  SelectNearest(dist.data(), total, visit, buckets.data(), keys.data());
  for (size_t v = 0; v < visit; ++v) {
    ranking[v] = {std::bit_cast<float>(static_cast<uint32_t>(keys[v] >> 32)),
                  static_cast<int64_t>(keys[v] & UINT32_MAX)};
  }
}

Status SearchEncoded(const VaqEncoder& encoder, const PartitionedCodes& store,
                     size_t visit, const float* query,
                     const SearchParams& params, SearchScratch* scratch,
                     std::vector<Neighbor>* out, SearchStats* stats) {
  WallTimer timer;
  CpuTimer cpu_timer(CpuTimer::Scope::kThread);
  // One record per query: the caller's, or this one.
  SearchStats local;
  if (stats == nullptr) stats = &local;
  *stats = SearchStats{};
  VAQ_RETURN_IF_ERROR(
      ValidateSearchParams(encoder, store.rows(), query, params));
  StopController stop_state(params.deadline, params.cancel_token);
  StopController* stop = stop_state.armed() ? &stop_state : nullptr;
  QueryTrace* trace = params.trace;
  if (trace != nullptr) trace->Reset();

  {
    TraceSpan span(trace, QueryPhase::kProject);
    encoder.ProjectQuery(query, &scratch->pca_space, &scratch->projected);
  }
  const float* projected = scratch->projected.data();
  {
    TraceSpan span(trace, QueryPhase::kLutBuild);
    encoder.BuildLut(projected, &scratch->lut);
  }
  scratch->heap.Reset(params.k);

  const size_t m = encoder.num_subspaces();
  const bool flat = visit == 0;
  // A TI store's distances window every ranked visit.
  const bool windowed = !flat && !store.distances().empty();
  QueryScan scan{&store, scratch->lut.data(),
                 encoder.codebooks().lut_offsets(), m,
                 std::max<size_t>(1, params.ea_check_interval), !flat,
                 scratch, stats, stop, trace};
  if (flat && params.num_subspaces_used != 0) {
    scan.s_limit = std::min(params.num_subspaces_used, m);
  }
  // kHeap is the early-abandon scan that never checks: one interval spans
  // every accumulated subspace.
  if (params.mode == SearchMode::kHeap) scan.interval = scan.s_limit;
  // A flat scan that can abandon rows ranks the partitions that seed its
  // threshold: the fewest expected to hold kSeedRowsPerResult · k rows.
  size_t nearest = visit;
  if (flat && scan.interval < scan.s_limit) {
    const double clusters = static_cast<double>(store.num_partitions());
    const double seeds =
        std::ceil(static_cast<double>(kSeedRowsPerResult * params.k) *
                  clusters / static_cast<double>(store.rows()));
    nearest = static_cast<size_t>(std::min(clusters, seeds));
  }
  if (!flat) stats->clusters_total = store.num_partitions();
  // Ranking is the first step a stop check can skip: a query out of
  // budget before it plans no visits and returns empty, truncated.
  if (nearest > 0 && stop != nullptr && stop->ShouldStop()) {
    scratch->visits.clear();
  } else {
    TraceSpan rank_span(nearest > 0 ? trace : nullptr,
                        QueryPhase::kPartitionRank);
    PlanVisits(projected, store, nearest, flat, params.kernel, scratch);
  }
  if (!flat) stats->clusters_visited = scratch->visits.size();
  {
    // A TI scan traces each chunk of its windows (ScanWindow); every other
    // scan is one span.
    TraceSpan scan_span(windowed ? nullptr : trace, QueryPhase::kBlockScan);
    ScanBlocked(scan, GetScanKernel(params.kernel));
  }

  const Status status = FinalizeSearchResult(
      stop, params.strict_deadline, &scratch->heap, out, stats,
      timer.ElapsedMicros(), cpu_timer.ElapsedMicros());
  RecordQueryTelemetry(*stats, status, trace);
  return status;
}

}  // namespace vaq
