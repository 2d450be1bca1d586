#ifndef VAQ_CORE_SCAN_H_
#define VAQ_CORE_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/cpu_features.h"
#include "common/deadline.h"
#include "common/matrix.h"
#include "common/status.h"
#include "common/topk.h"

namespace vaq {

/// Rows per cache block of the transposed code layout. 64 rows give a
/// subspace stripe of 128 bytes (two cache lines) of uint16 codes or 64
/// bytes (one line) of uint8 codes, and 64 float accumulators (256 B) stay
/// resident in L1/registers.
inline constexpr size_t kScanBlockSize = 64;

/// Lanes per group: the unit in which a kernel accumulates part of a block
/// (one AVX2 register of floats).
inline constexpr size_t kScanLaneGroup = 8;

/// Counters describing how much work one query did; used to quantify
/// pruning power in tests and benchmarks. Owned by the scan layer so the
/// kernels, the query driver, and the benchmarks agree on one vocabulary.
/// The query driver (SearchEncoded) zeroes the record it is passed, so
/// afterwards it describes the last query it was passed to, never a sum.
struct SearchStats {
  size_t codes_visited = 0;      ///< codes whose distance accumulation began
  size_t codes_skipped_ti = 0;   ///< codes pruned by the triangle inequality
  size_t lut_adds = 0;           ///< lookup-table additions performed

  // Planned work, stamped once at query planning time: how many
  // partitions the pruning policy *selected* for this query, out of how
  // many the index has.
  size_t clusters_visited = 0;   ///< partitions the query planned to visit
  size_t clusters_total = 0;     ///< partitions in the index (0 = flat scan)

  // Degradation report (DESIGN.md §9): work *actually performed*,
  // accumulated as the scan runs. `partitions_visited` counts partitions
  // the scan entered, so it trails `clusters_visited` while a query runs
  // and equals it only for a query that was never stopped. The invariant
  // partitions_visited <= clusters_visited is checked in
  // FinalizeSearchResult. The two ratios answer different questions:
  // planned-vs-total is pruning power, entered-vs-planned is deadline
  // progress.
  bool truncated = false;         ///< stopped before the planned work finished
  size_t rows_scanned = 0;        ///< rows whose full distance was accumulated
  size_t partitions_visited = 0;  ///< TI clusters / IVF cells actually entered
  double wall_micros = 0.0;       ///< wall time of the Search() call
  double cpu_micros = 0.0;        ///< thread CPU time of the Search() call

  void Reset() { *this = SearchStats{}; }
};

/// Subspace-major, cache-blocked copy of an encoded dataset.
///
/// Rows are grouped into blocks of kScanBlockSize; within a block the
/// codes are transposed so that the kScanBlockSize codes of one subspace
/// are contiguous. The first wide_subspaces() = w stripes of a block hold
/// uint16 codes (128 B each), the other m - w hold uint8 codes (64 B
/// each), so a block is 64 * (m + w) bytes and stripe s starts at byte
/// (s + min(s, w)) * 64 of it:
///
///   s <  w:  uint16 at block(b) + 2 * (s * 64 + i)  ==  codes(b*64 + i, s)
///   s >= w:  block(b)[(s + w) * 64 + i]             ==  codes(b*64 + i, s)
///
/// Build derives w from the codes: one past the last subspace that holds
/// a code above 255, or 0. A trained index's bits are sorted descending
/// (AllocateBits), so w is its number of subspaces wider than 8 bits.
///
/// A kernel streams one subspace stripe at a time, turning the per-row LUT
/// gather into a vectorizable inner loop while every row still accumulates
/// its subspaces in ascending order — bit-identical to a row-at-a-time ADC
/// sum. The last block is padded with code 0 (always a valid dictionary
/// index); padded lanes are computed and discarded.
///
/// An index holds exactly one of these, in its PartitionedCodes: partitions
/// are packed back to back with no padding, so a block may hold the tail of
/// one partition and the head of the next.
class BlockedCodes {
 public:
  BlockedCodes() = default;

  /// Blocks every row of `codes` in row order.
  static BlockedCodes Build(const CodeMatrix& codes);

  /// Blocks the rows `ids[0..count)` (null: rows [0, count)), in that
  /// order: stored row i is row ids[i] of `codes`. w is derived from the
  /// stored rows.
  static BlockedCodes Build(const CodeMatrix& codes, const uint32_t* ids,
                            size_t count);

  /// Copies stored row `r`'s codes, one uint16 per subspace, into `out`.
  void ReadRow(size_t r, uint16_t* out) const;

  /// The codes in row order: the inverse of Build(codes, ids, rows()) when
  /// `ids` is a permutation of [0, rows()), and the one way to read an
  /// index's codes back row-major. `extra_rows` zero rows follow, for Add
  /// to fill.
  CodeMatrix Scatter(const uint32_t* ids, size_t extra_rows = 0) const;

  size_t rows() const { return rows_; }
  size_t num_subspaces() const { return num_subspaces_; }
  /// w: subspaces [0, w) are stored as uint16, the rest as uint8.
  size_t wide_subspaces() const { return wide_subspaces_; }
  /// Bytes of codes per row, m + w; a block is 64 rows of them.
  size_t row_bytes() const { return num_subspaces_ + wide_subspaces_; }
  size_t num_blocks() const {
    return data_.empty() ? 0 : data_.size() / (row_bytes() * kScanBlockSize);
  }

  /// Start of block `b`'s transposed codes (64 * row_bytes() bytes).
  const uint8_t* block(size_t b) const {
    return data_.data() + b * row_bytes() * kScanBlockSize;
  }

 private:
  size_t rows_ = 0;
  size_t num_subspaces_ = 0;
  size_t wide_subspaces_ = 0;
  std::vector<uint8_t> data_;
};

/// Rows [0, n) split into partitions (TI clusters, IVF lists) in CSR form,
/// which is also the storage order of a PartitionedCodes' BlockedCodes:
/// partition p is storage rows [begin(p), end(p)), and ids[i] is the row
/// id stored at position i.
struct Partitioning {
  std::vector<uint32_t> offsets{0};  ///< size() + 1 entries, from 0
  std::vector<uint32_t> ids;         ///< storage position -> row id

  size_t size() const { return offsets.size() - 1; }
  size_t begin(size_t p) const { return offsets[p]; }
  size_t end(size_t p) const { return offsets[p + 1]; }

  /// Groups rows [0, assignment.size()) by their partition in
  /// `assignment` (entries < count), each partition in ascending row id.
  static Partitioning FromAssignment(const std::vector<uint32_t>& assignment,
                                     size_t count);

  /// Checks that `ids` stores every row of [0, num_rows) exactly once, as
  /// TI clusters and IVF lists must. Internal, naming the partitions
  /// `what`, otherwise.
  Status Validate(size_t num_rows, const char* what) const;
};

/// An index's one encoded database: the TI clusters of a VaqIndex
/// (TiPartition builds them) or the inverted lists of a VaqIvfIndex (its
/// coarse k-means builds them). It holds the one BlockedCodes in the
/// storage order of its Partitioning, the partitions' centroids (which the
/// query driver ranks) and, for TI only, each stored member's cached
/// centroid distance, sorted within its partition (which bound the
/// triangle-inequality window of a visit; empty otherwise).
///
/// The centroids are held dimension-major only, the centroid kernel's
/// layout (clustering/centroid_kernel.h, DESIGN.md §7.1): row j of
/// centroids() is dimension j of every partition's centroid, so column p is
/// partition p's centroid. Files keep them row-major, one centroid per row:
/// the constructor, LoadCentroids and SaveCentroids transpose.
class PartitionedCodes {
 public:
  PartitionedCodes() = default;

  /// Adopts the partitions and (TI) the members' sorted distances, moved
  /// in, stores the row-major `centroids` (one row per partition)
  /// transposed, and blocks `codes` (row order) (BlockCodes).
  PartitionedCodes(const CodeMatrix& codes, Partitioning members,
                   const FloatMatrix& centroids,
                   std::vector<float> distances = {});

  const BlockedCodes& codes() const { return codes_; }
  const Partitioning& members() const { return members_; }
  /// Dimensions x partitions: column p is partition p's centroid.
  const FloatMatrix& centroids() const { return centroids_; }
  const std::vector<float>& distances() const { return distances_; }
  size_t rows() const { return codes_.rows(); }
  size_t num_partitions() const { return members_.size(); }

  /// The codes in row order, then `extra_rows` zero rows for Add to fill.
  CodeMatrix RowCodes(size_t extra_rows = 0) const {
    return codes_.Scatter(members_.ids.data(), extra_rows);
  }

  /// Blocks `codes` (row order) in storage order, timed by the
  /// vaq_build_scan_layout_us_total counter. It gathers rows through
  /// members().ids, so Load runs Validate first.
  void BlockCodes(const CodeMatrix& codes);

  /// The partition half of an index's validation: at least one partition,
  /// holding every row of [0, num_rows) exactly once; one finite centroid
  /// column of height `centroid_dims` per partition; and, when there are
  /// distances, one per row, finite, non-negative and sorted within each
  /// partition.
  /// Internal, naming the partitions `what`, otherwise.
  Status Validate(size_t num_rows, size_t centroid_dims,
                  const char* what) const;

  /// Writes the partition count, then per partition its ids and, if the
  /// store has distances, theirs: the shared body of the TIPT and LIST
  /// sections. LoadPartitions reads it back; `with_distances` says whether
  /// the section has them.
  void SavePartitions(std::ostream& os) const;
  Status LoadPartitions(std::istream& is, bool with_distances);
  /// Writes the centroids row-major (WriteMatrix of their transpose), as
  /// the TIPT and CRSE sections hold them; LoadCentroids reads them back
  /// and transposes.
  void SaveCentroids(std::ostream& os) const;
  Status LoadCentroids(std::istream& is);

 protected:
  BlockedCodes codes_;
  Partitioning members_;
  FloatMatrix centroids_;
  std::vector<float> distances_;
};

/// The ADC scan kernel of one instruction set. (Distances to centroids,
/// for lookup tables and encoding, are clustering/centroid_kernel.h.)
///
/// `accumulate` adds, for every lane i of the 8-lane groups
/// [g_begin, g_end) (lanes [8 * g_begin, 8 * g_end) of block `b` of
/// `codes`), the LUT entries of subspaces [s_begin, s_end) selected by the
/// block's transposed codes:
///
///   acc[i] += sum_{s in [s_begin, s_end)} lut[lut_offsets[s] + codes(b*64 + i, s)]
///
/// with the per-lane additions performed in ascending subspace order, so
/// every implementation produces bit-identical float sums. Lanes outside
/// the groups are neither read nor written, so a partition that covers
/// part of a block pays only for the groups it touches. It splits the
/// subspaces at the store's w: the uint16 stripes below it go to
/// `accumulate_u16`, then the uint8 stripes from it to `accumulate_u8`.
/// Both take six arguments, which all travel in registers on x86-64 and
/// AArch64: `codes` points at the first stripe's first lane, `lut_offsets`
/// starts at that stripe's subspace, `acc` at lane 8 * g_begin, and
/// `groups` counts the 8-lane groups from there.
struct ScanKernel {
  using AccumulateFn = void (*)(const uint8_t* codes, const float* lut,
                                const uint32_t* lut_offsets, size_t subspaces,
                                size_t groups, float* acc);
  AccumulateFn accumulate_u16 = nullptr;
  AccumulateFn accumulate_u8 = nullptr;
  const char* name = "";

  void accumulate(const BlockedCodes& codes, size_t b, const float* lut,
                  const uint32_t* lut_offsets, size_t s_begin, size_t s_end,
                  size_t g_begin, size_t g_end, float* acc) const {
    const uint8_t* block = codes.block(b);
    const size_t w = codes.wide_subspaces();
    const size_t lane = g_begin * kScanLaneGroup;
    const size_t groups = g_end - g_begin;
    if (s_begin < w) {
      const size_t s_stop = s_end < w ? s_end : w;
      accumulate_u16(block + 2 * (s_begin * kScanBlockSize + lane), lut,
                     lut_offsets + s_begin, s_stop - s_begin, groups,
                     acc + lane);
      s_begin = s_stop;
    }
    if (s_begin < s_end) {
      accumulate_u8(block + (s_begin + w) * kScanBlockSize + lane, lut,
                    lut_offsets + s_begin, s_end - s_begin, groups,
                    acc + lane);
    }
  }
};

/// The scan kernel of `type` by UseAvx2Kernels (common/cpu_features.h). A
/// value outside the enum resolves to the scalar kernel; the query driver
/// rejects one before it gets here.
const ScanKernel& GetScanKernel(ScanKernelType type);

/// One partition of the database (a TI cluster or an IVF cell) as a query
/// scans it: a range of storage rows of the index's PartitionedCodes,
/// whose ids the query reads through the store's storage -> row id map.
/// A flat kHeap scan is the single range [0, n), in storage order; a
/// flat early-abandon scan is its seeded partitions, then the row ranges
/// between them (the query driver's one planner).
struct PartitionRef {
  size_t begin = 0;  ///< first storage row
  size_t end = 0;    ///< one past the last storage row
  /// Members' cached centroid distances, ascending (TI only, else null);
  /// a visit that carries them is scanned inside its TI window.
  const float* sorted_distances = nullptr;
  float query_distance = 0.f;  ///< query-to-centroid distance
};

/// Reusable per-thread query state. Threading one of these through
/// Search/SearchBatch makes the steady-state query path allocation-free:
/// every vector reaches its high-water size during warmup and is only
/// resized (never reallocated) afterwards.
struct SearchScratch {
  std::vector<float> lut;               ///< ADC lookup table
  std::vector<float> pca_space;         ///< query in PCA space
  std::vector<float> projected;         ///< query in permuted PCA space
  std::vector<Neighbor> ranking;        ///< ranked partitions (distance, id)
  TopKHeap heap{1};                     ///< reused best-so-far structure
  /// Per-block partial sums, on a cache-line boundary: the AVX2 kernel
  /// loads and stores them 32 bytes at a time on every block call.
  alignas(64) float acc[kScanBlockSize] = {};
  std::vector<PartitionRef> visits;     ///< row ranges to scan, in order
  // RankPartitions' buffers: the squared distance to every centroid, its
  // histogram bucket, and the selection's (distance bits << 32 | id) keys.
  std::vector<float> centroid_distances;
  std::vector<uint8_t> rank_buckets;
  std::vector<uint64_t> rank_keys;
};

/// Full blocked scan (SearchMode::kHeap): accumulates all `s_limit`
/// subspaces for every row of `bc` and pushes every distance. It is
/// BlockedEaScan over every row with `interval = s_limit`, so no abandon
/// check ever runs.
void BlockedFullScan(const BlockedCodes& bc, const uint32_t* ids,
                     const float* lut, const uint32_t* lut_offsets,
                     size_t s_limit, const ScanKernel& kernel, float* acc,
                     TopKHeap* heap, SearchStats* stats,
                     StopController* stop = nullptr);

/// Blocked early-abandoning scan of rows [row_begin, row_end) of `bc`.
/// `ids` maps blocked row index -> global id (nullptr = identity). `acc`
/// is a caller-owned kScanBlockSize buffer (SearchScratch::acc). In each
/// block only the 8-lane groups that hold rows of the range are
/// accumulated.
///
/// The best-so-far threshold is read once per block; after every
/// `interval` subspaces but the last, the block is abandoned when every
/// partial sum over its active lanes already exceeds that threshold (no
/// lane can improve the heap, even on a tie broken by id). The check stops
/// at the first lane at or under it.
/// Only fully-accumulated rows are ever pushed, so an abandoned partial
/// sum is never mistaken for a distance, and the final top-k is the
/// exact top-k of the range by (distance, id).
///
/// `stop` (optional) is consulted once per 64-row block; when it fires
/// the scan returns immediately with the heap holding the best-so-far
/// top-k over the rows already processed. Passing nullptr (the default)
/// keeps the loop free of any deadline overhead.
void BlockedEaScan(const BlockedCodes& bc, size_t row_begin, size_t row_end,
                   const uint32_t* ids, const float* lut,
                   const uint32_t* lut_offsets, size_t s_limit,
                   size_t interval, const ScanKernel& kernel, float* acc,
                   TopKHeap* heap, SearchStats* stats,
                   StopController* stop = nullptr);

/// Tail of the query driver (SearchEncoded): stamps the degradation report
/// into `stats`, then either extracts the (possibly partial) best-so-far
/// heap into `out` — converting squared ADC estimates to distances — or
/// maps the stop cause to a Status. Cancellation always fails with
/// kCancelled and clears `out`; an expired deadline fails with
/// kDeadlineExceeded only when `strict_deadline` is set, and otherwise
/// degrades gracefully: OK status, partial results, stats->truncated.
Status FinalizeSearchResult(const StopController* stop, bool strict_deadline,
                            TopKHeap* heap, std::vector<Neighbor>* out,
                            SearchStats* stats, double wall_micros,
                            double cpu_micros = 0.0);

/// Feeds one finished query, whose record is `query`, into the global
/// metrics registry (DESIGN.md §10): outcome counters, latency histograms
/// (wall + CPU) and the record's scan-work counters. Also emits the sampled
/// slow-query log line (common/trace.h) when configured. Called once per
/// query by the query driver, after FinalizeSearchResult; deliberately
/// outside the scan loops so the hot path is untouched.
void RecordQueryTelemetry(const SearchStats& query, const Status& status,
                          const QueryTrace* trace);

}  // namespace vaq

#endif  // VAQ_CORE_SCAN_H_
