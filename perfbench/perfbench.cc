// Repository benchmark program: builds one seeded synthetic workload
// through the public VaqIndex / VaqIvfIndex API, runs the correctness
// gate, measures for a fixed time and prints one JSON result line.
//
//   perfbench --workload sift-ti --seed 1 --seconds 8 --trace 0
//             --tmp_dir .bench_build/tmp
//
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports
// the per-layer metrics from a separate traced run plus outside-timed
// probes of the build path. perfbench/README.md lists every metric.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/scan.h"
#include "core/ti_partition.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/vaq_ivf.h"

namespace vaq::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct SearchSettings {
  SearchMode mode;  ///< VaqIndex search mode
  double visit_fraction;
  size_t nprobe;    ///< VaqIvfIndex lists probed
};

struct WorkloadSpec {
  const char* name;
  SyntheticKind kind;
  size_t train_rows;  ///< rows passed to Train
  size_t add_rows;    ///< rows per Add call
  size_t num_adds;
  bool ivf;           ///< VaqIvfIndex instead of VaqIndex
  SearchSettings search;
  double recall_floor;
};

// Shapes are sized so that one run, three set-ups included, stays well
// inside the benchmark's per-run time budget on a 4-core machine.
constexpr WorkloadSpec kWorkloads[] = {
    {"sift-ti", SyntheticKind::kSiftLike, 5000, 5000, 2, false,
     {SearchMode::kTriangleInequality, 0.1, 0}, 0.55},
    {"sald-ea", SyntheticKind::kSaldLike, 5000, 25000, 2, false,
     {SearchMode::kEarlyAbandon, 1.0, 0}, 0.80},
    {"deep-ivf", SyntheticKind::kDeepLike, 8000, 0, 0, true,
     {SearchMode::kHeap, 1.0, 16}, 0.55},
};

// The traced run measures TI and IVF ranking on every workload, each with
// these settings on an index of the workload's own rows (see
// RankingProbes), whether or not the workload's queries rank.
constexpr SearchSettings kTiProbe = {SearchMode::kTriangleInequality, 0.1, 0};
constexpr SearchSettings kIvfProbe = {SearchMode::kHeap, 1.0, 16};

constexpr size_t kK = 100;
constexpr size_t kNumQueries = 1000;
constexpr size_t kGateQueries = 50;
constexpr size_t kSetups = 3;
constexpr int kKmeansIters = 10;
constexpr size_t kTiClusters = 500;
constexpr size_t kCoarseK = 256;
constexpr int64_t kBudgetsUs[] = {5, 50, 100};

/// Worker threads for batch search and the parallel build steps.
size_t Threads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

VaqOptions EncoderOptions() {
  VaqOptions o;
  o.num_subspaces = 32;
  o.total_bits = 256;
  o.kmeans_iters = kKmeansIters;
  o.ti_clusters = kTiClusters;
  o.train_threads = Threads();
  return o;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

FloatMatrix SliceRows(const FloatMatrix& m, size_t begin, size_t end) {
  FloatMatrix out(end - begin, m.cols());
  std::copy_n(m.row(begin), out.size(), out.data());
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

size_t HeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double BuildCounterSeconds(const char* name) {
  return static_cast<double>(
             MetricsRegistry::Global().GetCounter(name, "")->value()) *
         1e-6;
}

/// Counts operations and failures; every failure is also logged.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
    return ok;
  }
  bool Check(const Status& status, const std::string& what) {
    return Check(status.ok(), what + ": " + status.ToString());
  }
  void Count(size_t ops, size_t bad, const std::string& what) {
    attempted += ops;
    failed += bad;
    if (bad > 0) {
      std::fprintf(stderr, "perfbench: FAILED %zu of %zu %s\n", bad, ops,
                   what.c_str());
    }
  }
};

/// Ordered metric list, printed as the result line's "metrics" object.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

// ---------------------------------------------------------------------------
// One index of either family behind one query interface
// ---------------------------------------------------------------------------

struct QueryOptions {
  ScanKernelType kernel = ScanKernelType::kAuto;  ///< VaqIndex only
  QueryTrace* trace = nullptr;
  Deadline deadline;
  const SearchSettings* search = nullptr;  ///< overrides the index's
};

struct Index {
  bool is_ivf = false;  ///< `ivf` holds the index, else `flat`
  SearchSettings search{};
  VaqIndex flat;
  VaqIvfIndex ivf;

  size_t size() const { return is_ivf ? ivf.size() : flat.size(); }

  SearchParams FlatParams(const SearchSettings& s) const {
    SearchParams params;
    params.k = kK;
    params.mode = s.mode;
    params.visit_fraction = s.visit_fraction;
    return params;
  }

  Status Search(const float* query, const QueryOptions& qo,
                SearchScratch* scratch, std::vector<Neighbor>* out,
                SearchStats* stats) const {
    const SearchSettings& s = qo.search != nullptr ? *qo.search : search;
    if (is_ivf) {
      QueryControl control;
      control.deadline = qo.deadline;
      control.trace = qo.trace;
      return ivf.Search(query, kK, s.nprobe, control, scratch, out, stats);
    }
    SearchParams params = FlatParams(s);
    params.kernel = qo.kernel;
    params.trace = qo.trace;
    params.deadline = qo.deadline;
    return flat.Search(query, params, scratch, out, stats);
  }

  Status SearchBatch(const FloatMatrix& queries, size_t threads,
                     std::vector<std::vector<Neighbor>>* results,
                     std::vector<Status>* statuses) const {
    if (is_ivf) {
      return ivf.SearchBatchInto(queries, kK, search.nprobe, QueryControl{},
                                 threads, results, statuses);
    }
    return flat.SearchBatchInto(queries, FlatParams(search), threads, results,
                                statuses);
  }

  Status Save(const std::string& path) const {
    return is_ivf ? ivf.Save(path) : flat.Save(path);
  }

  Status LoadFrom(const std::string& path) {
    if (is_ivf) {
      Result<VaqIvfIndex> r = VaqIvfIndex::Load(path);
      if (!r.ok()) return r.status();
      ivf = std::move(r).value();
    } else {
      Result<VaqIndex> r = VaqIndex::Load(path);
      if (!r.ok()) return r.status();
      flat = std::move(r).value();
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Inputs: generated from the seed before any timing starts
// ---------------------------------------------------------------------------

struct Inputs {
  FloatMatrix base;                 ///< every indexed row, in insert order
  FloatMatrix train;                ///< base rows [0, train_rows)
  std::vector<FloatMatrix> chunks;  ///< one per Add call
  FloatMatrix queries;
  std::vector<std::vector<Neighbor>> truth;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  const size_t n = spec.train_rows + spec.add_rows * spec.num_adds;
  in.base = GenerateSynthetic(spec.kind, n, seed);
  in.train = SliceRows(in.base, 0, spec.train_rows);
  for (size_t a = 0; a < spec.num_adds; ++a) {
    const size_t begin = spec.train_rows + a * spec.add_rows;
    in.chunks.push_back(SliceRows(in.base, begin, begin + spec.add_rows));
  }
  in.queries = GenerateSyntheticQueries(spec.kind, kNumQueries,
                                        seed ^ 0x9E3779B97F4A7C15ULL);
  Result<std::vector<std::vector<Neighbor>>> truth =
      BruteForceKnn(in.base, in.queries, kK, Threads());
  if (truth.ok()) in.truth = std::move(truth).value();
  return in;
}

// ---------------------------------------------------------------------------
// Set-up: Train plus every Add
// ---------------------------------------------------------------------------

/// Wall time of one set-up, and of its steps that ingest rows: the sum of
/// the Add calls, or for IVF (which has no Add) the whole Train.
struct SetupTiming {
  double total_s = 0.0;
  double ingest_s = 0.0;
};

Result<VaqIvfIndex> TrainIvf(const FloatMatrix& rows, size_t nprobe,
                             ScanKernelType kernel) {
  VaqIvfOptions options;
  options.vaq = EncoderOptions();
  options.coarse_k = kCoarseK;
  options.default_nprobe = nprobe;
  options.scan_kernel = kernel;
  return VaqIvfIndex::Train(rows, options);
}

Status Setup(const WorkloadSpec& spec, const Inputs& in,
             ScanKernelType ivf_kernel, Index* index, SetupTiming* timing) {
  index->is_ivf = spec.ivf;
  index->search = spec.search;
  WallTimer total;
  if (spec.ivf) {
    Result<VaqIvfIndex> r = TrainIvf(in.train, spec.search.nprobe, ivf_kernel);
    if (!r.ok()) return r.status();
    index->ivf = std::move(r).value();
    timing->total_s = total.ElapsedSeconds();
    timing->ingest_s = timing->total_s;
    return Status::OK();
  }
  Result<VaqIndex> r = VaqIndex::Train(in.train, EncoderOptions());
  if (!r.ok()) return r.status();
  index->flat = std::move(r).value();
  for (const FloatMatrix& chunk : in.chunks) {
    WallTimer add;
    VAQ_RETURN_IF_ERROR(index->flat.Add(chunk));
    timing->ingest_s += add.ElapsedSeconds();
  }
  timing->total_s = total.ElapsedSeconds();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Query passes
// ---------------------------------------------------------------------------

/// One closed-loop pass over the whole query set with a single client:
/// the outside-timed wall time of every Search() call and, for a traced
/// pass, the summed time of each QueryTrace phase.
struct Pass {
  std::vector<double> us;
  double seconds = 0.0;
  double phase_us[kNumQueryPhases] = {};
};

/// Runs every query once, in order.
Pass TimedPass(const Index& index, const FloatMatrix& queries,
               const QueryOptions& qo, Tally* tally) {
  SearchScratch scratch;
  std::vector<Neighbor> out;
  Pass pass;
  pass.us.resize(queries.rows());
  size_t bad = 0;
  WallTimer pass_timer;
  for (size_t q = 0; q < queries.rows(); ++q) {
    WallTimer t;
    const Status s = index.Search(queries.row(q), qo, &scratch, &out, nullptr);
    pass.us[q] = t.ElapsedMicros();
    bad += s.ok() ? 0 : 1;
    if (qo.trace != nullptr) {
      for (int p = 0; p < kNumQueryPhases; ++p) {
        pass.phase_us[p] +=
            qo.trace->PhaseTotalMicros(static_cast<QueryPhase>(p));
      }
    }
  }
  pass.seconds = pass_timer.ElapsedSeconds();
  tally->Count(queries.rows(), bad, "single-client queries");
  return pass;
}

const Pass& Fastest(const std::vector<Pass>& passes) {
  return *std::min_element(
      passes.begin(), passes.end(),
      [](const Pass& a, const Pass& b) { return a.seconds < b.seconds; });
}

/// Mean time per query of one QueryTrace phase in a traced pass.
double PhaseMeanUs(const Pass& pass, QueryPhase phase) {
  return pass.phase_us[static_cast<int>(phase)] /
         static_cast<double>(pass.us.size());
}

/// Untimed pass over every query: the answers and the summed work counts.
SearchStats WorkPass(const Index& index, const QueryOptions& qo,
                     const FloatMatrix& queries, Tally* tally,
                     std::vector<std::vector<Neighbor>>* answers) {
  SearchScratch scratch;
  SearchStats work;
  answers->resize(queries.rows());
  size_t bad = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    SearchStats stats;
    bad += index.Search(queries.row(q), qo, &scratch, &(*answers)[q], &stats)
                   .ok()
               ? 0
               : 1;
    work.codes_visited += stats.codes_visited;
    work.lut_adds += stats.lut_adds;
    work.rows_scanned += stats.rows_scanned;
  }
  tally->Count(queries.rows(), bad, "work-pass queries");
  return work;
}

struct Latency {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
};

/// Contention from other tenants of the machine comes and goes over
/// seconds and slows every query while it lasts. Each query's latency is
/// therefore its median over passes spread across the run, and the
/// percentiles are over those per-query medians; qps is the median over
/// passes of each pass's throughput (queries ÷ pass wall time). A slow
/// stretch of a few passes does not move them; a slowdown that hits
/// calls in more than half of the passes does.
Latency MedianLatency(const std::vector<Pass>& passes) {
  const size_t nq = passes.front().us.size();
  std::vector<double> per_query(nq), samples(passes.size()), qps;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t p = 0; p < passes.size(); ++p) samples[p] = passes[p].us[q];
    per_query[q] = Median(samples);
  }
  for (const Pass& pass : passes) {
    qps.push_back(static_cast<double>(nq) / pass.seconds);
  }
  return {Percentile(per_query, 50), Percentile(per_query, 99), Median(qps)};
}

/// Batch passes of a run. Throughput counts the fastest quarter of the
/// batches (at least one): multi-threaded batches suffer most from
/// contention.
struct BatchPass {
  std::vector<double> batch_s;  ///< wall time of each admitted batch
  double qps(size_t batch_size) const {
    std::vector<double> fastest = batch_s;
    std::sort(fastest.begin(), fastest.end());
    fastest.resize(std::max<size_t>(1, fastest.size() / 4));
    double seconds = 0.0;
    for (double b : fastest) seconds += b;
    return static_cast<double>(fastest.size() * batch_size) / seconds;
  }
};

/// SearchBatchInto over the whole query set, repeated for `seconds`.
/// The first batch must reproduce the single-client answers.
void BatchQueryPass(const Index& index, const FloatMatrix& queries,
                    const std::vector<std::vector<Neighbor>>& expected,
                    double seconds, Tally* tally, BatchPass* pass) {
  std::vector<std::vector<Neighbor>> results;
  std::vector<Status> statuses;
  size_t batches = 0, shed = 0, queries_done = 0, bad = 0;
  WallTimer timer;
  do {
    WallTimer batch_timer;
    const Status s = index.SearchBatch(queries, Threads(), &results, &statuses);
    const double batch_s = batch_timer.ElapsedSeconds();
    ++batches;
    if (!s.ok()) {
      ++shed;
      continue;
    }
    queries_done += queries.rows();
    pass->batch_s.push_back(batch_s);
    for (const Status& qs : statuses) bad += qs.ok() ? 0 : 1;
    if (batches == 1) {
      tally->Check(results == expected, "batch results equal single-client");
    }
  } while (timer.ElapsedSeconds() < seconds);
  tally->Count(batches, shed, "batches admitted");
  tally->Count(queries_done, bad, "batch queries");
}

/// One pass over the query set per deadline budget: how often the result
/// was truncated, and the median time a budgeted query took to return. A
/// query returns at the first stop check past its budget, so where every
/// query is truncated the median minus the budget is the overshoot.
void BudgetedPasses(const Index& index, const FloatMatrix& queries,
                    Metrics* metrics, Tally* tally) {
  for (const int64_t budget : kBudgetsUs) {
    std::vector<double> us(queries.rows());
    size_t bad = 0, truncated = 0;
    SearchScratch scratch;
    std::vector<Neighbor> out;
    for (size_t q = 0; q < queries.rows(); ++q) {
      SearchStats stats;
      QueryOptions qo;
      WallTimer t;
      qo.deadline = Deadline::AfterMicros(budget);
      const Status s =
          index.Search(queries.row(q), qo, &scratch, &out, &stats);
      us[q] = t.ElapsedMicros();
      bad += s.ok() ? 0 : 1;
      truncated += stats.truncated ? 1 : 0;
    }
    tally->Count(queries.rows(), bad, "budgeted queries");
    const std::string suffix = ".budget_" + std::to_string(budget) + "us";
    metrics->Add("deadline.truncated_frac" + suffix,
                 static_cast<double>(truncated) /
                     static_cast<double>(queries.rows()),
                 "ratio");
    metrics->Add("deadline.p50_us" + suffix, Percentile(us, 50), "us");
  }
}

// ---------------------------------------------------------------------------
// Probes of single layers (traced run only)
// ---------------------------------------------------------------------------

/// TI and IVF ranking measured on an index of the workload's own rows
/// searched with kTiProbe and kIvfProbe: the fastest of three traced
/// passes gives each phase's mean per query. The workload's own index
/// serves where its family matches; the other family's index is passed in.
void RankingProbes(const Index& flat, const Index& ivf,
                   const FloatMatrix& queries, Metrics* metrics,
                   Tally* tally) {
  QueryTrace trace;
  QueryOptions qo;
  qo.trace = &trace;
  std::vector<Pass> ti_passes, ivf_passes;
  SetTracingEnabled(true);
  for (int rep = 0; rep < 3; ++rep) {
    qo.search = &kTiProbe;
    ti_passes.push_back(TimedPass(flat, queries, qo, tally));
    qo.search = &kIvfProbe;
    ivf_passes.push_back(TimedPass(ivf, queries, qo, tally));
  }
  SetTracingEnabled(false);
  const Pass& ti = Fastest(ti_passes);
  metrics->Add("ti_partition.rank_us",
               PhaseMeanUs(ti, QueryPhase::kPartitionRank), "us");
  metrics->Add("ti_partition.prune_us", PhaseMeanUs(ti, QueryPhase::kTiPrune),
               "us");
  metrics->Add("vaq_ivf.rank_us",
               PhaseMeanUs(Fastest(ivf_passes), QueryPhase::kPartitionRank),
               "us");

  // Codes that partition ranking and the TI bounds kept out of the scan:
  // every code whose accumulation never began.
  QueryOptions untraced;
  untraced.search = &kTiProbe;
  std::vector<std::vector<Neighbor>> answers;
  const SearchStats work = WorkPass(flat, untraced, queries, tally, &answers);
  metrics->Add("ti_partition.codes_skipped_frac",
               1.0 - static_cast<double>(work.codes_visited) /
                         (static_cast<double>(queries.rows()) *
                          static_cast<double>(flat.size())),
               "ratio");
}

/// Outside-timed probes of the codebook, TI and scan layers on `encoder`,
/// a VaqIndex over the workload's rows.
void RunProbes(const VaqIndex& encoder, const FloatMatrix& rows,
               const FloatMatrix& queries, Metrics* metrics, Tally* tally) {
  const VariableCodebooks& books = encoder.codebooks();
  const size_t n = rows.rows();

  FloatMatrix projected(n, encoder.dim());
  std::vector<float> buf;
  for (size_t r = 0; r < n; ++r) {
    encoder.ProjectQuery(rows.row(r), &buf);
    std::copy(buf.begin(), buf.end(), projected.row(r));
  }
  WallTimer encode_timer;
  Result<CodeMatrix> encoded = books.Encode(projected, 1);
  const double encode_s = encode_timer.ElapsedSeconds();
  if (!tally->Check(encoded.status(), "probe Encode")) return;
  const CodeMatrix& codes = encoded.value();
  metrics->Add("codebook.encode_us_per_vector",
               encode_s * 1e6 / static_cast<double>(n), "us");

  const size_t nq = std::min<size_t>(queries.rows(), 200);
  std::vector<std::vector<float>> projected_queries(nq);
  for (size_t q = 0; q < nq; ++q) {
    encoder.ProjectQuery(queries.row(q), &projected_queries[q]);
  }
  std::vector<float> lut;
  WallTimer lut_timer;
  for (size_t q = 0; q < nq; ++q) {
    books.BuildLookupTable(projected_queries[q].data(), &lut);
  }
  metrics->Add("codebook.lut_build_probe_us",
               lut_timer.ElapsedMicros() / static_cast<double>(nq), "us");

  std::vector<float> dists;
  WallTimer dist_timer;
  for (size_t q = 0; q < nq; ++q) {
    encoder.ti_partition().QueryDistances(projected_queries[q].data(),
                                          &dists);
  }
  metrics->Add("ti_partition.distances_probe_us",
               dist_timer.ElapsedMicros() / static_cast<double>(nq), "us");

  TiPartitionOptions topts;
  topts.num_clusters = encoder.options().ti_clusters;
  topts.prefix_subspaces = encoder.ti_partition().prefix_subspaces();
  topts.seed = encoder.options().seed ^ 0x7153A9F2ULL;
  topts.num_threads = encoder.options().train_threads;
  TiPartition ti;
  WallTimer ti_timer;
  const Status ti_status = ti.Build(codes, books, topts);
  metrics->Add("ti_partition.build_s", ti_timer.ElapsedSeconds(), "s");
  tally->Check(ti_status, "probe TiPartition::Build");

  std::vector<double> layout_s;
  BlockedCodes blocked;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer t;
    blocked = BlockedCodes::Build(codes);
    layout_s.push_back(t.ElapsedSeconds());
  }
  metrics->Add("scan.layout_build_s", Median(layout_s), "s");

  const size_t m = books.num_subspaces();
  std::vector<uint32_t> offsets(m);
  for (size_t s = 0; s < m; ++s) {
    offsets[s] = static_cast<uint32_t>(books.lut_offset(s));
  }
  const ScanKernel& kernel = GetScanKernel(ScanKernelType::kAuto);
  const size_t scans = std::max<size_t>(20, 5000000 / n);
  std::vector<std::vector<float>> luts(nq);
  for (size_t q = 0; q < nq; ++q) {
    books.BuildLookupTable(projected_queries[q].data(), &luts[q]);
  }
  float acc[kScanBlockSize];
  TopKHeap heap(kK);
  SearchStats stats;
  WallTimer scan_timer;
  for (size_t i = 0; i < scans; ++i) {
    heap.Reset(kK);
    BlockedFullScan(blocked, nullptr, luts[i % nq].data(), offsets.data(), m,
                    kernel, acc, &heap, &stats);
  }
  metrics->Add("scan.kernel_mrows_per_s",
               static_cast<double>(scans * n) / scan_timer.ElapsedSeconds() *
                   1e-6,
               "Mrows/s");
  metrics->Add("scan.code_bytes_per_vector",
               static_cast<double>(encoder.code_bytes()) /
                   static_cast<double>(encoder.size()),
               "bytes");
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

bool SameNeighbors(const Index& a, const QueryOptions& qa, const Index& b,
                   const QueryOptions& qb, const FloatMatrix& queries,
                   size_t count) {
  SearchScratch scratch;
  std::vector<Neighbor> ra, rb;
  for (size_t q = 0; q < count; ++q) {
    if (!a.Search(queries.row(q), qa, &scratch, &ra, nullptr).ok() ||
        !b.Search(queries.row(q), qb, &scratch, &rb, nullptr).ok() ||
        ra != rb) {
      return false;
    }
  }
  return true;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  std::string tmp_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--tmp_dir") {
      args->tmp_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

int Run(const WorkloadSpec& spec, const Args& args) {
  Tally tally;
  Metrics metrics;
  const Inputs in = MakeInputs(spec, args.seed);
  if (!tally.Check(in.truth.size() == in.queries.rows(), "ground truth")) {
    return 1;
  }

  // Set-ups. The first index is the one measured and queried; for IVF the
  // last set-up uses the scalar kernel (fixed at train time there) and is
  // kept for the kernel-equivalence gate. The untraced run measures one
  // round after every set-up, so that its samples span the whole run
  // (see MedianLatency).
  const size_t setups = args.trace ? (spec.ivf ? 2 : 1) : kSetups;
  const double round_s = args.seconds / static_cast<double>(setups);
  const double pca0 = BuildCounterSeconds("vaq_build_pca_us_total");
  const double book0 = BuildCounterSeconds("vaq_build_codebook_us_total");
  const double coarse0 = BuildCounterSeconds("vaq_build_coarse_us_total");
  Index index, scalar_index, loaded;
  loaded.is_ivf = spec.ivf;
  loaded.search = spec.search;
  std::vector<double> setup_s, load_s;
  size_t index_bytes = 0;
  double ingest_s = 0.0, pca_s = 0.0, book_s = 0.0, coarse_s = 0.0;
  std::vector<std::vector<Neighbor>> first;
  SearchStats work;
  double recall = 0.0;
  std::filesystem::create_directories(args.tmp_dir);
  const std::string path = args.tmp_dir + "/perfbench-" + spec.name + "-" +
                           std::to_string(::getpid()) + ".idx";
  std::vector<Pass> passes;
  for (size_t i = 0; i < setups; ++i) {
    const bool last_ivf = spec.ivf && i + 1 == setups;
    Index built;
    SetupTiming timing;
    const size_t heap_before = HeapBytes();
    const Status s = Setup(
        spec, in, last_ivf ? ScanKernelType::kScalar : ScanKernelType::kAuto,
        &built, &timing);
    if (!tally.Check(s, "set-up")) return 1;
    setup_s.push_back(timing.total_s);
    if (last_ivf) {
      scalar_index = std::move(built);
    } else if (i == 0) {
      index_bytes = HeapBytes() - heap_before;
      ingest_s = timing.ingest_s;
      pca_s = BuildCounterSeconds("vaq_build_pca_us_total") - pca0;
      book_s = BuildCounterSeconds("vaq_build_codebook_us_total") - book0;
      coarse_s = BuildCounterSeconds("vaq_build_coarse_us_total") - coarse0;
      index = std::move(built);

      // Untimed pass over every query: recall, exact work counts, warm-up.
      work = WorkPass(index, QueryOptions{}, in.queries, &tally, &first);
      recall = Recall(first, in.truth, kK);
      tally.Check(recall >= spec.recall_floor,
                  "recall " + std::to_string(recall) + " below floor " +
                      std::to_string(spec.recall_floor));
      if (!tally.Check(index.Save(path), "Save")) return 1;
    }
    if (args.trace) continue;
    // One round: single-client passes, each followed by one Load.
    WallTimer timer;
    do {
      passes.push_back(TimedPass(index, in.queries, QueryOptions{}, &tally));
      WallTimer t;
      const Status ls = loaded.LoadFrom(path);
      load_s.push_back(t.ElapsedSeconds());
      tally.Check(ls, "Load");
    } while (timer.ElapsedSeconds() < round_s);
  }
  if (args.trace) tally.Check(loaded.LoadFrom(path), "Load");
  const size_t n = index.size();
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);

  // Correctness gate: kAuto and kScalar kernels agree bit for bit, and the
  // saved-then-loaded index answers exactly like the built one.
  if (spec.ivf) {
    tally.Check(SameNeighbors(index, QueryOptions{}, scalar_index,
                              QueryOptions{}, in.queries, kGateQueries),
                "kAuto vs kScalar neighbors (IVF)");
  } else {
    QueryOptions scalar;
    scalar.kernel = ScanKernelType::kScalar;
    tally.Check(SameNeighbors(index, QueryOptions{}, index, scalar,
                              in.queries, kGateQueries),
                "kAuto vs kScalar neighbors");
  }
  tally.Check(SameNeighbors(index, QueryOptions{}, loaded, QueryOptions{},
                            in.queries, kGateQueries),
              "loaded index neighbors equal built index");

  if (!args.trace) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("load_s", Median(load_s), "s");
    metrics.Add("index_bytes_per_vector",
                static_cast<double>(index_bytes) / static_cast<double>(n),
                "bytes");
    metrics.Add("recall_at_100", recall, "ratio");
    const Latency single = MedianLatency(passes);
    metrics.Add("query_p50_us", single.p50_us, "us");
    metrics.Add("query_p99_us", single.p99_us, "us");
    metrics.Add("qps", single.qps, "1/s");
  } else {
    const double rows =
        static_cast<double>(in.queries.rows()) * static_cast<double>(n);

    // Every layer is measured on every workload. The layers a workload's
    // queries bypass are probed on an index of the other family over the
    // workload's own rows: flat workloads train an IVF index on their
    // training rows; deep-ivf trains a VaqIndex on its rows, which also
    // serves the codebook and scan probes (IVF exposes no encoder).
    Index other;
    other.is_ivf = !spec.ivf;
    if (spec.ivf) {
      Result<VaqIndex> r = VaqIndex::Train(in.train, EncoderOptions());
      if (!tally.Check(r.status(), "probe VaqIndex::Train")) return 1;
      other.flat = std::move(r).value();
    } else {
      const double c0 = BuildCounterSeconds("vaq_build_coarse_us_total");
      Result<VaqIvfIndex> r =
          TrainIvf(in.train, kIvfProbe.nprobe, ScanKernelType::kAuto);
      if (!tally.Check(r.status(), "probe VaqIvfIndex::Train")) return 1;
      coarse_s = BuildCounterSeconds("vaq_build_coarse_us_total") - c0;
      other.ivf = std::move(r).value();
    }
    const Index& flat = spec.ivf ? other : index;
    const Index& ivf = spec.ivf ? index : other;

    metrics.Add("linalg.pca_fit_s", pca_s, "s");
    metrics.Add("codebook.train_s", book_s, "s");
    metrics.Add("vaq_ivf.coarse_train_s", coarse_s, "s");
    const size_t ingested =
        spec.ivf ? spec.train_rows : spec.add_rows * spec.num_adds;
    metrics.Add("build.ingest_vectors_per_s",
                static_cast<double>(ingested) / ingest_s, "1/s");
    metrics.Add("scan.rows_scanned_frac",
                static_cast<double>(work.rows_scanned) / rows, "ratio");
    metrics.Add("scan.lut_adds_per_visited_row",
                static_cast<double>(work.lut_adds) /
                    static_cast<double>(std::max<size_t>(1, work.codes_visited)),
                "count");
    metrics.Add("serialize.file_bytes_per_vector",
                file_bytes / static_cast<double>(n), "bytes");

    // Untraced and traced passes alternate so that contention hits both
    // alike. The fastest traced pass gives the mean per-query time of each
    // QueryTrace phase; what its outside wall time has beyond their sum is
    // the search driver's own time.
    std::vector<Pass> untraced, traced;
    QueryTrace trace;
    QueryOptions traced_qo;
    traced_qo.trace = &trace;
    WallTimer timer;
    do {
      untraced.push_back(TimedPass(index, in.queries, QueryOptions{}, &tally));
      SetTracingEnabled(true);
      traced.push_back(TimedPass(index, in.queries, traced_qo, &tally));
      SetTracingEnabled(false);
    } while (timer.ElapsedSeconds() < 0.6 * args.seconds);
    const Pass& fastest = Fastest(traced);
    const double traced_mean_us = Mean(fastest.us);
    double phases_total = 0.0;
    for (int p = 0; p < kNumQueryPhases; ++p) {
      phases_total += PhaseMeanUs(fastest, static_cast<QueryPhase>(p));
    }
    metrics.Add("linalg.project_us",
                PhaseMeanUs(fastest, QueryPhase::kProject), "us");
    metrics.Add("codebook.lut_build_us",
                PhaseMeanUs(fastest, QueryPhase::kLutBuild), "us");
    metrics.Add("scan.block_scan_us",
                PhaseMeanUs(fastest, QueryPhase::kBlockScan), "us");
    metrics.Add("query.traced_wall_us", traced_mean_us, "us");
    metrics.Add("driver.self_us", traced_mean_us - phases_total, "us");
    const Latency untraced_latency = MedianLatency(untraced);
    metrics.Add("trace.overhead_ratio",
                MedianLatency(traced).p50_us / untraced_latency.p50_us,
                "ratio");

    BatchPass batch;
    BatchQueryPass(index, in.queries, first, 0.4 * args.seconds, &tally,
                   &batch);
    metrics.Add("search_batch.qps", batch.qps(in.queries.rows()), "1/s");
    metrics.Add("search_batch.speedup",
                batch.qps(in.queries.rows()) / untraced_latency.qps, "ratio");

    BudgetedPasses(index, in.queries, &metrics, &tally);
    RankingProbes(flat, ivf, in.queries, &metrics, &tally);
    RunProbes(flat.flat, in.base, in.queries, &metrics, &tally);
  }

  const bool correct = tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.items.size(); ++i) {
    const auto& [name, value_unit] = metrics.items[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), value_unit.first,
                value_unit.second.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vaq::perfbench

int main(int argc, char** argv) {
  using namespace vaq::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tmp_dir DIR]\n");
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) return Run(spec, args);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
