// Process-wide metrics registry, per-query phase tracing, and the
// telemetry glue between them (DESIGN.md §10).
//
// Exposition golden tests run against a LOCAL MetricsRegistry so they
// see exactly the metrics they register; the global registry (which
// accumulates across every test in this binary) is only probed for
// deltas and for the presence of the process-level callback metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/vaq_index.h"

namespace vaq {
namespace {

FloatMatrix Gaussian(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix data(n, d);
  for (size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return data;
}

// ---------------------------------------------------------------------------
// Primitive metric types.

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetIncrementDecrement) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.Set(10);
  g.Increment(5);
  g.Decrement(20);
  EXPECT_EQ(g.value(), -5);
}

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 is (-inf, 1]; bucket i is (2^(i-1), 2^i]; last is +Inf.
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 0u);  // boundary is inclusive
  EXPECT_EQ(Histogram::BucketIndex(1.0001), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2.0001), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4.0), 2u);
  // Largest finite bound is 2^26 (~67 s in microseconds).
  const double top = 67108864.0;  // 2^26
  EXPECT_EQ(Histogram::BucketIndex(top), Histogram::kNumBuckets - 2);
  EXPECT_EQ(Histogram::BucketIndex(top + 1.0), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(1e30), Histogram::kNumBuckets - 1);

  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 2),
                   top);
  EXPECT_TRUE(
      std::isinf(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));
}

TEST(HistogramTest, ObserveUpdatesCountSumAndBuckets) {
  Histogram h;
  h.Observe(0.5);   // bucket 0
  h.Observe(3.0);   // bucket 2
  h.Observe(3.5);   // bucket 2
  EXPECT_EQ(h.TotalCount(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 7.0);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 0u);
  EXPECT_EQ(h.BucketCount(2), 2u);
}

// ---------------------------------------------------------------------------
// Registry semantics.

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("c", "help");
  Counter* b = reg.GetCounter("c", "other help ignored on re-get");
  EXPECT_EQ(a, b);
  a->Increment(7);
  EXPECT_EQ(b->value(), 7u);
  EXPECT_EQ(reg.GetGauge("g", "h"), reg.GetGauge("g", "h"));
  EXPECT_EQ(reg.GetHistogram("h", "h"), reg.GetHistogram("h", "h"));
}

TEST(MetricsRegistryTest, ConcurrentUpdatesLoseNothing) {
  // The lock-free update contract: many threads hammering one counter and
  // one histogram through pointers obtained once. Run under the TSan CI
  // leg this also proves the relaxed-atomic paths are race-free.
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("hits", "concurrent hits");
  Histogram* h = reg.GetHistogram("lat", "concurrent observations");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c, h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(static_cast<double>((t + i) % 100));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->TotalCount(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h->BucketCount(i);
  }
  EXPECT_EQ(bucket_total, h->TotalCount());
}

TEST(MetricsRegistryTest, ConcurrentRegistrationYieldsOneMetric) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<Counter*> seen[kThreads] = {};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      Counter* c = reg.GetCounter("shared", "raced registration");
      c->Increment();
      seen[t].store(c);
    });
  }
  for (auto& th : threads) th.join();
  Counter* first = seen[0].load();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t].load(), first);
  EXPECT_EQ(first->value(), static_cast<uint64_t>(kThreads));
}

TEST(MetricsRegistryTest, ResetForTestingZeroesOwnedMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("c", "h")->Increment(5);
  reg.GetGauge("g", "h")->Set(-3);
  reg.GetHistogram("hist", "h")->Observe(2.0);
  reg.ResetForTesting();
  EXPECT_EQ(reg.GetCounter("c", "h")->value(), 0u);
  EXPECT_EQ(reg.GetGauge("g", "h")->value(), 0);
  EXPECT_EQ(reg.GetHistogram("hist", "h")->TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(reg.GetHistogram("hist", "h")->Sum(), 0.0);
}

TEST(MetricsRegistryTest, CallbackMetricsAreSampledAtDumpTime) {
  MetricsRegistry reg;
  int64_t level = 17;
  reg.RegisterCallbackGauge("depth", "live level", [&level] { return level; });
  uint64_t events = 3;
  reg.RegisterCallbackCounter("events_total", "live count",
                              [&events] { return events; });
  std::ostringstream os1;
  reg.Dump(os1, MetricsFormat::kPrometheus);
  EXPECT_NE(os1.str().find("depth 17"), std::string::npos);
  EXPECT_NE(os1.str().find("events_total 3"), std::string::npos);
  // The dump re-reads the source every time: no cached snapshot.
  level = -4;
  events = 9;
  std::ostringstream os2;
  reg.Dump(os2, MetricsFormat::kPrometheus);
  EXPECT_NE(os2.str().find("depth -4"), std::string::npos);
  EXPECT_NE(os2.str().find("events_total 9"), std::string::npos);
  // Re-registering replaces the callback.
  reg.RegisterCallbackGauge("depth", "live level", [] { return int64_t{99}; });
  std::ostringstream os3;
  reg.Dump(os3, MetricsFormat::kPrometheus);
  EXPECT_NE(os3.str().find("depth 99"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exposition golden strings (local registry => fully deterministic).

TEST(MetricsExpositionTest, PrometheusGolden) {
  MetricsRegistry reg;
  reg.GetCounter("test_counter", "A counter")->Increment(3);
  reg.GetGauge("test_gauge", "A gauge")->Set(-2);
  std::ostringstream os;
  reg.Dump(os, MetricsFormat::kPrometheus);
  EXPECT_EQ(os.str(),
            "# HELP test_counter A counter\n"
            "# TYPE test_counter counter\n"
            "test_counter 3\n"
            "# HELP test_gauge A gauge\n"
            "# TYPE test_gauge gauge\n"
            "test_gauge -2\n");
}

TEST(MetricsExpositionTest, JsonGolden) {
  MetricsRegistry reg;
  reg.GetCounter("test_counter", "A counter")->Increment(3);
  reg.GetGauge("test_gauge", "A gauge")->Set(-2);
  std::ostringstream os;
  reg.Dump(os, MetricsFormat::kJson);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"counters\": {\n"
            "    \"test_counter\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"test_gauge\": -2\n"
            "  },\n"
            "  \"histograms\": {}\n"
            "}\n");
}

TEST(MetricsExpositionTest, HistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h", "latency");
  h->Observe(0.5);  // bucket 0
  h->Observe(3.0);  // bucket 2
  std::ostringstream os;
  reg.Dump(os, MetricsFormat::kPrometheus);
  const std::string out = os.str();
  EXPECT_NE(out.find("# TYPE h histogram\n"), std::string::npos);
  EXPECT_NE(out.find("h_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("h_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("h_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("h_bucket{le=\"67108864\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("h_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("h_sum 3.5\n"), std::string::npos);
  EXPECT_NE(out.find("h_count 2\n"), std::string::npos);

  std::ostringstream js;
  reg.Dump(js, MetricsFormat::kJson);
  EXPECT_NE(js.str().find("\"h\": {\"count\": 2, \"sum\": 3.5, \"buckets\": "
                          "[{\"le\": 1, \"count\": 1}, "),
            std::string::npos);
  EXPECT_NE(js.str().find("{\"le\": \"+Inf\", \"count\": 2}]"),
            std::string::npos);
}

TEST(MetricsExpositionTest, GlobalDumpContainsProcessCallbackMetrics) {
  std::ostringstream os;
  DumpMetrics(os, MetricsFormat::kPrometheus);
  const std::string out = os.str();
  for (const char* name :
       {"vaq_pool_queue_depth", "vaq_pool_threads", "vaq_admission_in_flight",
        "vaq_admission_max_in_flight", "vaq_admission_admitted_batches_total",
        "vaq_admission_shed_batches_total"}) {
    EXPECT_NE(out.find(name), std::string::npos) << name;
  }
}

// ---------------------------------------------------------------------------
// Admission-controller telemetry accessors.

TEST(AdmissionTelemetryTest, AdmittedAndShedBatchesAreCounted) {
  AdmissionController controller(/*max_in_flight=*/4);
  EXPECT_EQ(controller.admitted_batches(), 0u);
  EXPECT_EQ(controller.shed_batches(), 0u);
  auto t1 = controller.TryAdmit(3);
  EXPECT_TRUE(t1.admitted());
  auto t2 = controller.TryAdmit(2);  // 3 + 2 > 4: shed
  EXPECT_FALSE(t2.admitted());
  auto t3 = controller.TryAdmit(1);
  EXPECT_TRUE(t3.admitted());
  EXPECT_EQ(controller.admitted_batches(), 2u);
  EXPECT_EQ(controller.shed_batches(), 1u);
  t1.Release();
  t3.Release();
  // Releases free capacity but never rewind the lifetime totals.
  EXPECT_EQ(controller.in_flight(), 0u);
  EXPECT_EQ(controller.admitted_batches(), 2u);
  EXPECT_EQ(controller.shed_batches(), 1u);
}

// ---------------------------------------------------------------------------
// QueryTrace / TraceSpan.

/// Restores the global tracing flag (tests must not leak it on).
class TracingTest : public ::testing::Test {
 protected:
  void TearDown() override { SetTracingEnabled(false); }
};

TEST_F(TracingTest, DisabledTraceRecordsNothing) {
  SetTracingEnabled(false);
  QueryTrace trace;
  EXPECT_FALSE(trace.enabled());
  {
    TraceSpan span(&trace, QueryPhase::kLutBuild);
  }
  { TraceSpan span(nullptr, QueryPhase::kBlockScan); }  // null is also a no-op
  EXPECT_EQ(trace.num_spans(), 0u);
  EXPECT_FALSE(trace.HasPhase(QueryPhase::kLutBuild));
  EXPECT_DOUBLE_EQ(trace.PhaseTotalMicros(QueryPhase::kLutBuild), 0.0);
}

TEST_F(TracingTest, FlagIsCapturedAtResetNotPerSpan) {
  SetTracingEnabled(false);
  QueryTrace trace;
  SetTracingEnabled(true);
  // The query already started with tracing off; mid-query flips must not
  // produce a half-traced record.
  {
    TraceSpan span(&trace, QueryPhase::kLutBuild);
  }
  EXPECT_EQ(trace.num_spans(), 0u);
  trace.Reset();  // next query re-samples the flag
  EXPECT_TRUE(trace.enabled());
  {
    TraceSpan span(&trace, QueryPhase::kLutBuild);
  }
  EXPECT_EQ(trace.num_spans(), 1u);
}

TEST_F(TracingTest, SpansRecordPhaseAndAggregate) {
  SetTracingEnabled(true);
  QueryTrace trace;
  trace.Record(QueryPhase::kLutBuild, 12.0);
  trace.Record(QueryPhase::kBlockScan, 5.0);
  trace.Record(QueryPhase::kBlockScan, 7.0);
  EXPECT_EQ(trace.num_spans(), 3u);
  EXPECT_EQ(trace.span(0).phase, QueryPhase::kLutBuild);
  EXPECT_EQ(trace.PhaseCount(QueryPhase::kBlockScan), 2u);
  EXPECT_DOUBLE_EQ(trace.PhaseTotalMicros(QueryPhase::kBlockScan), 12.0);
  EXPECT_TRUE(trace.HasPhase(QueryPhase::kLutBuild));
  const std::string s = trace.Format();
  EXPECT_NE(s.find("lut_build="), std::string::npos);
  EXPECT_NE(s.find("block_scan="), std::string::npos);
  EXPECT_NE(s.find("(x2)"), std::string::npos);
}

TEST_F(TracingTest, SpanOverflowDropsSpansButKeepsAggregates) {
  SetTracingEnabled(true);
  QueryTrace trace;
  const size_t total = QueryTrace::kMaxSpans + 5;
  for (size_t i = 0; i < total; ++i) {
    trace.Record(QueryPhase::kBlockScan, 1.0);
  }
  EXPECT_EQ(trace.num_spans(), QueryTrace::kMaxSpans);
  EXPECT_EQ(trace.dropped_spans(), 5u);
  // The aggregate view never truncates.
  EXPECT_EQ(trace.PhaseCount(QueryPhase::kBlockScan), total);
  EXPECT_DOUBLE_EQ(trace.PhaseTotalMicros(QueryPhase::kBlockScan),
                   static_cast<double>(total));
  EXPECT_NE(trace.Format().find("dropped"), std::string::npos);
}

TEST_F(TracingTest, EmptyTraceFormats) {
  SetTracingEnabled(true);
  QueryTrace trace;
  EXPECT_NE(trace.Format().find("no spans"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a real search feeds the trace, the registry, and the
// slow-query log.

class SearchTelemetryTest : public TracingTest {
 protected:
  static void SetUpTestSuite() {
    base_ = new FloatMatrix(Gaussian(2000, 16, 33));
    VaqOptions opts;
    opts.num_subspaces = 4;
    opts.total_bits = 24;
    opts.ti_clusters = 32;
    opts.kmeans_iters = 5;
    auto trained = VaqIndex::Train(*base_, opts);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    index_ = new VaqIndex(std::move(*trained));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete base_;
    index_ = nullptr;
    base_ = nullptr;
  }

  static const FloatMatrix* base_;
  static const VaqIndex* index_;
};

const FloatMatrix* SearchTelemetryTest::base_ = nullptr;
const VaqIndex* SearchTelemetryTest::index_ = nullptr;

TEST_F(SearchTelemetryTest, TracedSearchRecordsPipelinePhases) {
  SetTracingEnabled(true);
  QueryTrace trace;
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kTriangleInequality;
  params.visit_fraction = 1.0;
  params.trace = &trace;
  std::vector<Neighbor> result;
  SearchStats stats;
  ASSERT_TRUE(index_->Search(base_->row(3), params, &result, &stats).ok());
  EXPECT_TRUE(trace.enabled());
  EXPECT_TRUE(trace.HasPhase(QueryPhase::kProject));
  EXPECT_TRUE(trace.HasPhase(QueryPhase::kLutBuild));
  EXPECT_TRUE(trace.HasPhase(QueryPhase::kPartitionRank));
  EXPECT_TRUE(trace.HasPhase(QueryPhase::kBlockScan));
  // Phase wall time is a subset of the query's wall time.
  double traced = 0.0;
  for (int p = 0; p < kNumQueryPhases; ++p) {
    traced += trace.PhaseTotalMicros(static_cast<QueryPhase>(p));
  }
  EXPECT_GT(traced, 0.0);
  EXPECT_LE(traced, stats.wall_micros * 1.5 + 100.0);  // generous slack
}

TEST_F(SearchTelemetryTest, UntracedSearchLeavesTraceUntouched) {
  SetTracingEnabled(false);
  QueryTrace trace;  // constructed disabled
  SearchParams params;
  params.k = 5;
  params.trace = &trace;
  std::vector<Neighbor> result;
  ASSERT_TRUE(index_->Search(base_->row(4), params, &result).ok());
  EXPECT_EQ(trace.num_spans(), 0u);
}

TEST_F(SearchTelemetryTest, SearchFeedsGlobalRegistry) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* queries = reg.GetCounter("vaq_queries_total", "");
  Histogram* wall = reg.GetHistogram("vaq_query_wall_us", "");
  Histogram* cpu = reg.GetHistogram("vaq_query_cpu_us", "");
  Counter* rows = reg.GetCounter("vaq_scan_rows_scanned_total", "");
  const uint64_t queries_before = queries->value();
  const uint64_t wall_before = wall->TotalCount();
  const uint64_t cpu_before = cpu->TotalCount();
  const uint64_t rows_before = rows->value();

  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kTriangleInequality;
  params.visit_fraction = 1.0;
  std::vector<Neighbor> result;
  SearchStats stats;
  ASSERT_TRUE(index_->Search(base_->row(5), params, &result, &stats).ok());

  EXPECT_EQ(queries->value(), queries_before + 1);
  EXPECT_EQ(wall->TotalCount(), wall_before + 1);
  EXPECT_EQ(cpu->TotalCount(), cpu_before + 1);
  EXPECT_EQ(rows->value(), rows_before + stats.rows_scanned);
  // CPU time rides along in the per-query stats as well.
  EXPECT_GT(stats.wall_micros, 0.0);
  EXPECT_GE(stats.cpu_micros, 0.0);
}

TEST_F(SearchTelemetryTest, ReusedStatsDoNotDoubleCount) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* rows = reg.GetCounter("vaq_scan_rows_scanned_total", "");
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kHeap;
  std::vector<Neighbor> result;
  SearchStats stats;  // reused across both queries, never reset by caller
  ASSERT_TRUE(index_->Search(base_->row(6), params, &result, &stats).ok());
  const size_t rows_one_query = stats.rows_scanned;
  const uint64_t before = rows->value();
  ASSERT_TRUE(index_->Search(base_->row(6), params, &result, &stats).ok());
  // The registry must see only the second query's rows, not the running
  // total accumulated in the reused stats struct.
  EXPECT_EQ(rows->value(), before + rows_one_query);

  // Each ranked query counts its own partitions from zero, so the
  // partitions counter grows by that query's count, and a flat query
  // after a ranked one adds nothing.
  Counter* partitions =
      reg.GetCounter("vaq_scan_partitions_visited_total", "");
  params.mode = SearchMode::kTriangleInequality;
  for (const double visit : {1.0, 0.5}) {
    params.visit_fraction = visit;
    const uint64_t partitions_before = partitions->value();
    ASSERT_TRUE(index_->Search(base_->row(6), params, &result, &stats).ok());
    EXPECT_GT(stats.partitions_visited, 0u);
    EXPECT_EQ(partitions->value(),
              partitions_before + stats.partitions_visited)
        << "visit_fraction " << visit;
  }
  params.mode = SearchMode::kHeap;
  const uint64_t partitions_before = partitions->value();
  ASSERT_TRUE(index_->Search(base_->row(6), params, &result, &stats).ok());
  EXPECT_EQ(partitions->value(), partitions_before);
}

TEST_F(SearchTelemetryTest, QueriesWithoutStatsFeedTheScanCounters) {
  // The registry counts a query's work whether or not the caller passes a
  // SearchStats: one at a time and in a batch, the counters grow by what
  // the same queries report in their records.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* rows = reg.GetCounter("vaq_scan_rows_scanned_total", "");
  Counter* adds = reg.GetCounter("vaq_scan_lut_adds_total", "");
  FloatMatrix queries(8, base_->cols());
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::copy_n(base_->row(10 + 37 * q), base_->cols(), queries.row(q));
  }
  std::vector<std::vector<Neighbor>> results;
  for (const SearchMode mode :
       {SearchMode::kHeap, SearchMode::kEarlyAbandon,
        SearchMode::kTriangleInequality}) {
    SearchParams params;
    params.k = 10;
    params.mode = mode;
    std::vector<SearchStats> records;
    ASSERT_TRUE(index_->SearchBatchInto(queries, params, 1, &results,
                                        nullptr, &records)
                    .ok());
    uint64_t want_rows = 0;
    uint64_t want_adds = 0;
    for (const SearchStats& r : records) {
      want_rows += r.rows_scanned;
      want_adds += r.lut_adds;
    }
    ASSERT_GT(want_rows, 0u);

    uint64_t rows_before = rows->value();
    uint64_t adds_before = adds->value();
    std::vector<Neighbor> result;
    for (size_t q = 0; q < queries.rows(); ++q) {
      ASSERT_TRUE(
          index_->Search(queries.row(q), params, &result, nullptr).ok());
    }
    EXPECT_EQ(rows->value() - rows_before, want_rows)
        << "Search, mode " << static_cast<int>(mode);
    EXPECT_EQ(adds->value() - adds_before, want_adds)
        << "Search, mode " << static_cast<int>(mode);

    for (const size_t threads : {size_t{1}, size_t{4}}) {
      rows_before = rows->value();
      adds_before = adds->value();
      ASSERT_TRUE(
          index_->SearchBatchInto(queries, params, threads, &results).ok());
      EXPECT_EQ(rows->value() - rows_before, want_rows)
          << "batch, mode " << static_cast<int>(mode) << ", " << threads
          << " threads";
      EXPECT_EQ(adds->value() - adds_before, want_adds)
          << "batch, mode " << static_cast<int>(mode) << ", " << threads
          << " threads";
    }
  }
}

// Captured log lines for the slow-query test (plain function pointer
// sink => file-scope storage).
std::mutex g_log_mu;
std::vector<std::string> g_log_lines;

void CaptureLog(LogLevel level, const char* message) {
  (void)level;
  std::lock_guard<std::mutex> lock(g_log_mu);
  g_log_lines.emplace_back(message);
}

TEST_F(SearchTelemetryTest, SlowQueryLogFiresAboveThreshold) {
  {
    std::lock_guard<std::mutex> lock(g_log_mu);
    g_log_lines.clear();
  }
  SetLogSinkForTesting(&CaptureLog);
  SetSlowQueryLogThresholdMicros(1e-3);  // every real query is "slow"
  SetSlowQueryLogSampleEvery(1);
  SetTracingEnabled(true);
  QueryTrace trace;
  SearchParams params;
  params.k = 10;
  params.mode = SearchMode::kTriangleInequality;
  params.trace = &trace;
  std::vector<Neighbor> result;
  Status st = index_->Search(base_->row(7), params, &result);
  SetSlowQueryLogThresholdMicros(0.0);  // disable again
  SetLogSinkForTesting(nullptr);
  ASSERT_TRUE(st.ok());
  std::lock_guard<std::mutex> lock(g_log_mu);
  ASSERT_FALSE(g_log_lines.empty());
  bool found = false;
  for (const std::string& line : g_log_lines) {
    if (line.find("slow query") != std::string::npos &&
        line.find("block_scan=") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no slow-query line with a trace summary captured";
}

TEST(SlowQueryConfigTest, ThresholdAndSamplingRoundTrip) {
  EXPECT_DOUBLE_EQ(SlowQueryLogThresholdMicros(), 0.0);  // default: off
  SetSlowQueryLogThresholdMicros(1500.0);
  EXPECT_DOUBLE_EQ(SlowQueryLogThresholdMicros(), 1500.0);
  SetSlowQueryLogThresholdMicros(-1.0);  // <= 0 disables
  EXPECT_DOUBLE_EQ(SlowQueryLogThresholdMicros(), -1.0);
  SetSlowQueryLogThresholdMicros(0.0);

  SetSlowQueryLogSampleEvery(0);  // 0 is clamped to 1 (log all)
  EXPECT_EQ(SlowQueryLogSampleEvery(), 1u);
  SetSlowQueryLogSampleEvery(3);
  EXPECT_EQ(SlowQueryLogSampleEvery(), 3u);
  int logged = 0;
  for (int i = 0; i < 9; ++i) logged += ShouldLogSlowQuery() ? 1 : 0;
  EXPECT_EQ(logged, 3);  // one in every three
  SetSlowQueryLogSampleEvery(1);
}

TEST(BuildTelemetryTest, TrainAccountsEveryStage) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* builds = reg.GetCounter("vaq_builds_total", "");
  const uint64_t builds_before = builds->value();
  const char* stages[] = {
      "vaq_build_pca_us_total",      "vaq_build_subspace_us_total",
      "vaq_build_allocation_us_total", "vaq_build_codebook_us_total",
      "vaq_build_encode_us_total",   "vaq_build_ti_us_total",
      "vaq_build_scan_layout_us_total"};
  uint64_t stage_before[7];
  for (int i = 0; i < 7; ++i) {
    stage_before[i] = reg.GetCounter(stages[i], "")->value();
  }
  const FloatMatrix data = Gaussian(1500, 16, 99);
  VaqOptions opts;
  opts.num_subspaces = 4;
  opts.total_bits = 24;
  opts.ti_clusters = 16;
  opts.kmeans_iters = 5;
  auto trained = VaqIndex::Train(data, opts);
  ASSERT_TRUE(trained.ok());
  EXPECT_EQ(builds->value(), builds_before + 1);
  for (int i = 0; i < 7; ++i) {
    // Stage timers count integer microseconds; a stage can legitimately
    // round to 0 on a tiny build, so assert monotonicity, not growth.
    EXPECT_GE(reg.GetCounter(stages[i], "")->value(), stage_before[i])
        << stages[i];
  }
  // PCA + codebook training dominate and always take measurable time.
  EXPECT_GT(reg.GetCounter("vaq_build_codebook_us_total", "")->value(),
            stage_before[3]);
}

}  // namespace
}  // namespace vaq
