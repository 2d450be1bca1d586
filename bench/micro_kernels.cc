// Google-benchmark microbenchmarks of the hot kernels behind every
// table/figure: distance computation, lookup-table builds and encoding per
// subspace width, the centroid kernel's distances and fused nearest entry,
// partition ranking, ADC scans with and without the pruning cascade, and
// k-means assignment.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "clustering/centroid_kernel.h"
#include "clustering/kmeans.h"
#include "common/rng.h"
#include "core/codebook.h"
#include "core/scan.h"
#include "core/search_driver.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"

namespace vaq {
namespace {

FloatMatrix RandomData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix data(n, d);
  for (size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return data;
}

void BM_SquaredL2(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const FloatMatrix data = RandomData(2, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredL2(data.row(0), data.row(1), d));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_SquaredL2)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

// One assignment pass of Lloyd's k-means (AssignAll transposes the
// centroids once, then runs the fused nearest-centroid kernel per row).
void BM_KMeansAssign(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const FloatMatrix data = RandomData(4096, 16, 2);
  KMeans km;
  KMeansOptions opts;
  opts.k = k;
  opts.max_iters = 5;
  VAQ_CHECK(km.Train(data, opts).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(km.AssignAll(data).data());
  }
  state.SetLabel(GetCentroidKernel().name);
  state.SetItemsProcessed(state.iterations() * data.rows());
}
BENCHMARK(BM_KMeansAssign)->Arg(16)->Arg(256)->Arg(1024);

struct ScanFixture {
  FloatMatrix base;
  FloatMatrix queries;
  VaqIndex index;

  static const ScanFixture& Get() {
    static const ScanFixture* fixture = [] {
      auto* f = new ScanFixture();
      f->base = GenerateSynthetic(SyntheticKind::kSiftLike, 20000, 3);
      f->queries = GenerateSyntheticQueries(SyntheticKind::kSiftLike, 64, 3);
      VaqOptions opts;
      opts.num_subspaces = 16;
      opts.total_bits = 128;
      opts.ti_clusters = 500;
      auto index = VaqIndex::Train(f->base, opts);
      VAQ_CHECK(index.ok());
      f->index = std::move(*index);
      return f;
    }();
    return *fixture;
  }
};

void ScanBenchmark(benchmark::State& state, SearchMode mode, double visit) {
  const ScanFixture& fixture = ScanFixture::Get();
  SearchParams params;
  params.k = 100;
  params.mode = mode;
  params.visit_fraction = visit;
  SearchScratch scratch;
  std::vector<Neighbor> out;
  size_t q = 0;
  for (auto _ : state) {
    VAQ_CHECK(fixture.index.Search(fixture.queries.row(q), params, &scratch,
                                   &out)
                  .ok());
    benchmark::DoNotOptimize(out.data());
    q = (q + 1) & 63;
  }
  state.SetItemsProcessed(state.iterations() * fixture.index.size());
}

void BM_VaqScanHeap(benchmark::State& state) {
  ScanBenchmark(state, SearchMode::kHeap, 1.0);
}
void BM_VaqScanEarlyAbandon(benchmark::State& state) {
  ScanBenchmark(state, SearchMode::kEarlyAbandon, 1.0);
}
void BM_VaqScanTiEa25(benchmark::State& state) {
  ScanBenchmark(state, SearchMode::kTriangleInequality, 0.25);
}
void BM_VaqScanTiEa10(benchmark::State& state) {
  ScanBenchmark(state, SearchMode::kTriangleInequality, 0.10);
}
BENCHMARK(BM_VaqScanHeap);
BENCHMARK(BM_VaqScanEarlyAbandon);
BENCHMARK(BM_VaqScanTiEa25);
BENCHMARK(BM_VaqScanTiEa10);

// ---------------------------------------------------------------------------
// Kernel-level ADC scan: the acceptance benchmark for the blocked scan
// layer. Synthetic codes and LUT (no training) at the paper's default
// width m=32 over n >= 100k codes, full accumulation into a top-100 heap
// (SearchMode::kHeap). "Reference" is the pre-blocking row-at-a-time
// gather; the blocked scalar and AVX2 kernels must beat it.
// ---------------------------------------------------------------------------

struct AdcScanFixture {
  static constexpr size_t kRows = 131072;
  static constexpr size_t kSubspaces = 32;
  static constexpr size_t kBitsPerSubspace = 8;

  CodeMatrix codes;
  std::vector<float> lut;
  std::vector<uint32_t> lut_offsets;
  BlockedCodes blocked;

  static const AdcScanFixture& Get() {
    static const AdcScanFixture* fixture = [] {
      auto* f = new AdcScanFixture();
      Rng rng(99);
      const size_t dict = size_t{1} << kBitsPerSubspace;
      f->lut.resize(kSubspaces * dict);
      for (float& v : f->lut) v = rng.NextFloat();
      f->lut_offsets.resize(kSubspaces);
      for (size_t s = 0; s < kSubspaces; ++s) {
        f->lut_offsets[s] = static_cast<uint32_t>(s * dict);
      }
      f->codes.Resize(kRows, kSubspaces);
      for (size_t i = 0; i < f->codes.size(); ++i) {
        f->codes.data()[i] = static_cast<uint16_t>(rng.NextIndex(dict));
      }
      f->blocked = BlockedCodes::Build(f->codes);
      return f;
    }();
    return *fixture;
  }
};

void BM_AdcFullScanReference(benchmark::State& state) {
  const AdcScanFixture& f = AdcScanFixture::Get();
  TopKHeap heap(100);
  for (auto _ : state) {
    heap.Reset(100);
    for (size_t r = 0; r < AdcScanFixture::kRows; ++r) {
      const uint16_t* code = f.codes.row(r);
      float acc = 0.f;
      for (size_t s = 0; s < AdcScanFixture::kSubspaces; ++s) {
        acc += f.lut[f.lut_offsets[s] + code[s]];
      }
      heap.Push(acc, static_cast<int64_t>(r));
    }
    benchmark::DoNotOptimize(heap.Threshold());
  }
  state.SetItemsProcessed(state.iterations() * AdcScanFixture::kRows);
}
BENCHMARK(BM_AdcFullScanReference);

void AdcBlockedScanBenchmark(benchmark::State& state, ScanKernelType type) {
  const AdcScanFixture& f = AdcScanFixture::Get();
  const ScanKernel& kernel = GetScanKernel(type);
  TopKHeap heap(100);
  float acc[kScanBlockSize];
  for (auto _ : state) {
    heap.Reset(100);
    BlockedFullScan(f.blocked, nullptr, f.lut.data(), f.lut_offsets.data(),
                    AdcScanFixture::kSubspaces, kernel, acc, &heap,
                    nullptr);
    benchmark::DoNotOptimize(heap.Threshold());
  }
  state.SetLabel(kernel.name);
  state.SetItemsProcessed(state.iterations() * AdcScanFixture::kRows);
}

void BM_AdcFullScanBlockedScalar(benchmark::State& state) {
  AdcBlockedScanBenchmark(state, ScanKernelType::kScalar);
}
void BM_AdcFullScanBlockedSimd(benchmark::State& state) {
  if (!Avx2KernelsAvailable()) {
    state.SkipWithError("AVX2 scan kernel not available on this machine");
    return;
  }
  AdcBlockedScanBenchmark(state, ScanKernelType::kAvx2);
}
BENCHMARK(BM_AdcFullScanBlockedScalar);
BENCHMARK(BM_AdcFullScanBlockedSimd);

// ---------------------------------------------------------------------------
// Lookup-table build and encoding per subspace width: 3 dims (96-d at
// m=32, as DEEP) and 4 dims (128-d at m=32, as SIFT), 8 bits per subspace
// (the paper's 256-bit budget). BM_BuildLookupTable and BM_VaqEncodeRow
// call the public API on the dispatched kernel (labelled); the Scalar/Simd
// pairs time one lookup table's worth of centroid-distance kernel calls —
// the work both the table build and the encoder's candidate search do —
// on each instruction set.
// ---------------------------------------------------------------------------

struct CodebookFixture {
  static constexpr size_t kSubspaces = 32;
  static constexpr int kBits = 8;

  VariableCodebooks books;
  FloatMatrix queries;

  static const CodebookFixture& Get(size_t width) {
    static std::map<size_t, const CodebookFixture*> fixtures;
    const CodebookFixture*& fixture = fixtures[width];
    if (fixture == nullptr) {
      auto* f = new CodebookFixture();
      const size_t dim = kSubspaces * width;
      auto layout = SubspaceLayout::Uniform(dim, kSubspaces);
      VAQ_CHECK(layout.ok());
      CodebookOptions opts;
      opts.kmeans_iters = 3;
      VAQ_CHECK(f->books
                    .Train(RandomData(4096, dim, 5 + width), *layout,
                           std::vector<int>(kSubspaces, kBits), opts)
                    .ok());
      f->queries = RandomData(64, dim, 6 + width);
      fixture = f;
    }
    return *fixture;
  }
};

void BM_VaqEncodeRow(benchmark::State& state) {
  const CodebookFixture& f =
      CodebookFixture::Get(static_cast<size_t>(state.range(0)));
  std::vector<uint16_t> code(f.books.num_subspaces());
  size_t q = 0;
  for (auto _ : state) {
    f.books.EncodeRow(f.queries.row(q), code.data());
    benchmark::DoNotOptimize(code.data());
    benchmark::ClobberMemory();
    q = (q + 1) & 63;
  }
  state.SetLabel(GetCentroidKernel().name);
}
BENCHMARK(BM_VaqEncodeRow)->ArgName("width")->Arg(3)->Arg(4);

void BM_BuildLookupTable(benchmark::State& state) {
  const CodebookFixture& f =
      CodebookFixture::Get(static_cast<size_t>(state.range(0)));
  std::vector<float> lut;
  size_t q = 0;
  for (auto _ : state) {
    f.books.BuildLookupTable(f.queries.row(q), &lut);
    benchmark::DoNotOptimize(lut.data());
    benchmark::ClobberMemory();
    q = (q + 1) & 63;
  }
  state.SetLabel(GetCentroidKernel().name);
  state.SetItemsProcessed(state.iterations() * f.books.lut_entries());
}
BENCHMARK(BM_BuildLookupTable)->ArgName("width")->Arg(3)->Arg(4);

void CentroidDistancesBenchmark(benchmark::State& state,
                                ScanKernelType type) {
  const CodebookFixture& f =
      CodebookFixture::Get(static_cast<size_t>(state.range(0)));
  const CentroidKernel& kernel = GetCentroidKernel(type);
  std::vector<float> lut(f.books.lut_entries());
  size_t q = 0;
  for (auto _ : state) {
    for (size_t s = 0; s < f.books.num_subspaces(); ++s) {
      const SubspaceSpan& span = f.books.layout().span(s);
      const FloatMatrix& dict = f.books.dictionary(s);
      kernel.distances(f.queries.row(q) + span.offset, dict.data(),
                       span.length, dict.cols(), dict.cols(),
                       lut.data() + f.books.lut_offset(s));
    }
    benchmark::DoNotOptimize(lut.data());
    benchmark::ClobberMemory();
    q = (q + 1) & 63;
  }
  state.SetLabel(kernel.name);
  state.SetItemsProcessed(state.iterations() * f.books.lut_entries());
}

void BM_CentroidDistancesScalar(benchmark::State& state) {
  CentroidDistancesBenchmark(state, ScanKernelType::kScalar);
}
void BM_CentroidDistancesSimd(benchmark::State& state) {
  if (!Avx2KernelsAvailable()) {
    state.SkipWithError("AVX2 kernels not available on this machine");
    return;
  }
  CentroidDistancesBenchmark(state, ScanKernelType::kAvx2);
}
BENCHMARK(BM_CentroidDistancesScalar)->ArgName("width")->Arg(3)->Arg(4);
BENCHMARK(BM_CentroidDistancesSimd)->ArgName("width")->Arg(3)->Arg(4);

// The fused nearest-centroid entry (distances + strict first minimum) over
// one 256-entry dictionary of `len` dims: the inner step of k-means
// assignment and of encoding.
void CentroidNearestBenchmark(benchmark::State& state,
                              ScanKernelType type) {
  constexpr size_t kCentroids = 256;
  const size_t len = static_cast<size_t>(state.range(0));
  const FloatMatrix table = RandomData(len, kCentroids, 7 + len);
  const FloatMatrix queries = RandomData(64, len, 8 + len);
  const CentroidKernel& kernel = GetCentroidKernel(type);
  size_t q = 0;
  for (auto _ : state) {
    float distance = 0.f;
    benchmark::DoNotOptimize(kernel.nearest(queries.row(q), table.data(), len,
                                            kCentroids, kCentroids, &distance));
    q = (q + 1) & 63;
  }
  state.SetLabel(kernel.name);
  state.SetItemsProcessed(state.iterations() * kCentroids);
}

void BM_CentroidNearestScalar(benchmark::State& state) {
  CentroidNearestBenchmark(state, ScanKernelType::kScalar);
}
void BM_CentroidNearestSimd(benchmark::State& state) {
  if (!Avx2KernelsAvailable()) {
    state.SkipWithError("AVX2 kernels not available on this machine");
    return;
  }
  CentroidNearestBenchmark(state, ScanKernelType::kAvx2);
}
BENCHMARK(BM_CentroidNearestScalar)->ArgName("len")->Arg(3)->Arg(4)->Arg(8);
BENCHMARK(BM_CentroidNearestSimd)->ArgName("len")->Arg(3)->Arg(4)->Arg(8);

// Algorithm 4's partition ranking (RankPartitions): the dispatched centroid
// kernel's distances to `parts` dimension-major centroids of `dims` dims,
// then the bucket select of the `visit` nearest. 256 x 96 at visit 16 is
// an IVF coarse ranking over DEEP-like data (nprobe 16); 500 x 68 at visit
// 50 and 500 x 48 at visit 8 are TI rankings of 500 clusters.
void BM_RankPartitions(benchmark::State& state) {
  const auto parts = static_cast<size_t>(state.range(0));
  const auto dims = static_cast<size_t>(state.range(1));
  const auto visit = static_cast<size_t>(state.range(2));
  const FloatMatrix centroids = RandomData(dims, parts, 9 + dims);
  const FloatMatrix queries = RandomData(64, dims, 10 + dims);
  SearchScratch scratch;
  size_t q = 0;
  for (auto _ : state) {
    RankPartitions(queries.row(q), centroids, visit, ScanKernelType::kAuto,
                   &scratch);
    benchmark::DoNotOptimize(scratch.ranking.data());
    benchmark::ClobberMemory();
    q = (q + 1) & 63;
  }
  state.SetLabel(GetCentroidKernel().name);
  state.SetItemsProcessed(state.iterations() * parts);
}
BENCHMARK(BM_RankPartitions)
    ->ArgNames({"parts", "dims", "visit"})
    ->Args({256, 96, 16})
    ->Args({500, 68, 50})
    ->Args({500, 48, 8});

}  // namespace
}  // namespace vaq

// Custom main instead of BENCHMARK_MAIN(): supports `--scan_json[=path]`,
// which expands to google-benchmark's JSON file reporter (default path
// BENCH_scan.json in the working directory) so perf-trajectory runs can
// diff scan throughput across commits without bespoke parsing.
int main(int argc, char** argv) {
  std::vector<std::string> storage(argv, argv + argc);
  std::string out_path;
  for (auto it = storage.begin(); it != storage.end();) {
    if (*it == "--scan_json") {
      out_path = "BENCH_scan.json";
      it = storage.erase(it);
    } else if (it->rfind("--scan_json=", 0) == 0) {
      out_path = it->substr(std::string("--scan_json=").size());
      it = storage.erase(it);
    } else {
      ++it;
    }
  }
  if (!out_path.empty()) {
    storage.push_back("--benchmark_out=" + out_path);
    storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int argc_adjusted = static_cast<int>(args.size());
  benchmark::Initialize(&argc_adjusted, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc_adjusted, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
