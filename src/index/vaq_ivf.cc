#include "index/vaq_ivf.h"

#include <algorithm>
#include <utility>

#include "clustering/kmeans.h"
#include "common/io.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "core/search_batch.h"

namespace vaq {
namespace {

/// The driver's parameters for an IVF query: early abandon inside the
/// lists, with the configured scan kernel.
SearchParams DriverParams(size_t k, const QueryControl& control,
                          ScanKernelType kernel) {
  SearchParams params;
  static_cast<QueryControl&>(params) = control;
  params.k = k;
  params.mode = SearchMode::kEarlyAbandon;
  params.kernel = kernel;
  return params;
}

}  // namespace

Result<VaqIvfIndex> VaqIvfIndex::Train(const FloatMatrix& data,
                                       const VaqIvfOptions& options) {
  if (options.coarse_k == 0) {
    return Status::InvalidArgument("coarse_k must be >= 1");
  }
  if (options.default_nprobe == 0) {
    return Status::InvalidArgument("default_nprobe must be >= 1");
  }
  if (!IsScanKernelType(options.scan_kernel)) {
    return Status::InvalidArgument("unknown ScanKernelType value");
  }
  VaqIvfIndex index;
  index.options_ = options;
  const VaqOptions& vopts = options.vaq;
  VaqEncoder::TrainedRows rows;
  VAQ_RETURN_IF_ERROR(index.encoder_.Train(data, vopts, &rows));

  // IVF part: trained coarse k-means over the projected vectors (instead
  // of VaqIndex's random-sample TI centroids), with the same build
  // accounting as the encoder stages (DESIGN.md §10).
  MetricsRegistry& reg = MetricsRegistry::Global();
  double coarse_us = 0.0;
  KMeans coarse;
  Partitioning lists;
  {
    StageTimer st(
        reg.GetCounter("vaq_build_coarse_us_total",
                       "Cumulative coarse quantizer training time (us)"),
        &coarse_us);
    KMeansOptions kopts;
    kopts.k = std::min(options.coarse_k, data.rows());
    kopts.max_iters = vopts.kmeans_iters;
    kopts.seed = vopts.seed ^ 0x51F15EEDULL;
    VAQ_RETURN_IF_ERROR(
        coarse.Train(rows.projected, kopts, vopts.train_threads));
    lists = Partitioning::FromAssignment(
        coarse.AssignAll(rows.projected, vopts.train_threads), coarse.k());
  }
  index.lists_ = PartitionedCodes(rows.codes, std::move(lists),
                                  coarse.TakeCentroids());
  reg.GetCounter("vaq_builds_total", "Index builds completed")->Increment();
  VAQ_LOG(LogLevel::kDebug,
          "VaqIvfIndex build report: n=%zu d=%zu m=%zu pca=%.0fus "
          "subspace=%.0fus allocation=%.0fus codebook=%.0fus encode=%.0fus "
          "coarse=%.0fus",
          data.rows(), data.cols(), vopts.num_subspaces, rows.pca_us,
          rows.subspace_us, rows.allocation_us, rows.codebook_us,
          rows.encode_us, coarse_us);
  return index;
}

namespace {
constexpr char kIvfMagic[8] = {'V', 'A', 'Q', 'I', 'V', 'F', '0', '1'};
constexpr uint32_t kIvfFormatVersion = 1;
constexpr uint32_t kSecOptions = SectionTag('O', 'P', 'T', 'S');
constexpr uint32_t kSecPca = SectionTag('P', 'C', 'A', '0');
constexpr uint32_t kSecBooks = SectionTag('B', 'O', 'O', 'K');
constexpr uint32_t kSecCodes = SectionTag('C', 'O', 'D', 'E');
constexpr uint32_t kSecCoarse = SectionTag('C', 'R', 'S', 'E');
constexpr uint32_t kSecLists = SectionTag('L', 'I', 'S', 'T');
}  // namespace

void VaqIvfIndex::SaveOptionsSection(std::ostream& os) const {
  WritePod<uint64_t>(os, options_.coarse_k);
  WritePod<uint64_t>(os, options_.default_nprobe);
}

Status VaqIvfIndex::LoadOptionsSection(std::istream& is) {
  uint64_t u64 = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.coarse_k = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.default_nprobe = u64;
  return Status::OK();
}

Status VaqIvfIndex::ValidateInvariants(const CodeMatrix& codes) const {
  VAQ_RETURN_IF_ERROR(encoder_.ValidateInvariants(codes));
  if (options_.default_nprobe == 0) {
    return Status::Internal("default nprobe must be >= 1");
  }
  return lists_.Validate(codes.rows(), dim(), "inverted lists");
}

Status VaqIvfIndex::Save(const std::string& path) const {
  if (!encoder_.trained()) {
    return Status::FailedPrecondition("index is not trained");
  }
  const CodeMatrix codes = lists_.RowCodes();
  VAQ_RETURN_IF_ERROR(ValidateInvariants(codes));
  ContainerWriter writer(kIvfMagic, kIvfFormatVersion);
  SaveOptionsSection(writer.AddSection(kSecOptions));
  // IVF files carry the permutation inside PCA0 (there is no LAYT).
  std::ostream& pca = writer.AddSection(kSecPca);
  encoder_.SavePca(pca);
  encoder_.SavePermutation(pca);
  encoder_.SaveBooks(writer.AddSection(kSecBooks));
  WriteMatrix(writer.AddSection(kSecCodes), codes);
  lists_.SaveCentroids(writer.AddSection(kSecCoarse));
  lists_.SavePartitions(writer.AddSection(kSecLists));
  return writer.Commit(path);
}

Result<VaqIvfIndex> VaqIvfIndex::Load(const std::string& path) {
  VaqIvfIndex index;
  CodeMatrix codes;
  VaqEncoder& enc = index.encoder_;
  VAQ_RETURN_IF_ERROR(LoadSections(
      path, kIvfMagic, kIvfFormatVersion,
      {{kSecOptions,
        [&](std::istream& is) { return index.LoadOptionsSection(is); }},
       {kSecPca,
        [&](std::istream& is) {
          const Status pca = enc.LoadPca(is);
          return pca.ok() ? enc.LoadPermutation(is) : pca;
        }},
       {kSecBooks, [&](std::istream& is) { return enc.LoadBooks(is); }},
       {kSecCodes, [&](std::istream& is) { return ReadMatrix(is, &codes); }},
       {kSecCoarse,
        [&](std::istream& is) { return index.lists_.LoadCentroids(is); }},
       {kSecLists,
        [&](std::istream& is) {
          return index.lists_.LoadPartitions(is, /*with_distances=*/false);
        }}}));
  VAQ_RETURN_IF_ERROR(index.ValidateInvariants(codes));
  index.lists_.BlockCodes(codes);
  return index;
}

Status VaqIvfIndex::Search(const float* query, size_t k, size_t nprobe,
                           std::vector<Neighbor>* out,
                           SearchStats* stats) const {
  SearchScratch scratch;
  return Search(query, k, nprobe, &scratch, out, stats);
}

Status VaqIvfIndex::Search(const float* query, size_t k, size_t nprobe,
                           SearchScratch* scratch, std::vector<Neighbor>* out,
                           SearchStats* stats) const {
  return Search(query, k, nprobe, QueryControl{}, scratch, out, stats);
}

Status VaqIvfIndex::Search(const float* query, size_t k, size_t nprobe,
                           const QueryControl& control,
                           SearchScratch* scratch, std::vector<Neighbor>* out,
                           SearchStats* stats) const {
  // The nprobe nearest coarse cells, each list whole.
  return SearchEncoded(encoder_, lists_, Probes(nprobe), query,
                       DriverParams(k, control, options_.scan_kernel),
                       scratch, out, stats);
}

Status VaqIvfIndex::SearchBatchInto(
    const FloatMatrix& queries, size_t k, size_t nprobe,
    const QueryControl& control, size_t num_threads,
    std::vector<std::vector<Neighbor>>* results,
    std::vector<Status>* statuses,
    std::vector<SearchStats>* query_stats) const {
  return RunSearchBatch(
      queries, dim(), DriverParams(k, control, options_.scan_kernel),
      num_threads,
      [this, visit = Probes(nprobe)](
          const float* query, const SearchParams& params,
          SearchScratch* scratch, std::vector<Neighbor>* out,
          SearchStats* stats) {
        return SearchEncoded(encoder_, lists_, visit, query, params, scratch,
                             out, stats);
      },
      results, statuses, query_stats);
}

}  // namespace vaq
