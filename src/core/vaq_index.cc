#include "core/vaq_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/io.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "core/search_batch.h"

namespace vaq {
namespace {
constexpr char kMagic[8] = {'V', 'A', 'Q', 'I', 'D', 'X', '0', '1'};

// The TI build of `options` over `prefix` subspaces: Train and Add must
// cluster alike, so both take it from here.
TiPartitionOptions TiOptions(const VaqOptions& options, size_t prefix) {
  TiPartitionOptions topts;
  topts.num_clusters = options.ti_clusters;
  topts.prefix_subspaces = prefix;
  topts.seed = options.seed ^ 0x7153A9F2ULL;
  topts.num_threads = options.train_threads;
  return topts;
}

}  // namespace

Result<VaqIndex> VaqIndex::Train(const FloatMatrix& data,
                                 const VaqOptions& options) {
  VaqIndex index;
  index.options_ = options;
  VaqEncoder::TrainedRows rows;
  VAQ_RETURN_IF_ERROR(index.encoder_.Train(data, options, &rows));

  MetricsRegistry& reg = MetricsRegistry::Global();
  double ti_us = 0.0;
  // Step 6 (Algorithm 3 lines 24-48): TI partition for data skipping, and
  // the codes blocked in its cluster order.
  {
    StageTimer st(reg.GetCounter("vaq_build_ti_us_total",
                                 "Cumulative TI partition build time (us)"),
                  &ti_us);
    size_t prefix = options.ti_prefix_subspaces;
    if (prefix == 0) {
      // Auto: smallest prefix explaining >= 90% of the variance.
      const std::vector<double>& vars = index.subspace_variances();
      const double total = std::accumulate(vars.begin(), vars.end(), 0.0);
      double acc = 0.0;
      prefix = vars.size();
      for (size_t s = 0; s < vars.size(); ++s) {
        acc += vars[s];
        if (total > 0.0 && acc >= 0.9 * total) {
          prefix = s + 1;
          break;
        }
      }
    }
    VAQ_RETURN_IF_ERROR(index.ti_.Build(rows.codes, index.codebooks(),
                                        TiOptions(options, prefix)));
  }
  reg.GetCounter("vaq_builds_total", "Index builds completed")->Increment();
  VAQ_LOG(LogLevel::kDebug,
          "VaqIndex build report: n=%zu d=%zu m=%zu pca=%.0fus "
          "subspace=%.0fus allocation=%.0fus codebook=%.0fus encode=%.0fus "
          "ti=%.0fus",
          data.rows(), data.cols(), options.num_subspaces, rows.pca_us,
          rows.subspace_us, rows.allocation_us, rows.codebook_us,
          rows.encode_us, ti_us);
  return index;
}

Status VaqIndex::Add(const FloatMatrix& data) {
  if (!encoder_.trained()) {
    return Status::FailedPrecondition("index is not trained");
  }
  if (data.cols() != dim()) {
    return Status::InvalidArgument("dimension mismatch in Add");
  }
  VAQ_ASSIGN_OR_RETURN(CodeMatrix fresh,
                       encoder_.Encode(data, options_.train_threads));

  CodeMatrix codes = ti_.RowCodes(fresh.rows());
  std::copy_n(fresh.data(), fresh.size(),
              codes.data() + size() * codes.cols());

  return ti_.Build(codes, codebooks(),
                   TiOptions(options_, ti_.prefix_subspaces()));
}

void VaqIndex::ProjectQuery(const float* query,
                            std::vector<float>* projected) const {
  std::vector<float> pca_space;
  encoder_.ProjectQuery(query, &pca_space, projected);
}

Status VaqIndex::Search(const float* query, const SearchParams& params,
                        std::vector<Neighbor>* out,
                        SearchStats* stats) const {
  SearchScratch scratch;
  return Search(query, params, &scratch, out, stats);
}

Status VaqIndex::Search(const float* query, const SearchParams& params,
                        SearchScratch* scratch, std::vector<Neighbor>* out,
                        SearchStats* stats) const {
  // TI caches assume full distances: with a subspace prefix the query
  // falls back to a flat early-abandon scan.
  const bool ti = params.mode == SearchMode::kTriangleInequality &&
                  (params.num_subspaces_used == 0 ||
                   params.num_subspaces_used >= num_subspaces());
  // The nearest ceil(visit_fraction · clusters) clusters, each narrowed to
  // its TI window (0: a flat scan). The driver rejects a fraction outside
  // (0, 1]; until it does, the clamp keeps the cast defined.
  const double clusters = static_cast<double>(ti_.num_partitions());
  const double nearest = std::ceil(params.visit_fraction * clusters);
  const size_t visit =
      !ti ? 0
          : (nearest >= 1.0 && nearest <= clusters ? static_cast<size_t>(nearest)
                                                   : 1);
  return SearchEncoded(encoder_, ti_, visit, query, params, scratch, out,
                       stats);
}

Result<std::vector<std::vector<Neighbor>>> VaqIndex::SearchBatch(
    const FloatMatrix& queries, const SearchParams& params,
    size_t num_threads) const {
  std::vector<std::vector<Neighbor>> results;
  VAQ_RETURN_IF_ERROR(SearchBatchInto(queries, params, num_threads, &results));
  return results;
}

Status VaqIndex::SearchBatchInto(
    const FloatMatrix& queries, const SearchParams& params,
    size_t num_threads, std::vector<std::vector<Neighbor>>* results,
    std::vector<Status>* statuses,
    std::vector<SearchStats>* query_stats) const {
  return RunSearchBatch(
      queries, dim(), params, num_threads,
      [this](const float* query, const SearchParams& query_params,
             SearchScratch* scratch, std::vector<Neighbor>* out,
             SearchStats* stats) {
        return Search(query, query_params, scratch, out, stats);
      },
      results, statuses, query_stats);
}

void VaqIndex::SaveOptionsSection(std::ostream& os) const {
  WritePod<uint64_t>(os, options_.num_subspaces);
  WritePod<uint64_t>(os, options_.total_bits);
  WritePod<uint64_t>(os, options_.min_bits);
  WritePod<uint64_t>(os, options_.max_bits);
  // Retired C1 target-variance slot: always 1.0, read back and discarded.
  WritePod<double>(os, 1.0);
  WritePod<uint8_t>(os, options_.clustered_subspaces);
  WritePod<uint8_t>(os, options_.partial_balance);
  WritePod<uint8_t>(os, options_.adaptive_allocation);
  // Retired PCA-centering slot: PCA always centers, so always 1.
  WritePod<uint8_t>(os, 1);
  WritePod<uint64_t>(os, options_.ti_clusters);
  WritePod<uint64_t>(os, options_.ti_prefix_subspaces);
  WritePod<int32_t>(os, options_.kmeans_iters);
  WritePod<uint64_t>(os, options_.seed);
}

Status VaqIndex::LoadOptionsSection(std::istream& is) {
  uint64_t u64 = 0;
  uint8_t u8 = 0;
  int32_t i32 = 0;
  double f64 = 0.0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.num_subspaces = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.total_bits = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.min_bits = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.max_bits = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &f64));  // retired target-variance slot
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));
  options_.clustered_subspaces = u8;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));
  options_.partial_balance = u8;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));
  options_.adaptive_allocation = u8;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));  // retired PCA-centering slot
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.ti_clusters = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.ti_prefix_subspaces = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &i32));
  options_.kmeans_iters = i32;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.seed = u64;
  return Status::OK();
}

Status VaqIndex::ValidateInvariants(const CodeMatrix& codes) const {
  const size_t m = num_subspaces();
  VAQ_RETURN_IF_ERROR(encoder_.ValidateInvariants(codes));
  if (m != options_.num_subspaces) {
    return Status::Internal("subspace count disagrees with options");
  }
  size_t bit_sum = 0;
  for (int b : bits_per_subspace()) bit_sum += static_cast<size_t>(b);
  if (bit_sum != options_.total_bits) {
    return Status::Internal("per-subspace bits do not sum to the configured "
                            "budget");
  }
  if (subspace_variances().size() != m) {
    return Status::Internal("subspace variance profile length disagrees "
                            "with subspace count");
  }
  for (double v : subspace_variances()) {
    if (!std::isfinite(v) || v < 0.0) {
      return Status::Internal("subspace variances contain invalid values");
    }
  }
  return ti_.ValidateInvariants(codes.rows(), layout());
}

namespace {
/// Container payload schema version for VaqIndex files. The legacy
/// unversioned layout predating the container is "v0".
constexpr uint32_t kVaqIndexFormatVersion = 1;
constexpr uint32_t kSecOptions = SectionTag('O', 'P', 'T', 'S');
constexpr uint32_t kSecPca = SectionTag('P', 'C', 'A', '0');
constexpr uint32_t kSecLayout = SectionTag('L', 'A', 'Y', 'T');
constexpr uint32_t kSecBooks = SectionTag('B', 'O', 'O', 'K');
constexpr uint32_t kSecCodes = SectionTag('C', 'O', 'D', 'E');
constexpr uint32_t kSecTi = SectionTag('T', 'I', 'P', 'T');
}  // namespace

Status VaqIndex::Save(const std::string& path) const {
  if (!encoder_.trained()) {
    return Status::FailedPrecondition("index is not trained");
  }
  // Refuse to persist a broken index: the file would checksum correctly
  // but fail validation on load.
  const CodeMatrix codes = ti_.RowCodes();
  VAQ_RETURN_IF_ERROR(ValidateInvariants(codes));
  ContainerWriter writer(kMagic, kVaqIndexFormatVersion);
  SaveOptionsSection(writer.AddSection(kSecOptions));
  encoder_.SavePca(writer.AddSection(kSecPca));
  encoder_.SaveLayout(writer.AddSection(kSecLayout));
  encoder_.SaveBooks(writer.AddSection(kSecBooks));
  WriteMatrix(writer.AddSection(kSecCodes), codes);
  ti_.Save(writer.AddSection(kSecTi));
  return writer.Commit(path);
}

Result<VaqIndex> VaqIndex::Load(const std::string& path) {
  VaqIndex index;
  CodeMatrix codes;
  VaqEncoder& enc = index.encoder_;
  VAQ_RETURN_IF_ERROR(LoadSections(
      path, kMagic, kVaqIndexFormatVersion,
      {{kSecOptions,
        [&](std::istream& is) { return index.LoadOptionsSection(is); }},
       {kSecPca, [&](std::istream& is) { return enc.LoadPca(is); }},
       {kSecLayout, [&](std::istream& is) { return enc.LoadLayout(is); }},
       {kSecBooks, [&](std::istream& is) { return enc.LoadBooks(is); }},
       {kSecCodes, [&](std::istream& is) { return ReadMatrix(is, &codes); }},
       {kSecTi, [&](std::istream& is) { return index.ti_.Load(is); }}}));
  VAQ_RETURN_IF_ERROR(index.ValidateInvariants(codes));
  index.ti_.BlockCodes(codes);
  return index;
}

}  // namespace vaq
