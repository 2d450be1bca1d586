#include "core/vaq_encoder.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/io.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "core/allocation.h"
#include "core/balance.h"

namespace vaq {
namespace {

/// NaN or infinite rows would train and encode silently (or stall the
/// eigensolver), so they are rejected at the boundary.
Status CheckFinite(const FloatMatrix& rows) {
  const float* v = rows.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!std::isfinite(v[i])) {
      return Status::InvalidArgument(
          "vectors must be finite: NaN or inf in row " +
          std::to_string(i / rows.cols()));
    }
  }
  return Status::OK();
}

}  // namespace

Status VaqEncoder::Train(const FloatMatrix& data, const VaqOptions& options,
                         TrainedRows* rows) {
  if (data.rows() < 2) {
    return Status::InvalidArgument("training requires at least 2 vectors");
  }
  if (options.num_subspaces == 0 || options.num_subspaces > data.cols()) {
    return Status::InvalidArgument("num_subspaces must be in [1, dim]");
  }
  if (options.min_bits < 1) {
    return Status::InvalidArgument("min_bits must be >= 1");
  }
  VAQ_RETURN_IF_ERROR(CheckFinite(data));

  // Per-stage build accounting (DESIGN.md §10): cumulative registry
  // counters plus the owner's kDebug build report. Training is cold path;
  // the StageTimer scopes cost two clock reads per stage.
  MetricsRegistry& reg = MetricsRegistry::Global();

  // Step 1 (Algorithm 1, VarPCA): eigen-decomposition of the covariance;
  // dimensions become PCs sorted by descending variance.
  {
    StageTimer st(reg.GetCounter("vaq_build_pca_us_total",
                                 "Cumulative PCA fit wall time (us)"),
                  &rows->pca_us);
    VAQ_RETURN_IF_ERROR(pca_.Fit(data));
  }
  const std::vector<double> variances = pca_.ExplainedVarianceRatio();

  // Steps 2-3 (Section III-B, Algorithm 2 lines 2-9): subspace
  // construction + ordering repair, then partial importance balancing.
  const size_t m = options.num_subspaces;
  SubspaceLayout layout;
  {
    StageTimer st(
        reg.GetCounter("vaq_build_subspace_us_total",
                       "Cumulative subspace grouping/balancing time (us)"),
        &rows->subspace_us);
    if (options.clustered_subspaces) {
      VAQ_ASSIGN_OR_RETURN(layout, SubspaceLayout::Clustered(variances, m));
      VAQ_RETURN_IF_ERROR(layout.RepairOrdering(variances));
    } else {
      VAQ_ASSIGN_OR_RETURN(layout, SubspaceLayout::Uniform(data.cols(), m));
    }
    BalanceResult balance = options.partial_balance
                                ? PartialBalance(variances, layout)
                                : IdentityBalance(variances);
    permutation_ = balance.permutation;
    balance_swaps_ = balance.num_swaps;
    subspace_variances_ = layout.SubspaceVariances(balance.permuted_variances);
  }

  // Step 4 (Algorithm 2 lines 10-18): adaptive bit allocation. Bits outside
  // [1, 16] are rejected by the codebook training below.
  std::vector<int> bits;
  {
    StageTimer st(
        reg.GetCounter("vaq_build_allocation_us_total",
                       "Cumulative bit-allocation time (us)"),
        &rows->allocation_us);
    if (options.adaptive_allocation) {
      AllocationOptions aopts;
      aopts.total_bits = options.total_bits;
      aopts.min_bits = options.min_bits;
      // A dictionary larger than the training set cannot be estimated; cap
      // the per-subspace bits at log2(n) so small collections spread their
      // budget instead of memorizing the leading subspaces.
      size_t data_cap = 1;
      while ((size_t{1} << (data_cap + 1)) <= data.rows() && data_cap < 16) {
        ++data_cap;
      }
      aopts.max_bits = std::max(options.min_bits,
                                std::min(options.max_bits, data_cap));
      if (options.total_bits > m * aopts.max_bits) {
        // Tiny collections with large budgets: relax the cap to stay
        // feasible rather than reject the configuration.
        aopts.max_bits = options.max_bits;
      }
      VAQ_ASSIGN_OR_RETURN(Allocation alloc,
                           AllocateBits(subspace_variances_, aopts));
      bits = alloc.bits;
    } else {
      // Uniform regime (PQ/OPQ style): total_bits/m each, remainder spread
      // over the leading subspaces.
      bits.assign(m, static_cast<int>(options.total_bits / m));
      for (size_t i = 0; i < options.total_bits % m; ++i) ++bits[i];
    }
  }

  // Step 5 (Algorithm 3): project, permute, train variable dictionaries,
  // encode.
  {
    StageTimer st(
        reg.GetCounter("vaq_build_codebook_us_total",
                       "Cumulative codebook training time (us)"),
        &rows->codebook_us);
    VAQ_ASSIGN_OR_RETURN(rows->projected, Project(data));
    CodebookOptions copts;
    copts.kmeans_iters = options.kmeans_iters;
    copts.seed = options.seed;
    VAQ_RETURN_IF_ERROR(books_.Train(rows->projected, layout, bits, copts,
                                     options.train_threads));
  }
  StageTimer st(reg.GetCounter("vaq_build_encode_us_total",
                               "Cumulative database encoding time (us)"),
                &rows->encode_us);
  VAQ_ASSIGN_OR_RETURN(rows->codes,
                       books_.Encode(rows->projected, options.train_threads));
  return Status::OK();
}

Result<FloatMatrix> VaqEncoder::Project(const FloatMatrix& rows) const {
  VAQ_ASSIGN_OR_RETURN(FloatMatrix pca_space, pca_.Transform(rows));
  return pca_space.PermuteColumns(permutation_);
}

Result<CodeMatrix> VaqEncoder::Encode(const FloatMatrix& rows,
                                      size_t num_threads) const {
  VAQ_RETURN_IF_ERROR(CheckFinite(rows));
  VAQ_ASSIGN_OR_RETURN(FloatMatrix projected, Project(rows));
  return books_.Encode(projected, num_threads);
}

void VaqEncoder::ProjectQuery(const float* query,
                              std::vector<float>* pca_space,
                              std::vector<float>* projected) const {
  pca_space->resize(dim());
  pca_.TransformRow(query, pca_space->data());
  projected->resize(dim());
  for (size_t p = 0; p < dim(); ++p) {
    (*projected)[p] = (*pca_space)[permutation_[p]];
  }
}

Status VaqEncoder::ValidateInvariants(const CodeMatrix& codes) const {
  const size_t d = pca_.dim();
  if (!pca_.fitted() || d == 0) {
    return Status::Internal("index has no fitted PCA state");
  }
  if (permutation_.size() != d || !IsPermutation(permutation_)) {
    return Status::Internal("stored permutation is not a permutation of "
                            "[0, dim)");
  }
  VAQ_RETURN_IF_ERROR(books_.ValidateInvariants());
  if (books_.dim() != d) {
    return Status::Internal("codebook width disagrees with PCA dimension");
  }
  if (codes.rows() == 0) {
    return Status::Internal("index holds no encoded vectors");
  }
  return books_.ValidateCodes(codes);
}

void VaqEncoder::SavePca(std::ostream& os) const {
  WriteVector(os, std::vector<double>(pca_.eigenvalues()));
  WriteVector(os, pca_.means());
  WriteMatrix(os, pca_.components());
}

Status VaqEncoder::LoadPca(std::istream& is) {
  std::vector<double> eigenvalues;
  std::vector<float> means;
  FloatMatrix components;
  VAQ_RETURN_IF_ERROR(ReadVector(is, &eigenvalues));
  VAQ_RETURN_IF_ERROR(ReadVector(is, &means));
  VAQ_RETURN_IF_ERROR(ReadMatrix(is, &components));
  return pca_.Restore(std::move(eigenvalues), std::move(means),
                      std::move(components));
}

void VaqEncoder::SavePermutation(std::ostream& os) const {
  WriteVector(os, std::vector<uint64_t>(permutation_.begin(),
                                        permutation_.end()));
}

Status VaqEncoder::LoadPermutation(std::istream& is) {
  std::vector<uint64_t> perm64;
  VAQ_RETURN_IF_ERROR(ReadVector(is, &perm64));
  permutation_.assign(perm64.begin(), perm64.end());
  return Status::OK();
}

void VaqEncoder::SaveLayout(std::ostream& os) const {
  SavePermutation(os);
  WriteVector(os, subspace_variances_);
  WritePod<uint64_t>(os, balance_swaps_);
}

Status VaqEncoder::LoadLayout(std::istream& is) {
  VAQ_RETURN_IF_ERROR(LoadPermutation(is));
  VAQ_RETURN_IF_ERROR(ReadVector(is, &subspace_variances_));
  uint64_t u64 = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  balance_swaps_ = u64;
  return Status::OK();
}

}  // namespace vaq
