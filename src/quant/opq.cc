#include "quant/opq.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/io.h"
#include "common/macros.h"
#include "common/serialize.h"
#include "linalg/covariance.h"
#include "linalg/pca.h"
#include "linalg/svd.h"

namespace vaq {
namespace {

/// Eigenvalue allocation (OPQ's parametric solution): greedily assign PCs
/// in descending eigenvalue order to the subspace bucket with the smallest
/// running sum of log-eigenvalues that still has capacity. Balancing the
/// log-sum balances the *product* of eigenvalues across subspaces.
/// Returns assignment[pc] = bucket.
std::vector<size_t> EigenvalueAllocation(const std::vector<double>& evals,
                                         const std::vector<size_t>& capacity) {
  const size_t d = evals.size();
  const size_t m = capacity.size();
  std::vector<double> log_sum(m, 0.0);
  std::vector<size_t> used(m, 0);
  std::vector<size_t> assignment(d, 0);
  for (size_t pc = 0; pc < d; ++pc) {
    const double log_val = std::log(std::max(evals[pc], 1e-12));
    size_t best = m;
    for (size_t b = 0; b < m; ++b) {
      if (used[b] >= capacity[b]) continue;
      if (best == m || log_sum[b] < log_sum[best]) best = b;
    }
    VAQ_CHECK(best < m);
    assignment[pc] = best;
    log_sum[best] += log_val;
    ++used[best];
  }
  return assignment;
}

}  // namespace

void OptimizedProductQuantizer::RotateRow(const float* x, float* out) const {
  const size_t d = rotation_.rows();
  for (size_t j = 0; j < d; ++j) out[j] = 0.f;
  for (size_t i = 0; i < d; ++i) {
    const float centered = x[i] - means_[i];
    if (centered == 0.f) continue;
    const float* rrow = rotation_.row(i);
    for (size_t j = 0; j < d; ++j) out[j] += centered * rrow[j];
  }
}

Status OptimizedProductQuantizer::Train(const FloatMatrix& data) {
  if (options_.bits_per_subspace < 1 || options_.bits_per_subspace > 16) {
    return Status::InvalidArgument("bits_per_subspace must be in [1, 16]");
  }
  const size_t d = data.cols();
  VAQ_ASSIGN_OR_RETURN(SubspaceLayout layout,
                       SubspaceLayout::Uniform(d, options_.num_subspaces));

  // Parametric initialization: PCA + eigenvalue allocation.
  Pca pca;
  Pca::Options popts;
  popts.center = options_.center;
  VAQ_RETURN_IF_ERROR(pca.Fit(data, popts));
  std::vector<size_t> capacity(options_.num_subspaces);
  for (size_t s = 0; s < options_.num_subspaces; ++s) {
    capacity[s] = layout.span(s).length;
  }
  const std::vector<size_t> assignment =
      EigenvalueAllocation(pca.eigenvalues(), capacity);

  // Column permutation grouping each bucket's PCs together.
  std::vector<size_t> perm;
  perm.reserve(d);
  for (size_t b = 0; b < options_.num_subspaces; ++b) {
    for (size_t pc = 0; pc < d; ++pc) {
      if (assignment[pc] == b) perm.push_back(pc);
    }
  }
  // rotation = V with permuted columns.
  rotation_.Resize(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      rotation_(i, j) = pca.components()(i, perm[j]);
    }
  }
  means_.assign(d, 0.f);
  if (options_.center) {
    means_ = pca.means();
  }

  // Centered data, rotated.
  FloatMatrix centered(data.rows(), d);
  for (size_t r = 0; r < data.rows(); ++r) {
    const float* src = data.row(r);
    float* dst = centered.row(r);
    for (size_t j = 0; j < d; ++j) dst[j] = src[j] - means_[j];
  }

  CodebookOptions copts;
  copts.kmeans_iters = options_.kmeans_iters;
  std::vector<int> bits(options_.num_subspaces,
                        static_cast<int>(options_.bits_per_subspace));

  FloatMatrix rotated(data.rows(), d);
  auto rotate_all = [&]() {
    for (size_t r = 0; r < data.rows(); ++r) {
      const float* src = centered.row(r);
      float* dst = rotated.row(r);
      for (size_t j = 0; j < d; ++j) dst[j] = 0.f;
      for (size_t i = 0; i < d; ++i) {
        const float v = src[i];
        if (v == 0.f) continue;
        const float* rrow = rotation_.row(i);
        for (size_t j = 0; j < d; ++j) dst[j] += v * rrow[j];
      }
    }
  };
  rotate_all();
  copts.seed = options_.seed;
  VAQ_RETURN_IF_ERROR(books_.Train(rotated, layout, bits, copts));

  // Non-parametric refinement (OPQ_NP): alternate encoding and Procrustes
  // rotation updates.
  for (int iter = 0; iter < options_.refine_iters; ++iter) {
    VAQ_ASSIGN_OR_RETURN(CodeMatrix codes, books_.Encode(rotated));
    FloatMatrix decoded(data.rows(), d);
    for (size_t r = 0; r < data.rows(); ++r) {
      books_.DecodeRow(codes.row(r), decoded.row(r));
    }
    auto new_rotation = OrthogonalProcrustes(centered, decoded);
    if (!new_rotation.ok()) return new_rotation.status();
    rotation_ = std::move(*new_rotation);
    rotate_all();
    copts.seed = options_.seed + iter + 1;
    VAQ_RETURN_IF_ERROR(books_.Train(rotated, layout, bits, copts));
  }

  VAQ_ASSIGN_OR_RETURN(codes_, books_.Encode(rotated));
  VAQ_ASSIGN_OR_RETURN(train_error_, books_.ReconstructionError(rotated));

  // Subspace importance ranking from the rotated training variance.
  const std::vector<double> dim_vars = ColumnVariances(rotated);
  subspace_variances_ = layout.SubspaceVariances(dim_vars);
  const double total = std::accumulate(subspace_variances_.begin(),
                                       subspace_variances_.end(), 0.0);
  if (total > 0.0) {
    for (double& v : subspace_variances_) v /= total;
  }
  subspace_order_.resize(options_.num_subspaces);
  std::iota(subspace_order_.begin(), subspace_order_.end(), size_t{0});
  std::sort(subspace_order_.begin(), subspace_order_.end(),
            [this](size_t a, size_t b) {
              return subspace_variances_[a] > subspace_variances_[b];
            });
  return Status::OK();
}

Status OptimizedProductQuantizer::Search(const float* query, size_t k,
                                         std::vector<Neighbor>* out) const {
  return SearchSubset(query, k, 0, out);
}

namespace {
constexpr char kOpqMagic[8] = {'V', 'A', 'Q', 'O', 'P', 'Q', '0', '1'};
constexpr uint32_t kOpqFormatVersion = 1;
constexpr uint32_t kSecOptions = SectionTag('O', 'P', 'T', 'S');
constexpr uint32_t kSecRotation = SectionTag('R', 'O', 'T', '8');
constexpr uint32_t kSecBooks = SectionTag('B', 'O', 'O', 'K');
constexpr uint32_t kSecCodes = SectionTag('C', 'O', 'D', 'E');
constexpr uint32_t kSecStats = SectionTag('S', 'T', 'A', 'T');
}  // namespace

void OptimizedProductQuantizer::SaveOptionsSection(std::ostream& os) const {
  WritePod<uint64_t>(os, options_.num_subspaces);
  WritePod<uint64_t>(os, options_.bits_per_subspace);
  WritePod<int32_t>(os, options_.refine_iters);
  WritePod<int32_t>(os, options_.kmeans_iters);
  WritePod<uint64_t>(os, options_.seed);
  WritePod<uint8_t>(os, options_.center ? 1 : 0);
}

Status OptimizedProductQuantizer::LoadOptionsSection(std::istream& is) {
  uint64_t u64 = 0;
  int32_t i32 = 0;
  uint8_t u8 = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.num_subspaces = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.bits_per_subspace = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &i32));
  options_.refine_iters = i32;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &i32));
  options_.kmeans_iters = i32;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.seed = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));
  options_.center = u8 != 0;
  return Status::OK();
}

void OptimizedProductQuantizer::SaveRotationSection(std::ostream& os) const {
  WriteVector(os, means_);
  WriteMatrix(os, rotation_);
}

Status OptimizedProductQuantizer::LoadRotationSection(std::istream& is) {
  VAQ_RETURN_IF_ERROR(ReadVector(is, &means_));
  VAQ_RETURN_IF_ERROR(ReadMatrix(is, &rotation_));
  return Status::OK();
}

void OptimizedProductQuantizer::SaveStatsSection(std::ostream& os) const {
  WriteVector(os, subspace_variances_);
  WriteVector(os, std::vector<uint64_t>(subspace_order_.begin(),
                                        subspace_order_.end()));
  WritePod<double>(os, train_error_);
}

Status OptimizedProductQuantizer::LoadStatsSection(std::istream& is) {
  VAQ_RETURN_IF_ERROR(ReadVector(is, &subspace_variances_));
  std::vector<uint64_t> order64;
  VAQ_RETURN_IF_ERROR(ReadVector(is, &order64));
  subspace_order_.assign(order64.begin(), order64.end());
  VAQ_RETURN_IF_ERROR(ReadPod(is, &train_error_));
  return Status::OK();
}

Status OptimizedProductQuantizer::ValidateInvariants() const {
  VAQ_RETURN_IF_ERROR(books_.ValidateInvariants());
  const size_t m = books_.num_subspaces();
  const size_t d = books_.dim();
  if (m != options_.num_subspaces) {
    return Status::Internal("codebook subspace count disagrees with "
                            "options");
  }
  for (int b : books_.bits()) {
    if (static_cast<size_t>(b) != options_.bits_per_subspace) {
      return Status::Internal("codebook bits disagree with the uniform "
                              "bits_per_subspace option");
    }
  }
  if (rotation_.rows() != d || rotation_.cols() != d) {
    return Status::Internal("rotation matrix is not square in the codebook "
                            "dimension");
  }
  if (means_.size() != d) {
    return Status::Internal("centering means length disagrees with the "
                            "rotation dimension");
  }
  for (size_t i = 0; i < rotation_.size(); ++i) {
    if (!std::isfinite(rotation_.data()[i])) {
      return Status::Internal("rotation matrix contains non-finite values");
    }
  }
  for (float v : means_) {
    if (!std::isfinite(v)) {
      return Status::Internal("centering means contain non-finite values");
    }
  }
  VAQ_RETURN_IF_ERROR(books_.ValidateCodes(codes_));
  if (subspace_variances_.size() != m) {
    return Status::Internal("subspace variance profile length disagrees "
                            "with subspace count");
  }
  for (double v : subspace_variances_) {
    if (!std::isfinite(v) || v < 0.0) {
      return Status::Internal("subspace variances contain invalid values");
    }
  }
  if (subspace_order_.size() != m || !IsPermutation(subspace_order_)) {
    return Status::Internal("subspace ranking is not a permutation of "
                            "[0, m)");
  }
  if (!std::isfinite(train_error_) || train_error_ < 0.0) {
    return Status::Internal("training error is not a non-negative finite "
                            "value");
  }
  return Status::OK();
}

Status OptimizedProductQuantizer::Save(const std::string& path) const {
  if (!books_.trained()) {
    return Status::FailedPrecondition("OPQ is not trained");
  }
  VAQ_RETURN_IF_ERROR(ValidateInvariants());
  ContainerWriter writer(kOpqMagic, kOpqFormatVersion);
  SaveOptionsSection(writer.AddSection(kSecOptions));
  SaveRotationSection(writer.AddSection(kSecRotation));
  books_.Save(writer.AddSection(kSecBooks));
  WriteMatrix(writer.AddSection(kSecCodes), codes_);
  SaveStatsSection(writer.AddSection(kSecStats));
  return writer.Commit(path);
}

Result<OptimizedProductQuantizer> OptimizedProductQuantizer::Load(
    const std::string& path) {
  OptimizedProductQuantizer opq;
  VAQ_RETURN_IF_ERROR(LoadSections(
      path, kOpqMagic, kOpqFormatVersion,
      {{kSecOptions,
        [&](std::istream& is) { return opq.LoadOptionsSection(is); }},
       {kSecRotation,
        [&](std::istream& is) { return opq.LoadRotationSection(is); }},
       {kSecBooks, [&](std::istream& is) { return opq.books_.Load(is); }},
       {kSecCodes,
        [&](std::istream& is) { return ReadMatrix(is, &opq.codes_); }},
       {kSecStats,
        [&](std::istream& is) { return opq.LoadStatsSection(is); }}}));
  VAQ_RETURN_IF_ERROR(opq.ValidateInvariants());
  return opq;
}

Status OptimizedProductQuantizer::SearchSubset(
    const float* query, size_t k, size_t num_subspaces_used,
    std::vector<Neighbor>* out) const {
  if (!books_.trained()) {
    return Status::FailedPrecondition("OPQ is not trained");
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");

  std::vector<float> rotated(rotation_.rows());
  RotateRow(query, rotated.data());
  std::vector<float> lut;
  books_.BuildLookupTable(rotated.data(), &lut);

  const size_t m = books_.num_subspaces();
  const size_t used = num_subspaces_used == 0
                          ? m
                          : std::min(num_subspaces_used, m);
  TopKHeap heap(k);
  if (used == m) {
    for (size_t r = 0; r < codes_.rows(); ++r) {
      heap.Push(books_.AdcDistance(codes_.row(r), lut.data()),
                static_cast<int64_t>(r));
    }
  } else {
    for (size_t r = 0; r < codes_.rows(); ++r) {
      const uint16_t* code = codes_.row(r);
      float acc = 0.f;
      for (size_t i = 0; i < used; ++i) {
        const size_t s = subspace_order_[i];
        acc += lut[books_.lut_offset(s) + code[s]];
      }
      heap.Push(acc, static_cast<int64_t>(r));
    }
  }
  *out = heap.TakeSorted();
  for (Neighbor& nb : *out) nb.distance = std::sqrt(std::max(0.f, nb.distance));
  return Status::OK();
}

}  // namespace vaq
