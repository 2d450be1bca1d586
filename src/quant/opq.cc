#include "quant/opq.h"

#include <algorithm>
#include <cmath>

#include "common/io.h"
#include "common/macros.h"
#include "common/serialize.h"
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

Status OptimizedProductQuantizer::Train(const FloatMatrix& data) {
  if (options_.bits_per_subspace < 1 || options_.bits_per_subspace > 16) {
    return Status::InvalidArgument("bits_per_subspace must be in [1, 16]");
  }
  const size_t d = data.cols();
  VAQ_ASSIGN_OR_RETURN(SubspaceLayout layout,
                       SubspaceLayout::Uniform(d, options_.num_subspaces));

  // Parametric initialization: PCA + eigenvalue allocation.
  Pca pca;
  VAQ_RETURN_IF_ERROR(pca.Fit(data));
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
  means_ = pca.means();

  // Centered data, rotated.
  FloatMatrix centered(data.rows(), d);
  for (size_t r = 0; r < data.rows(); ++r) {
    const float* src = data.row(r);
    float* dst = centered.row(r);
    for (size_t j = 0; j < d; ++j) dst[j] = src[j] - means_[j];
  }
  FloatMatrix rotated = MatMul(centered, rotation_);

  // Non-parametric refinement (OPQ_NP): alternate encoding with scratch
  // dictionaries and Procrustes rotation updates.
  CodebookOptions copts;
  copts.kmeans_iters = options_.kmeans_iters;
  const std::vector<int> bits(options_.num_subspaces,
                              static_cast<int>(options_.bits_per_subspace));
  for (int iter = 0; iter < options_.refine_iters; ++iter) {
    VariableCodebooks books;
    copts.seed = options_.seed + iter;
    VAQ_RETURN_IF_ERROR(books.Train(rotated, layout, bits, copts));
    VAQ_ASSIGN_OR_RETURN(CodeMatrix codes, books.Encode(rotated));
    FloatMatrix decoded(data.rows(), d);
    for (size_t r = 0; r < data.rows(); ++r) {
      books.DecodeRow(codes.row(r), decoded.row(r));
    }
    VAQ_ASSIGN_OR_RETURN(rotation_, OrthogonalProcrustes(centered, decoded));
    rotated = MatMul(centered, rotation_);
  }

  pq_ = ProductQuantizer(pq_options());
  return pq_.Train(rotated);
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
  // Retired centering slot: OPQ always centers, so always 1.
  WritePod<uint8_t>(os, 1);
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
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u8));  // retired centering slot
  pq_.options_ = pq_options();
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

Status OptimizedProductQuantizer::ValidateInvariants() const {
  VAQ_RETURN_IF_ERROR(pq_.ValidateInvariants());
  const size_t d = pq_.codebooks().dim();
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
  return Status::OK();
}

Status OptimizedProductQuantizer::Save(const std::string& path) const {
  if (!pq_.codebooks().trained()) {
    return Status::FailedPrecondition("OPQ is not trained");
  }
  VAQ_RETURN_IF_ERROR(ValidateInvariants());
  ContainerWriter writer(kOpqMagic, kOpqFormatVersion);
  SaveOptionsSection(writer.AddSection(kSecOptions));
  SaveRotationSection(writer.AddSection(kSecRotation));
  pq_.books_.Save(writer.AddSection(kSecBooks));
  WriteMatrix(writer.AddSection(kSecCodes), pq_.codes_);
  pq_.SaveStatsSection(writer.AddSection(kSecStats));
  return writer.Commit(path);
}

Result<OptimizedProductQuantizer> OptimizedProductQuantizer::Load(
    const std::string& path) {
  OptimizedProductQuantizer opq;
  ProductQuantizer& pq = opq.pq_;
  VAQ_RETURN_IF_ERROR(LoadSections(
      path, kOpqMagic, kOpqFormatVersion,
      {{kSecOptions,
        [&](std::istream& is) { return opq.LoadOptionsSection(is); }},
       {kSecRotation,
        [&](std::istream& is) { return opq.LoadRotationSection(is); }},
       {kSecBooks, [&](std::istream& is) { return pq.books_.Load(is); }},
       {kSecCodes,
        [&](std::istream& is) { return ReadMatrix(is, &pq.codes_); }},
       {kSecStats,
        [&](std::istream& is) { return pq.LoadStatsSection(is); }}}));
  VAQ_RETURN_IF_ERROR(opq.ValidateInvariants());
  return opq;
}

Status OptimizedProductQuantizer::SearchSubset(
    const float* query, size_t k, size_t num_subspaces_used,
    std::vector<Neighbor>* out) const {
  if (!pq_.codebooks().trained()) {
    return Status::FailedPrecondition("OPQ is not trained");
  }
  std::vector<float> rotated(rotation_.rows());
  Project(query, rotated.data());
  return pq_.SearchSubset(rotated.data(), k, num_subspaces_used, out);
}

}  // namespace vaq
