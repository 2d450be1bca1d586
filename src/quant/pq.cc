#include "quant/pq.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/io.h"
#include "common/macros.h"
#include "common/serialize.h"
#include "linalg/covariance.h"

namespace vaq {

Status ProductQuantizer::Train(const FloatMatrix& data) {
  if (options_.bits_per_subspace < 1 || options_.bits_per_subspace > 16) {
    return Status::InvalidArgument("bits_per_subspace must be in [1, 16]");
  }
  VAQ_ASSIGN_OR_RETURN(
      SubspaceLayout layout,
      SubspaceLayout::Uniform(data.cols(), options_.num_subspaces));

  CodebookOptions copts;
  copts.kmeans_iters = options_.kmeans_iters;
  copts.seed = options_.seed;
  std::vector<int> bits(options_.num_subspaces,
                        static_cast<int>(options_.bits_per_subspace));
  VAQ_RETURN_IF_ERROR(books_.Train(data, layout, bits, copts));
  VAQ_ASSIGN_OR_RETURN(codes_, books_.Encode(data));

  // Per-subspace variance shares for the subspace-omission study.
  const std::vector<double> dim_vars = ColumnVariances(data);
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

  VAQ_ASSIGN_OR_RETURN(train_error_, books_.ReconstructionError(data));
  return Status::OK();
}

Status ProductQuantizer::Search(const float* query, size_t k,
                                std::vector<Neighbor>* out) const {
  return SearchSubset(query, k, 0, out);
}

namespace {
constexpr char kPqMagic[8] = {'V', 'A', 'Q', 'P', 'Q', '0', '0', '1'};
constexpr uint32_t kPqFormatVersion = 1;
constexpr uint32_t kSecOptions = SectionTag('O', 'P', 'T', 'S');
constexpr uint32_t kSecBooks = SectionTag('B', 'O', 'O', 'K');
constexpr uint32_t kSecCodes = SectionTag('C', 'O', 'D', 'E');
constexpr uint32_t kSecStats = SectionTag('S', 'T', 'A', 'T');
}  // namespace

void ProductQuantizer::SaveOptionsSection(std::ostream& os) const {
  WritePod<uint64_t>(os, options_.num_subspaces);
  WritePod<uint64_t>(os, options_.bits_per_subspace);
  WritePod<int32_t>(os, options_.kmeans_iters);
  WritePod<uint64_t>(os, options_.seed);
}

Status ProductQuantizer::LoadOptionsSection(std::istream& is) {
  uint64_t u64 = 0;
  int32_t i32 = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.num_subspaces = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.bits_per_subspace = u64;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &i32));
  options_.kmeans_iters = i32;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &u64));
  options_.seed = u64;
  return Status::OK();
}

void ProductQuantizer::SaveStatsSection(std::ostream& os) const {
  WriteVector(os, subspace_variances_);
  WriteVector(os, std::vector<uint64_t>(subspace_order_.begin(),
                                        subspace_order_.end()));
  WritePod<double>(os, train_error_);
}

Status ProductQuantizer::LoadStatsSection(std::istream& is) {
  VAQ_RETURN_IF_ERROR(ReadVector(is, &subspace_variances_));
  std::vector<uint64_t> order64;
  VAQ_RETURN_IF_ERROR(ReadVector(is, &order64));
  subspace_order_.assign(order64.begin(), order64.end());
  VAQ_RETURN_IF_ERROR(ReadPod(is, &train_error_));
  return Status::OK();
}

Status ProductQuantizer::ValidateInvariants() const {
  VAQ_RETURN_IF_ERROR(books_.ValidateInvariants());
  const size_t m = books_.num_subspaces();
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

Status ProductQuantizer::Save(const std::string& path) const {
  if (!books_.trained()) {
    return Status::FailedPrecondition("PQ is not trained");
  }
  VAQ_RETURN_IF_ERROR(ValidateInvariants());
  ContainerWriter writer(kPqMagic, kPqFormatVersion);
  SaveOptionsSection(writer.AddSection(kSecOptions));
  books_.Save(writer.AddSection(kSecBooks));
  WriteMatrix(writer.AddSection(kSecCodes), codes_);
  SaveStatsSection(writer.AddSection(kSecStats));
  return writer.Commit(path);
}

Result<ProductQuantizer> ProductQuantizer::Load(const std::string& path) {
  ProductQuantizer pq;
  VAQ_RETURN_IF_ERROR(LoadSections(
      path, kPqMagic, kPqFormatVersion,
      {{kSecOptions,
        [&](std::istream& is) { return pq.LoadOptionsSection(is); }},
       {kSecBooks, [&](std::istream& is) { return pq.books_.Load(is); }},
       {kSecCodes,
        [&](std::istream& is) { return ReadMatrix(is, &pq.codes_); }},
       {kSecStats,
        [&](std::istream& is) { return pq.LoadStatsSection(is); }}}));
  VAQ_RETURN_IF_ERROR(pq.ValidateInvariants());
  return pq;
}

Status ProductQuantizer::SearchSubset(const float* query, size_t k,
                                      size_t num_subspaces_used,
                                      std::vector<Neighbor>* out) const {
  if (!books_.trained()) {
    return Status::FailedPrecondition("PQ is not trained");
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");

  std::vector<float> lut;
  books_.BuildLookupTable(query, &lut);

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
    // Accumulate only the `used` most informative subspaces.
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
