#include "core/codebook.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "clustering/centroid_kernel.h"
#include "clustering/hierarchical.h"
#include "clustering/kmeans.h"
#include "common/io.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "linalg/ops.h"

namespace vaq {

namespace {

/// Dictionaries larger than 2^this are trained hierarchically (Section
/// III-D fixes 2^10).
constexpr int kHierarchicalThresholdBits = 10;

/// Relative cost of training one dictionary of 2^bits centroids: Lloyd
/// work grows with k, while a hierarchical dictionary costs its 64-way
/// coarse pass plus fine passes of about k/64 centroids each.
size_t TrainingCost(int bits) {
  const size_t k = size_t{1} << bits;
  return bits > kHierarchicalThresholdBits ? 64 + k / 64 : k;
}

}  // namespace

Status VariableCodebooks::Train(const FloatMatrix& projected,
                                const SubspaceLayout& layout,
                                const std::vector<int>& bits,
                                const CodebookOptions& options,
                                size_t num_threads) {
  if (projected.rows() == 0) {
    return Status::InvalidArgument("codebook training requires data");
  }
  if (projected.cols() != layout.dim()) {
    return Status::InvalidArgument("data width does not match layout");
  }
  if (bits.size() != layout.num_subspaces()) {
    return Status::InvalidArgument("bits vector must match subspace count");
  }
  for (int b : bits) {
    if (b < 1 || b > 16) {
      return Status::InvalidArgument("bits per subspace must be in [1, 16]");
    }
  }

  const size_t m = layout.num_subspaces();
  std::vector<FloatMatrix> dictionaries(m);
  std::vector<Status> status(m);
  // Each dictionary depends only on its column slice and its seed, so the
  // subspaces train in any order on any thread with identical results.
  // Threads claim them one at a time, heaviest first: the allocation sorts
  // bits descending, so contiguous chunks would hand every large
  // dictionary to one thread.
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const size_t cost_a = TrainingCost(bits[a]);
    const size_t cost_b = TrainingCost(bits[b]);
    return cost_a != cost_b ? cost_a > cost_b : a < b;
  });
  ParallelForEach(m, num_threads, [&](size_t i) {
    const size_t s = order[i];
    const SubspaceSpan& span = layout.span(s);
    const FloatMatrix sub = projected.SliceColumns(span.offset, span.length);
    const size_t k = size_t{1} << bits[s];
    const uint64_t seed = options.seed + 31 * s;
    if (bits[s] > kHierarchicalThresholdBits) {
      HierarchicalKMeansOptions hopts;
      hopts.k = k;
      hopts.coarse_k = 64;
      hopts.max_iters = options.kmeans_iters;
      hopts.seed = seed;
      auto centroids = HierarchicalKMeans(sub, hopts);
      if (!centroids.ok()) {
        status[s] = centroids.status();
        return;
      }
      dictionaries[s] = Transpose(*centroids);
    } else {
      KMeans km;
      KMeansOptions kopts;
      kopts.k = k;
      kopts.max_iters = options.kmeans_iters;
      kopts.seed = seed;
      status[s] = km.Train(sub, kopts);
      if (status[s].ok()) dictionaries[s] = Transpose(km.centroids());
    }
  });
  for (const Status& st : status) VAQ_RETURN_IF_ERROR(st);

  layout_ = layout;
  bits_ = bits;
  dictionaries_ = std::move(dictionaries);
  SetLutOffsets();
  trained_ = true;
  return Status::OK();
}

void VariableCodebooks::SetLutOffsets() {
  lut_offsets_.resize(bits_.size());
  lut_entries_ = 0;
  for (size_t s = 0; s < bits_.size(); ++s) {
    lut_offsets_[s] = static_cast<uint32_t>(lut_entries_);
    lut_entries_ += size_t{1} << bits_[s];
  }
}

void VariableCodebooks::EncodeRow(const float* x, uint16_t* code) const {
  VAQ_DCHECK(trained_);
  const CentroidKernel::NearestFn nearest = GetCentroidKernel().nearest;
  for (size_t s = 0; s < layout_.num_subspaces(); ++s) {
    const SubspaceSpan& span = layout_.span(s);
    const FloatMatrix& dict = dictionaries_[s];
    const size_t k = dict.cols();
    float distance = 0.f;
    code[s] = static_cast<uint16_t>(
        nearest(x + span.offset, dict.data(), span.length, k, k, &distance));
  }
}

Result<CodeMatrix> VariableCodebooks::Encode(const FloatMatrix& data,
                                             size_t num_threads) const {
  if (!trained_) return Status::FailedPrecondition("codebooks not trained");
  if (data.cols() != dim()) {
    return Status::InvalidArgument("data width does not match codebooks");
  }
  CodeMatrix codes(data.rows(), num_subspaces());
  ParallelFor(data.rows(), num_threads, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) EncodeRow(data.row(r), codes.row(r));
  });
  return codes;
}

void VariableCodebooks::DecodeRow(const uint16_t* code, float* out) const {
  VAQ_DCHECK(trained_);
  for (size_t s = 0; s < layout_.num_subspaces(); ++s) {
    const SubspaceSpan& span = layout_.span(s);
    const FloatMatrix& dict = dictionaries_[s];
    for (size_t j = 0; j < span.length; ++j) {
      out[span.offset + j] = dict.at(j, code[s]);
    }
  }
}

void VariableCodebooks::BuildLookupTable(const float* query,
                                         std::vector<float>* lut) const {
  BuildPrefixLookupTable(query, layout_.num_subspaces(), lut);
}

void VariableCodebooks::BuildPrefixLookupTable(const float* prefix,
                                               size_t prefix_subspaces,
                                               std::vector<float>* lut) const {
  VAQ_DCHECK(trained_);
  VAQ_DCHECK(prefix_subspaces <= layout_.num_subspaces());
  lut->resize(prefix_lut_entries(prefix_subspaces));
  const CentroidKernel::DistancesFn distances = GetCentroidKernel().distances;
  for (size_t s = 0; s < prefix_subspaces; ++s) {
    const SubspaceSpan& span = layout_.span(s);
    const FloatMatrix& dict = dictionaries_[s];
    distances(prefix + span.offset, dict.data(), span.length, dict.cols(),
              dict.cols(), lut->data() + lut_offsets_[s]);
  }
}

float VariableCodebooks::AdcDistance(const uint16_t* code,
                                     const float* lut) const {
  float acc = 0.f;
  for (size_t s = 0; s < layout_.num_subspaces(); ++s) {
    acc += lut[lut_offsets_[s] + code[s]];
  }
  return acc;
}

Result<double> VariableCodebooks::ReconstructionError(
    const FloatMatrix& data) const {
  if (!trained_) return Status::FailedPrecondition("codebooks not trained");
  if (data.cols() != dim()) {
    return Status::InvalidArgument("data width does not match codebooks");
  }
  std::vector<uint16_t> code(num_subspaces());
  std::vector<float> decoded(dim());
  double acc = 0.0;
  for (size_t r = 0; r < data.rows(); ++r) {
    EncodeRow(data.row(r), code.data());
    DecodeRow(code.data(), decoded.data());
    acc += SquaredL2(data.row(r), decoded.data(), dim());
  }
  return acc / static_cast<double>(data.rows());
}

void VariableCodebooks::Save(std::ostream& os) const {
  WritePod<uint8_t>(os, trained_ ? 1 : 0);
  WritePod<uint64_t>(os, layout_.num_subspaces());
  for (size_t s = 0; s < layout_.num_subspaces(); ++s) {
    WritePod<uint64_t>(os, layout_.span(s).offset);
    WritePod<uint64_t>(os, layout_.span(s).length);
  }
  WriteVector(os, std::vector<int32_t>(bits_.begin(), bits_.end()));
  for (const auto& dict : dictionaries_) WriteMatrix(os, Transpose(dict));
}

Status VariableCodebooks::Load(std::istream& is) {
  uint8_t trained = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &trained));
  uint64_t m = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &m));
  // Each span costs 16 payload bytes; a seekable stream bounds the
  // plausible count so a corrupted header cannot drive a huge resize.
  const int64_t remaining = RemainingBytes(is);
  if (remaining >= 0 && m > static_cast<uint64_t>(remaining) / 16) {
    return Status::IoError("subspace count exceeds remaining payload "
                           "(corrupted file?)");
  }
  // The SubspaceLayout constructor hard-aborts on malformed spans, so the
  // contiguity invariant must be checked here, on untrusted bytes.
  std::vector<SubspaceSpan> spans(m);
  uint64_t expect_offset = 0;
  for (auto& span : spans) {
    uint64_t offset = 0, length = 0;
    VAQ_RETURN_IF_ERROR(ReadPod(is, &offset));
    VAQ_RETURN_IF_ERROR(ReadPod(is, &length));
    if (offset != expect_offset || length == 0) {
      return Status::IoError("corrupted codebooks: subspace spans are not "
                             "contiguous");
    }
    expect_offset = offset + length;
    span.offset = offset;
    span.length = length;
  }
  std::vector<int32_t> bits32;
  VAQ_RETURN_IF_ERROR(ReadVector(is, &bits32));
  if (bits32.size() != m) {
    return Status::IoError("corrupted codebooks: bits count does not match "
                           "subspace count");
  }
  for (int32_t b : bits32) {
    if (b < 1 || b > 16) {
      return Status::IoError("corrupted codebooks: bits per subspace " +
                             std::to_string(b) + " outside [1, 16]");
    }
  }
  std::vector<FloatMatrix> dictionaries(m);
  FloatMatrix centroids;
  for (size_t s = 0; s < m; ++s) {
    VAQ_RETURN_IF_ERROR(ReadMatrix(is, &centroids));
    if (centroids.rows() != size_t{1} << bits32[s] ||
        centroids.cols() != spans[s].length) {
      return Status::IoError("corrupted codebooks: dictionary " +
                             std::to_string(s) +
                             " shape disagrees with its bits/span");
    }
    dictionaries[s] = Transpose(centroids);
  }
  // All bytes parsed and validated; commit the state.
  layout_ = SubspaceLayout(std::move(spans));
  bits_.assign(bits32.begin(), bits32.end());
  dictionaries_ = std::move(dictionaries);
  SetLutOffsets();
  trained_ = trained != 0;
  return Status::OK();
}

Status VariableCodebooks::ValidateInvariants() const {
  if (!trained_) {
    return Status::FailedPrecondition("codebooks are not trained");
  }
  const size_t m = layout_.num_subspaces();
  if (m == 0) return Status::Internal("codebooks have no subspaces");
  if (bits_.size() != m || dictionaries_.size() != m ||
      lut_offsets_.size() != m) {
    return Status::Internal("codebook state sizes disagree");
  }
  size_t entries = 0;
  for (size_t s = 0; s < m; ++s) {
    if (bits_[s] < 1 || bits_[s] > 16) {
      return Status::Internal("bits per subspace outside [1, 16]");
    }
    if (dictionaries_[s].rows() != layout_.span(s).length ||
        dictionaries_[s].cols() != size_t{1} << bits_[s]) {
      return Status::Internal("dictionary shape disagrees with bits/span");
    }
    if (lut_offsets_[s] != entries) {
      return Status::Internal("lookup-table offsets are inconsistent");
    }
    entries += size_t{1} << bits_[s];
    for (size_t i = 0; i < dictionaries_[s].size(); ++i) {
      if (!std::isfinite(dictionaries_[s].data()[i])) {
        return Status::Internal("dictionary contains non-finite values");
      }
    }
  }
  if (lut_entries_ != entries) {
    return Status::Internal("lookup-table entry count is inconsistent");
  }
  return Status::OK();
}

Status VariableCodebooks::ValidateCodes(const CodeMatrix& codes) const {
  const size_t m = num_subspaces();
  if (codes.cols() != m) {
    return Status::Internal("code width disagrees with subspace count");
  }
  for (size_t s = 0; s < m; ++s) {
    const uint16_t limit = static_cast<uint16_t>((size_t{1} << bits_[s]) - 1);
    for (size_t r = 0; r < codes.rows(); ++r) {
      if (codes.at(r, s) > limit) {
        return Status::Internal("stored code exceeds its dictionary size "
                                "(subspace " + std::to_string(s) + ")");
      }
    }
  }
  return Status::OK();
}

}  // namespace vaq
