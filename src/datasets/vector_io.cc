#include "datasets/vector_io.h"

#include <cstdint>
#include <fstream>
#include <vector>

#include "common/io.h"

namespace vaq {
namespace {

// All record I/O goes through the type-safe ReadBytes/WriteBytes bridges
// in common/io.h; this file stays reinterpret_cast-free (DESIGN.md §11).

// Reads records whose payload is `Element`s into a Matrix<Out>. The first
// record's dimension is bounded by the bytes left in the file (or by
// kIoMaxEagerBytes when the stream cannot tell), so a corrupt header fails
// with IoError instead of sizing a multi-GB buffer; later records must
// repeat that dimension.
template <typename Element, typename Out>
Result<Matrix<Out>> ReadVecs(const std::string& path, size_t max_vectors) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open " + path);

  std::vector<Out> values;
  std::vector<Element> buffer;
  size_t dim = 0;
  size_t count = 0;
  while (max_vectors == 0 || count < max_vectors) {
    int32_t d = 0;
    if (!ReadBytes(is, &d, sizeof(d))) break;  // clean EOF between records
    if (d <= 0) return Status::IoError("corrupt record header in " + path);
    if (dim == 0) {
      const int64_t remaining = RemainingBytes(is);
      const uint64_t limit = remaining >= 0
                                 ? static_cast<uint64_t>(remaining)
                                 : uint64_t{kIoMaxEagerBytes};
      if (static_cast<uint64_t>(d) > limit / sizeof(Element)) {
        return Status::IoError("record dimension exceeds file size in " +
                               path);
      }
      dim = static_cast<size_t>(d);
      buffer.resize(dim);
    } else if (dim != static_cast<size_t>(d)) {
      return Status::IoError("inconsistent dimensions in " + path);
    }
    if (!ReadBytes(is, buffer.data(), dim * sizeof(Element))) {
      return Status::IoError("truncated record in " + path);
    }
    for (Element e : buffer) values.push_back(static_cast<Out>(e));
    ++count;
  }
  if (count == 0) return Status::IoError("no vectors found in " + path);
  return Matrix<Out>(count, dim, std::move(values));
}

}  // namespace

Result<FloatMatrix> ReadFvecs(const std::string& path, size_t max_vectors) {
  return ReadVecs<float, float>(path, max_vectors);
}

Result<FloatMatrix> ReadBvecs(const std::string& path, size_t max_vectors) {
  return ReadVecs<uint8_t, float>(path, max_vectors);
}

Result<Matrix<int32_t>> ReadIvecs(const std::string& path,
                                  size_t max_vectors) {
  return ReadVecs<int32_t, int32_t>(path, max_vectors);
}

Status WriteFvecs(const std::string& path, const FloatMatrix& data) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::IoError("cannot open " + path + " for writing");
  const int32_t d = static_cast<int32_t>(data.cols());
  for (size_t r = 0; r < data.rows(); ++r) {
    WriteBytes(os, &d, sizeof(d));
    WriteBytes(os, data.row(r), data.cols() * sizeof(float));
  }
  if (!os) return Status::IoError("write failure on " + path);
  return Status::OK();
}

Status WriteIvecs(const std::string& path, const Matrix<int32_t>& data) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::IoError("cannot open " + path + " for writing");
  const int32_t d = static_cast<int32_t>(data.cols());
  for (size_t r = 0; r < data.rows(); ++r) {
    WriteBytes(os, &d, sizeof(d));
    WriteBytes(os, data.row(r), data.cols() * sizeof(int32_t));
  }
  if (!os) return Status::IoError("write failure on " + path);
  return Status::OK();
}

}  // namespace vaq
