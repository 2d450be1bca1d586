#ifndef VAQ_COMMON_IO_H_
#define VAQ_COMMON_IO_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace vaq {

/// Binary (de)serialization helpers used by index Save/Load. The format is
/// little-endian host order with explicit sizes; files start with a caller
/// supplied magic tag for sanity checking.
///
/// All object/byte conversions go through the four helpers below —
/// std::memcpy-based or void*-mediated, never reinterpret_cast — so the
/// whole I/O layer is free of strict-aliasing UB and clang-tidy-clean by
/// construction (DESIGN.md §11). The byte layout is unchanged: these
/// compile to the same loads/stores as the casts they replaced, which the
/// golden-format tests pin down to the exact bytes on disk.

/// Reads a T from an untyped buffer holding its object representation.
template <typename T>
T LoadAs(const void* src) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

/// Writes T's object representation into an untyped buffer of at least
/// sizeof(T) bytes.
template <typename T>
void StoreAs(void* dst, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(dst, &value, sizeof(T));
}

/// Streams `n` raw bytes out of an object representation. The implicit
/// T* -> const void* conversion plus static_cast to const char* is fully
/// defined, unlike the reinterpret_cast it replaces.
inline void WriteBytes(std::ostream& os, const void* src, size_t n) {
  os.write(static_cast<const char*>(src),
           static_cast<std::streamsize>(n));
}

/// Reads `n` raw bytes into an object representation. Returns false on a
/// short read (stream failbit/eofbit set), matching `!is`.
inline bool ReadBytes(std::istream& is, void* dst, size_t n) {
  is.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  return static_cast<bool>(is);
}

template <typename T>
void WritePod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  WriteBytes(os, &value, sizeof(T));
}

template <typename T>
Status ReadPod(std::istream& is, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!ReadBytes(is, value, sizeof(T))) {
    return Status::IoError("short read on POD value");
  }
  return Status::OK();
}

/// Writes `n` elements at `data` as ReadVector reads them back.
template <typename T>
void WriteArray(std::ostream& os, const T* data, size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  WritePod<uint64_t>(os, n);
  if (n != 0) WriteBytes(os, data, n * sizeof(T));
}

template <typename T>
void WriteVector(std::ostream& os, const std::vector<T>& v) {
  WriteArray(os, v.data(), v.size());
}

/// Bytes left between the stream's current position and its end, or -1
/// when the stream is not seekable. Guards deserialization against
/// corrupted size headers that would otherwise trigger huge allocations.
inline int64_t RemainingBytes(std::istream& is) {
  const auto here = is.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(here);
  if (end == std::istream::pos_type(-1)) return -1;
  return static_cast<int64_t>(end - here);
}

/// Largest single allocation made on behalf of an element-count header when
/// the stream is non-seekable (pipes, sockets) and RemainingBytes cannot
/// bound it. Payloads claiming more grow chunk by chunk, so a corrupted
/// header fails at the stream's real end instead of triggering a multi-GB
/// resize up front.
inline constexpr size_t kIoMaxEagerBytes = size_t{1} << 22;  // 4 MiB

namespace io_internal {

/// Reads `n` elements into `out` (a std::vector<T> or std::string),
/// growing it in kIoMaxEagerBytes steps. `out` is cleared on failure.
template <typename Container>
Status ReadChunked(std::istream& is, uint64_t n, Container* out) {
  using Elem = typename Container::value_type;
  const size_t chunk_elems =
      std::max<size_t>(1, kIoMaxEagerBytes / sizeof(Elem));
  out->clear();
  size_t got = 0;
  while (got < n) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(n - got, chunk_elems));
    out->resize(got + take);
    if (!ReadBytes(is, out->data() + got, take * sizeof(Elem))) {
      out->clear();
      return Status::IoError("size header exceeds stream payload "
                             "(corrupted file?)");
    }
    got += take;
  }
  return Status::OK();
}

}  // namespace io_internal

template <typename T>
Status ReadVector(std::istream& is, std::vector<T>* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint64_t n = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &n));
  if (n > std::numeric_limits<uint64_t>::max() / sizeof(T)) {
    return Status::IoError("vector size header overflows (corrupted file?)");
  }
  const int64_t remaining = RemainingBytes(is);
  if (remaining >= 0) {
    if (n > static_cast<uint64_t>(remaining) / sizeof(T)) {
      return Status::IoError("vector size header exceeds remaining payload "
                             "(corrupted file?)");
    }
  } else if (n * sizeof(T) > kIoMaxEagerBytes) {
    return io_internal::ReadChunked(is, n, v);
  }
  v->resize(n);
  if (n > 0) {
    if (!ReadBytes(is, v->data(), n * sizeof(T))) {
      return Status::IoError("short read on vector payload");
    }
  }
  return Status::OK();
}

template <typename T>
void WriteMatrix(std::ostream& os, const Matrix<T>& m) {
  WritePod<uint64_t>(os, m.rows());
  WritePod<uint64_t>(os, m.cols());
  if (m.size() > 0) {
    WriteBytes(os, m.data(), m.size() * sizeof(T));
  }
}

template <typename T>
Status ReadMatrix(std::istream& is, Matrix<T>* m) {
  uint64_t rows = 0, cols = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &rows));
  VAQ_RETURN_IF_ERROR(ReadPod(is, &cols));
  if (cols != 0 &&
      rows > std::numeric_limits<uint64_t>::max() / sizeof(T) / cols) {
    return Status::IoError("matrix size header overflows (corrupted file?)");
  }
  const uint64_t elems = rows * cols;
  const int64_t remaining = RemainingBytes(is);
  if (remaining >= 0) {
    if (elems > static_cast<uint64_t>(remaining) / sizeof(T)) {
      return Status::IoError("matrix size header exceeds remaining payload "
                             "(corrupted file?)");
    }
  } else if (elems * sizeof(T) > kIoMaxEagerBytes) {
    std::vector<T> buf;
    VAQ_RETURN_IF_ERROR(io_internal::ReadChunked(is, elems, &buf));
    *m = Matrix<T>(rows, cols, std::move(buf));
    return Status::OK();
  }
  m->Resize(rows, cols);
  if (m->size() > 0) {
    if (!ReadBytes(is, m->data(), m->size() * sizeof(T))) {
      return Status::IoError("short read on matrix payload");
    }
  }
  return Status::OK();
}

inline void WriteString(std::ostream& os, const std::string& s) {
  WritePod<uint64_t>(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline Status ReadString(std::istream& is, std::string* s) {
  uint64_t n = 0;
  VAQ_RETURN_IF_ERROR(ReadPod(is, &n));
  const int64_t remaining = RemainingBytes(is);
  if (remaining >= 0) {
    if (n > static_cast<uint64_t>(remaining)) {
      return Status::IoError("string size header exceeds remaining payload "
                             "(corrupted file?)");
    }
  } else if (n > kIoMaxEagerBytes) {
    return io_internal::ReadChunked(is, n, s);
  }
  s->resize(n);
  if (n > 0) {
    is.read(s->data(), static_cast<std::streamsize>(n));
    if (!is) return Status::IoError("short read on string payload");
  }
  return Status::OK();
}

/// Writes/validates a 8-byte magic tag that identifies a file format.
void WriteMagic(std::ostream& os, const char magic[8]);
Status CheckMagic(std::istream& is, const char magic[8]);

}  // namespace vaq

#endif  // VAQ_COMMON_IO_H_
