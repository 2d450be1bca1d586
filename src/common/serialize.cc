#include "common/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/io.h"
#include "common/macros.h"

namespace vaq {

namespace {

/// Slice-by-4 CRC32 tables, built once on first use. Table 0 is the
/// classic byte-at-a-time table for the reflected 0xEDB88320 polynomial;
/// tables 1-3 extend it so the hot loop folds four bytes per iteration.
struct Crc32Tables {
  uint32_t t[4][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFF];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFF];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFF];
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

// Envelope geometry (see serialize.h).
constexpr size_t kMagicBytes = 8;
constexpr size_t kHeaderBytes = kMagicBytes * 2 + 3 * sizeof(uint32_t);
constexpr size_t kTableEntryBytes =
    sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t);
constexpr size_t kFooterBytes = sizeof(uint32_t);
// A container holds a handful of logical sections; this bound only guards
// the table-size computation against a corrupted count field.
constexpr uint32_t kMaxSections = 1024;

// Envelope integers round-trip through the type-safe StoreAs/LoadAs
// bridges (common/io.h) — no pointer reinterpretation anywhere in the
// persistence layer.
void AppendPod32(std::string* out, uint32_t v) {
  char buf[sizeof(v)];
  StoreAs(buf, v);
  out->append(buf, sizeof(v));
}
void AppendPod64(std::string* out, uint64_t v) {
  char buf[sizeof(v)];
  StoreAs(buf, v);
  out->append(buf, sizeof(v));
}

uint32_t LoadPod32(const char* p) { return LoadAs<uint32_t>(p); }
uint64_t LoadPod64(const char* p) { return LoadAs<uint64_t>(p); }

// Write-failure injection (tests only). Negative = disabled; otherwise the
// budget of temp-file bytes that still succeed before writes fail ENOSPC.
std::atomic<int64_t> g_fail_after_bytes{-1};

/// write(2) loop honoring the failure-injection budget.
bool WriteAllFd(int fd, const char* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    size_t want = len - done;
    const int64_t budget = g_fail_after_bytes.load(std::memory_order_relaxed);
    if (budget >= 0) {
      if (static_cast<uint64_t>(budget) < want) {
        // Spend what remains of the budget, then report a full disk.
        if (budget > 0) {
          ssize_t n = ::write(fd, data + done, static_cast<size_t>(budget));
          (void)n;
        }
        g_fail_after_bytes.store(0, std::memory_order_relaxed);
        errno = ENOSPC;
        return false;
      }
      g_fail_after_bytes.store(budget - static_cast<int64_t>(want),
                               std::memory_order_relaxed);
    }
    const ssize_t n = ::write(fd, data + done, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

std::string ErrnoText() {
  // strerror_r's GNU/POSIX signature split makes it unportable; plain
  // strerror races only with other strerror calls on exotic libcs, and
  // glibc's is thread-safe. Error paths here are cold and sequential.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  return std::strerror(errno);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  const auto& tb = Tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  while (len >= 4) {
    c ^= static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
    c = tb.t[3][c & 0xFF] ^ tb.t[2][(c >> 8) & 0xFF] ^
        tb.t[1][(c >> 16) & 0xFF] ^ tb.t[0][c >> 24];
    p += 4;
    len -= 4;
  }
  while (len--) {
    c = tb.t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  }
  return ~c;
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + tmp + " for writing: " +
                           ErrnoText());
  }
  if (!WriteAllFd(fd, bytes.data(), bytes.size())) {
    const std::string err = ErrnoText();
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("write failure on " + tmp + ": " + err);
  }
  if (::fsync(fd) != 0) {
    const std::string err = ErrnoText();
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("fsync failure on " + tmp + ": " + err);
  }
  if (::close(fd) != 0) {
    const std::string err = ErrnoText();
    ::unlink(tmp.c_str());
    return Status::IoError("close failure on " + tmp + ": " + err);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = ErrnoText();
    ::unlink(tmp.c_str());
    return Status::IoError("rename " + tmp + " -> " + path + " failed: " +
                           err);
  }
  // Persist the rename itself. Best effort: a failure here means the data
  // file is already safely in place, only the directory entry may be
  // replayed after a crash.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) return Status::IoError("read failure on " + path);
  *out = std::move(buf).str();
  return Status::OK();
}

ContainerWriter::ContainerWriter(const char format_magic[8],
                                 uint32_t format_version)
    : format_version_(format_version) {
  std::memcpy(magic_, format_magic, kMagicBytes);
}

std::ostream& ContainerWriter::AddSection(uint32_t tag) {
  sections_.emplace_back();
  sections_.back().tag = tag;
  return sections_.back().body;
}

Result<std::string> ContainerWriter::Serialize() const {
  std::string out;
  out.reserve(kHeaderBytes + sections_.size() * kTableEntryBytes);
  out.append(kContainerMagic, kMagicBytes);
  out.append(magic_, kMagicBytes);
  AppendPod32(&out, kContainerVersion);
  AppendPod32(&out, format_version_);
  AppendPod32(&out, static_cast<uint32_t>(sections_.size()));
  if (sections_.size() > kMaxSections) {
    return Status::Internal("container section count exceeds limit");
  }
  std::vector<std::string> payloads;
  payloads.reserve(sections_.size());
  for (const Section& sec : sections_) {
    if (!sec.body.good()) {
      return Status::IoError("write failure while staging container section");
    }
    payloads.push_back(sec.body.str());
  }
  for (size_t i = 0; i < sections_.size(); ++i) {
    AppendPod32(&out, sections_[i].tag);
    AppendPod64(&out, payloads[i].size());
    AppendPod32(&out, Crc32(payloads[i].data(), payloads[i].size()));
  }
  for (const std::string& payload : payloads) {
    out.append(payload);
  }
  AppendPod32(&out, Crc32(out.data(), out.size()));
  return out;
}

Status ContainerWriter::Commit(const std::string& path) const {
  VAQ_ASSIGN_OR_RETURN(std::string bytes, Serialize());
  return AtomicWriteFile(path, bytes);
}

Result<ContainerReader> ContainerReader::Parse(std::string bytes,
                                               const char format_magic[8],
                                               uint32_t max_format_version) {
  // Structural checks first: nothing below indexes past bytes.size().
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    return Status::IoError("container truncated: shorter than its header");
  }
  if (std::memcmp(bytes.data(), kContainerMagic, kMagicBytes) != 0) {
    return Status::IoError("not a VAQ container file (magic mismatch)");
  }
  if (std::memcmp(bytes.data() + kMagicBytes, format_magic, kMagicBytes) !=
      0) {
    return Status::IoError(
        "container holds a different index format (format magic mismatch)");
  }
  const uint32_t container_version = LoadPod32(bytes.data() + 2 * kMagicBytes);
  if (container_version == 0 || container_version > kContainerVersion) {
    return Status::IoError("unsupported container version " +
                           std::to_string(container_version));
  }
  const uint32_t format_version =
      LoadPod32(bytes.data() + 2 * kMagicBytes + 4);
  if (format_version == 0 || format_version > max_format_version) {
    return Status::IoError(
        "index format version " + std::to_string(format_version) +
        " is newer than this build supports (" +
        std::to_string(max_format_version) + ")");
  }
  const uint32_t count = LoadPod32(bytes.data() + 2 * kMagicBytes + 8);
  if (count > kMaxSections) {
    return Status::IoError("corrupted container: section count " +
                           std::to_string(count));
  }
  const size_t table_bytes = static_cast<size_t>(count) * kTableEntryBytes;
  if (bytes.size() < kHeaderBytes + table_bytes + kFooterBytes) {
    return Status::IoError("container truncated inside the section table");
  }

  ContainerReader reader;
  reader.format_version_ = format_version;
  reader.entries_.reserve(count);
  size_t offset = kHeaderBytes + table_bytes;
  const size_t payload_end = bytes.size() - kFooterBytes;
  std::vector<uint32_t> crcs(count);
  for (uint32_t i = 0; i < count; ++i) {
    const char* entry = bytes.data() + kHeaderBytes + i * kTableEntryBytes;
    const uint32_t tag = LoadPod32(entry);
    const uint64_t length = LoadPod64(entry + 4);
    crcs[i] = LoadPod32(entry + 12);
    if (length > payload_end - offset) {
      return Status::IoError("corrupted container: section " +
                             std::to_string(i) + " overruns the file");
    }
    reader.entries_.push_back(Entry{tag, offset, static_cast<size_t>(length)});
    offset += static_cast<size_t>(length);
  }
  if (offset != payload_end) {
    return Status::IoError(
        "corrupted container: section table does not cover the payload");
  }

  // Whole-file footer, then per-section checksums.
  const uint32_t footer = LoadPod32(bytes.data() + payload_end);
  if (Crc32(bytes.data(), payload_end) != footer) {
    return Status::IoError("container footer checksum mismatch (bit rot or "
                           "torn write)");
  }
  for (uint32_t i = 0; i < count; ++i) {
    const Entry& e = reader.entries_[i];
    if (Crc32(bytes.data() + e.offset, e.length) != crcs[i]) {
      return Status::IoError("container section " + std::to_string(i) +
                             " checksum mismatch");
    }
  }
  reader.bytes_ = std::move(bytes);
  return reader;
}

bool ContainerReader::HasSection(uint32_t tag) const {
  for (const Entry& e : entries_) {
    if (e.tag == tag) return true;
  }
  return false;
}

Result<ContainerReader::SectionView> ContainerReader::Section(
    uint32_t tag) const {
  for (const Entry& e : entries_) {
    if (e.tag == tag) {
      return SectionView{bytes_.data() + e.offset, e.length};
    }
  }
  const char name[4] = {static_cast<char>(tag & 0xFF),
                        static_cast<char>((tag >> 8) & 0xFF),
                        static_cast<char>((tag >> 16) & 0xFF),
                        static_cast<char>((tag >> 24) & 0xFF)};
  return Status::IoError("container is missing required section '" +
                         std::string(name, 4) + "'");
}

Status LoadSections(const std::string& path, const char format_magic[8],
                    uint32_t max_format_version,
                    std::initializer_list<SectionParser> parsers) {
  std::string bytes;
  VAQ_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  if (bytes.size() < kMagicBytes ||
      std::memcmp(bytes.data(), kContainerMagic, kMagicBytes) != 0) {
    ByteViewStream body(bytes.data(), bytes.size());
    VAQ_RETURN_IF_ERROR(CheckMagic(body, format_magic));
    for (const SectionParser& p : parsers) VAQ_RETURN_IF_ERROR(p.parse(body));
    return Status::OK();
  }
  auto reader = ContainerReader::Parse(std::move(bytes), format_magic,
                                       max_format_version);
  if (!reader.ok()) {
    const Status& st = reader.status();
    return Status(st.code(), path + ": " + st.message());
  }
  for (const SectionParser& p : parsers) {
    VAQ_ASSIGN_OR_RETURN(const ContainerReader::SectionView sec,
                         reader->Section(p.tag));
    ByteViewStream is(sec.data, sec.size);
    VAQ_RETURN_IF_ERROR(p.parse(is));
  }
  return Status::OK();
}

bool IsPermutation(const std::vector<size_t>& v) {
  std::vector<bool> seen(v.size(), false);
  for (size_t x : v) {
    if (x >= v.size() || seen[x]) return false;
    seen[x] = true;
  }
  return true;
}

namespace serialize_internal {
void SetWriteFailureAfterBytes(int64_t bytes) {
  g_fail_after_bytes.store(bytes, std::memory_order_relaxed);
}
}  // namespace serialize_internal

}  // namespace vaq
