#ifndef VAQ_COMMON_SERIALIZE_H_
#define VAQ_COMMON_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/status.h"

namespace vaq {

/// Versioned, checksummed persistence container shared by every index
/// Save/Load path (see DESIGN.md §8).
///
/// On-disk layout (all integers little-endian host order):
///
///   [ 0,  8)  container magic "VAQBOX01"
///   [ 8, 16)  format magic (per index family, e.g. "VAQIDX01")
///   [16, 20)  uint32 container version (layout of this envelope)
///   [20, 24)  uint32 format version (payload schema of the index family)
///   [24, 28)  uint32 section count n
///   [28, 28 + 16n)  section table: per section
///                     uint32 tag, uint64 byte length, uint32 CRC32
///   [..]      section payloads, back to back, in table order
///   [-4, end) uint32 CRC32 of every preceding byte (whole-file footer)
///
/// Readers verify the envelope structurally (no offset can escape the
/// buffer), then the footer CRC, then each section CRC, before any index
/// code parses a byte of payload. A legacy (v0) file, written before the
/// container, is the family's format magic followed by the same section
/// payloads back to back, with no envelope; LoadSections reads both.
/// Writers never touch the destination path directly: the container is
/// staged to `<path>.tmp.<pid>`, flushed and fsync'd, then renamed over
/// the target, so a crash mid-save leaves the previous file intact.

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-4 table
/// driven. `crc` chains incremental updates; pass the previous return
/// value to continue a running checksum over split buffers.
uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0);

/// Version of the container envelope itself (magic/table/footer layout).
inline constexpr uint32_t kContainerVersion = 1;

/// 8-byte magic opening every container file. Legacy (pre-container)
/// index files open with their per-family format magic instead, which is
/// how LoadSections tells the two apart.
inline constexpr char kContainerMagic[8] = {'V', 'A', 'Q', 'B',
                                            'O', 'X', '0', '1'};

/// Four-character section tag packed into a uint32.
constexpr uint32_t SectionTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// Atomically replaces `path` with `bytes`: writes `<path>.tmp.<pid>` in
/// the same directory, fsyncs it, renames it over `path`, and fsyncs the
/// parent directory. On any failure the temp file is removed and `path`
/// is left untouched.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

/// Reads a whole file into `out`. IoError when it cannot be opened/read.
Status ReadFileBytes(const std::string& path, std::string* out);

/// Seekable read-only istream over an external buffer (no copy). The
/// buffer must outlive the stream. Used to hand container sections to the
/// stream-based ReadPod/ReadVector/ReadMatrix helpers in io.h.
class ByteViewStream : public std::istream {
 public:
  ByteViewStream(const char* data, size_t size) : std::istream(&buf_) {
    buf_.Reset(data, size);
  }

 private:
  class Buf : public std::streambuf {
   public:
    void Reset(const char* data, size_t size) {
      // std::streambuf's get-area API predates const-correctness and
      // demands char*; this buffer is read-only by construction (no
      // overflow/sputc path), so shedding const here cannot lead to a
      // write through the pointer.
      // NOLINTNEXTLINE(cppcoreguidelines-pro-type-const-cast)
      char* p = const_cast<char*>(data);
      setg(p, p, p + size);
    }

   protected:
    pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                     std::ios_base::openmode which) override {
      if (!(which & std::ios_base::in)) return pos_type(off_type(-1));
      off_type base = 0;
      if (dir == std::ios_base::cur) base = gptr() - eback();
      else if (dir == std::ios_base::end) base = egptr() - eback();
      const off_type target = base + off;
      if (target < 0 || target > egptr() - eback()) {
        return pos_type(off_type(-1));
      }
      setg(eback(), eback() + target, egptr());
      return pos_type(target);
    }
    pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
      return seekoff(off_type(pos), std::ios_base::beg, which);
    }
  };

  Buf buf_;
};

/// Builds a container section by section and commits it atomically.
///
///   ContainerWriter w(kMagic, /*format_version=*/1);
///   WritePod(w.AddSection(SectionTag('O','P','T','S')), ...);
///   ...
///   VAQ_RETURN_IF_ERROR(w.Commit(path));
class ContainerWriter {
 public:
  ContainerWriter(const char format_magic[8], uint32_t format_version);

  /// Opens a new section; returns the stream its payload is written to.
  /// The reference stays valid until the writer is destroyed.
  std::ostream& AddSection(uint32_t tag);

  /// Serializes header + table + payloads + footer CRC into one buffer.
  /// Fails if any section stream went bad (e.g. a write error).
  Result<std::string> Serialize() const;

  /// Serialize() + AtomicWriteFile(path).
  Status Commit(const std::string& path) const;

 private:
  struct Section {
    uint32_t tag;
    std::ostringstream body;
  };

  char magic_[8];
  uint32_t format_version_;
  // deque: AddSection hands out references that must survive later pushes.
  std::deque<Section> sections_;
};

/// Verified view of a container file. Parse fully validates the
/// envelope (magic, versions, table bounds, per-section CRCs, footer CRC)
/// before returning, so section payloads handed to index parsers are
/// exactly the bytes that were written.
class ContainerReader {
 public:
  struct SectionView {
    const char* data = nullptr;
    size_t size = 0;
  };

  /// Verifies a container file's bytes (takes ownership).
  /// `max_format_version` rejects files written by a newer schema than the
  /// caller understands.
  static Result<ContainerReader> Parse(std::string bytes,
                                       const char format_magic[8],
                                       uint32_t max_format_version);

  uint32_t format_version() const { return format_version_; }
  bool HasSection(uint32_t tag) const;

  /// Payload bytes of the first section with `tag`; the view borrows from
  /// this reader and is valid for the reader's lifetime.
  Result<SectionView> Section(uint32_t tag) const;

 private:
  struct Entry {
    uint32_t tag;
    size_t offset;
    size_t length;
  };

  std::string bytes_;
  std::vector<Entry> entries_;
  uint32_t format_version_ = 0;
};

/// One section of a saved index file as its family's Load parses it.
struct SectionParser {
  uint32_t tag;
  std::function<Status(std::istream&)> parse;
};

/// Reads the saved index file `path` once and runs `parsers`, in write
/// order, over its sections. The first 8 bytes pick the framing:
///  - the container magic: ContainerReader::Parse verifies the file
///    before any parser runs (errors prefixed with `path`), and each
///    parser reads the payload of the section carrying its tag;
///  - `format_magic`: a legacy v0 file. Each parser reads the one body
///    stream, starting where the previous parser stopped.
/// A missing or unreadable file, or any other opening, is IoError.
Status LoadSections(const std::string& path, const char format_magic[8],
                    uint32_t max_format_version,
                    std::initializer_list<SectionParser> parsers);

/// True if `v` is a permutation of [0, v.size()). Shared by the post-load
/// invariant validators (index permutations, subspace orderings).
bool IsPermutation(const std::vector<size_t>& v);

namespace serialize_internal {
/// Test hook: makes the next AtomicWriteFile calls fail (as if the disk
/// filled or the process crashed) after `bytes` payload bytes have been
/// written to the temp file. Negative disables. Tests use this to prove a
/// failed save cleans up its temp file and leaves the target untouched.
void SetWriteFailureAfterBytes(int64_t bytes);
}  // namespace serialize_internal

}  // namespace vaq

#endif  // VAQ_COMMON_SERIALIZE_H_
