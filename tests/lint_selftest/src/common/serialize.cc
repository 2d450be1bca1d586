// Seeded-violation fixture (NOT compiled). Path mirrors the shared file
// reader every saved family's Load runs through, so a corrupt file must
// come back as a Status from here too.

#include <string>

namespace vaq {

Status LoadSections(const std::string& path, const char format_magic[8]) {
  VAQ_CHECK(format_magic != nullptr);  // seed: entrypoint-no-check
  (void)path;
  return Status::OK();
}

Result<ContainerReader> ContainerReader::Parse(std::string bytes) {
  VAQ_CHECK(bytes.size() >= 32);  // seed: entrypoint-no-check
  return ContainerReader();
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  VAQ_CHECK(!path.empty());  // save side, not a load entry point: legal
  (void)bytes;
  return Status::OK();
}

}  // namespace vaq
