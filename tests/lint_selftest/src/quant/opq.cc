// Seeded-violation fixture (NOT compiled). Path mirrors the OPQ baseline,
// a saved family whose Load sections parse untrusted bytes.

#include <istream>

namespace vaq {

Status OptimizedProductQuantizer::LoadRotationSection(std::istream& is) {
  VAQ_CHECK(is.good());  // seed: entrypoint-no-check
  return Status::OK();
}

std::vector<size_t> BalancedAssignment(size_t m) {
  VAQ_CHECK(m > 0);  // internal helper, not an entry point: legal
  return {};
}

}  // namespace vaq
