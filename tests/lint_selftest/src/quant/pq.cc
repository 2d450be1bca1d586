// Seeded-violation fixture (NOT compiled). Path mirrors the PQ baseline,
// a saved family whose Load reads untrusted files.

#include <string>

namespace vaq {

Result<ProductQuantizer> ProductQuantizer::Load(const std::string& path) {
  VAQ_CHECK(!path.empty());  // seed: entrypoint-no-check
  return ProductQuantizer();
}

Status ProductQuantizer::Train(const FloatMatrix& data) {
  VAQ_CHECK(data.rows() > 0);  // training, not an entry point: legal
  return Status::OK();
}

}  // namespace vaq
