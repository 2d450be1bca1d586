// Seeded-violation fixture (NOT compiled). Path mirrors the IVF family's
// entry-point file so entrypoint-no-check arms here too.

namespace vaq {

Status VaqIvfIndex::Search(const float* query, size_t k, size_t nprobe) {
  VAQ_CHECK(nprobe > 0);  // seed: entrypoint-no-check
  (void)query;
  (void)k;
  return Status::OK();
}

void VaqIvfIndex::BuildScanStructures(size_t rows) {
  VAQ_CHECK(rows > 0);  // build helper, not an entry point: legal
}

}  // namespace vaq
