// Seeded-violation fixture (NOT compiled). Path mirrors the shared query
// driver, where both index families' Search bodies run, so
// entrypoint-no-check must arm here too; its scan loops are kernels, so
// kernel-no-alloc must arm in ScanBlocked.

namespace vaq {

Status SearchEncoded(const float* query, size_t k) {
  VAQ_CHECK(query != nullptr);  // seed: entrypoint-no-check
  return Status::OK();
}

void ScanBlocked(size_t rows) {
  VAQ_CHECK(rows > 0);  // scan helper, not an entry point: legal
  std::vector<uint16_t> code(rows);  // seed: kernel-no-alloc
}

void RankPartitions(const float* projected, size_t visit) {
  VAQ_CHECK(visit > 0);  // seed: entrypoint-no-check
  (void)projected;
}

void BuildRanking(size_t visit) {
  VAQ_CHECK(visit > 0);  // "Rank" mid-identifier, not a Rank*: legal
}

}  // namespace vaq
