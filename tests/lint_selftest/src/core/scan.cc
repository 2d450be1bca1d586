// Seeded-violation fixture (NOT compiled; see ../../README.md). Path
// mirrors src/core/scan.cc so the kernel and entry-point rules of
// lint_invariants.py arm on this file.

#include <chrono>
#include <vector>

namespace vaq {

// Non-kernel function: container growth, clocks, and logging here are
// legal (build-time code) and must NOT be reported.
void BuildScanStructures() {
  std::vector<int> staging;
  staging.push_back(1);
  VAQ_LOG(LogLevel::kDebug, "staging %zu rows", staging.size());
}

void BlockedFullScan(const float* lut, float* acc) {
  float* scratch = new float[64];  // seed: kernel-no-alloc
  const auto t0 = std::chrono::steady_clock::now();  // seed: kernel-no-clock
  VAQ_LOG(LogLevel::kWarning, "scan started");  // seed: kernel-no-log
  // vaq-lint: allow(kernel-no-alloc) -- suppressed seed: must stay quiet
  float* quiet = new float[8];
  // A "new" inside a comment and the string "malloc(3)" below must not
  // trip the stripper-blind spots.
  const char* doc = "see malloc(3); operator new is forbidden here";
  (void)scratch;
  (void)t0;
  (void)quiet;
  (void)doc;
  acc[0] = lut[0];
}

// The code store's partition reader parses untrusted file bytes.
Status PartitionedCodes::LoadPartitions(std::istream& is, bool distances) {
  VAQ_CHECK(distances);  // seed: entrypoint-no-check
  (void)is;
  return Status::OK();
}

// "Search" inside a longer name is not an entry point: legal.
Status FinalizeSearchResult(const StopController* stop) {
  VAQ_CHECK(stop != nullptr);
  return Status::OK();
}

}  // namespace vaq
