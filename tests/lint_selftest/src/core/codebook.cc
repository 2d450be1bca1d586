// Seeded-violation fixture (NOT compiled; see ../../README.md). Path
// mirrors src/core/codebook.cc so the kernel rules arm on EncodeRow.

#include <vector>

namespace vaq {

// Not a kernel: resizing the caller's lookup table once per query is
// legal and must NOT be reported.
void VariableCodebooks::BuildLookupTable(const float* query,
                                         std::vector<float>* lut) const {
  lut->resize(lut_entries_);
  (void)query;
}

void VariableCodebooks::EncodeRow(const float* x, uint16_t* code) const {
  std::vector<float> distances(lut_entries_);  // seed: kernel-no-alloc
  (void)x;
  code[0] = 0;
}

}  // namespace vaq
