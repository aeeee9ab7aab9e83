#include "util/simd.h"

namespace relser {

// With GCC 12, a -fsanitize=thread binary that contains this ifunc
// segfaults at start-up, before main; TSan builds compile the loop for
// the baseline ISA only.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("avx2", "default")))
#endif
void OrWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

}  // namespace relser
