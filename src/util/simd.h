// The one word kernel behind DenseBitset::UnionWith and the flat
// transitive-closure rows (graph/closure).
//
// OrWords is a plain loop that GCC compiles twice, for AVX2 and for the
// baseline ISA (`target_clones`); the dynamic loader's ifunc resolver
// picks the widest clone the CPU supports once, at load time. TSan
// builds get the baseline clone only (see simd.cc).
#ifndef RELSER_UTIL_SIMD_H_
#define RELSER_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace relser {

/// dst[i] |= src[i] for i in [0, n).
void OrWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);

}  // namespace relser

#endif  // RELSER_UTIL_SIMD_H_
