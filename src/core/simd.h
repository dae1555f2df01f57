// Compile-time SIMD dispatch for the batch-query kernels.
//
// The grid batch kernel (hist/grid_kernels.cc) is written twice — SSE2
// (2 doubles per register) and plain scalar — selected here with `#if`,
// never at runtime: the scalar fallback is bit-for-bit identical to the
// vector path (pinned by tests), so a build's answers do not depend on
// which ISA it was compiled for.
//
// x86-64 always has SSE2, so default builds take the 2-wide path.  FMA
// intrinsics are never used — a fused multiply-add rounds once where the
// scalar code rounds twice, which would break the bit-for-bit contract
// (the top-level CMakeLists additionally pins -ffp-contract=off so the
// *compiler* cannot fuse behind our back on FMA targets).
#ifndef PRIVTREE_CORE_SIMD_H_
#define PRIVTREE_CORE_SIMD_H_

#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define PRIVTREE_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace privtree {

/// Name of the vector ISA the kernels were compiled for ("sse2" or
/// "scalar"); bench_micro labels its SIMD grid row with it.
inline const char* SimdKernelName() {
#if defined(PRIVTREE_SIMD_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

}  // namespace privtree

#endif  // PRIVTREE_CORE_SIMD_H_
