#ifndef DEMON_TIDLIST_SIMD_H_
#define DEMON_TIDLIST_SIMD_H_

namespace demon::simd {

/// Name of the intersection kernel family, recorded in the ledger
/// benchmark's run metadata. The TID-list kernels are scalar only (see
/// DESIGN.md "Counting kernels"); this header survives solely because the
/// benchmark harness includes it and stamps the name into its results.
inline const char* ActiveKernelName() { return "scalar"; }

}  // namespace demon::simd

#endif  // DEMON_TIDLIST_SIMD_H_
