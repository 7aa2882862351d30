#ifndef M2TD_UTIL_CPU_FEATURES_H_
#define M2TD_UTIL_CPU_FEATURES_H_

#include <string_view>

namespace m2td::util {

/// Instruction-set extensions detected on the host CPU. Probed once per
/// process (the answer cannot change while we run).
struct CpuFeatures {
  /// x86-64 AVX2 (256-bit integer/double vectors).
  bool avx2 = false;
  /// x86-64 FMA3 (fused multiply-add).
  bool fma = false;
  /// AArch64 Advanced SIMD (baseline on every 64-bit ARM core).
  bool neon = false;
};

/// The host CPU's feature set, probed on first call and cached.
const CpuFeatures& HostCpuFeatures();

/// SIMD dispatch level for the hot inner kernels. Every kernel call runs
/// at ResolvedSimdIsa(); `kScalar` is the dispatch target on hosts (or
/// builds) without a vector ISA, and the level `M2TD_FORCE_ISA=scalar`
/// pins. The vector levels fuse multiply-adds and reassociate lane sums,
/// so they agree with the scalar table to rounding, not bit for bit.
enum class SimdIsa {
  /// Portable scalar loops — bit-identical to the historical kernels.
  kScalar = 0,
  /// AVX2 + FMA 4-wide double kernels (x86-64 only).
  kAvx2 = 1,
  /// NEON 2-wide double kernels (AArch64 only).
  kNeon = 2,
};

/// Stable lowercase name ("scalar" / "avx2" / "neon") for reports, logs,
/// and the M2TD_FORCE_ISA override.
const char* SimdIsaName(SimdIsa isa);

/// Parses a SimdIsaName back into the enum. Returns false (and leaves
/// `*out` untouched) for unknown names.
bool ParseSimdIsa(std::string_view name, SimdIsa* out);

/// Best ISA level both compiled into this binary and supported by the
/// host CPU, ignoring any override.
SimdIsa DetectedSimdIsa();

/// DetectedSimdIsa() capped by the `M2TD_FORCE_ISA` environment variable
/// (`scalar`, `avx2`, or `neon`). Forcing `scalar` always works; forcing
/// a vector ISA the host or binary lacks logs a warning and falls back
/// to the detected level (we cannot execute instructions the CPU does
/// not have). The env var is read once and cached. This is the level
/// every dispatched kernel runs at, and what the run-report
/// `hardware.simd_dispatch` field records.
SimdIsa ResolvedSimdIsa();

/// Drops the cached M2TD_FORCE_ISA parse so tests can flip the
/// environment variable mid-process and observe the new resolution.
void RefreshSimdIsaForTesting();

}  // namespace m2td::util

#endif  // M2TD_UTIL_CPU_FEATURES_H_
