#include "util/cpu_features.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/logging.h"

namespace m2td::util {

namespace {

CpuFeatures ProbeCpuFeatures() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(_M_X64)
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
  features.fma = __builtin_cpu_supports("fma") != 0;
#elif defined(__aarch64__)
  // Advanced SIMD is architecturally mandatory on AArch64.
  features.neon = true;
#endif
  return features;
}

// Resolved M2TD_FORCE_ISA cap, cached after the first read. -1 = not yet
// resolved; otherwise a SimdIsa value.
std::atomic<int> g_resolved_isa{-1};

SimdIsa ResolveFromEnv() {
  const SimdIsa detected = DetectedSimdIsa();
  const char* forced = std::getenv("M2TD_FORCE_ISA");
  if (forced == nullptr || *forced == '\0') return detected;
  SimdIsa requested;
  if (!ParseSimdIsa(forced, &requested)) {
    M2TD_LOG_WARNING() << "M2TD_FORCE_ISA='" << forced
                       << "' is not one of scalar|avx2|neon; using detected "
                       << SimdIsaName(detected);
    return detected;
  }
  if (requested == SimdIsa::kScalar) return SimdIsa::kScalar;
  if (requested != detected) {
    // A vector ISA can only be forced downward-compatible: the binary
    // must carry the kernels and the CPU must execute them.
    M2TD_LOG_WARNING() << "M2TD_FORCE_ISA=" << SimdIsaName(requested)
                       << " is not available on this host/build; using "
                       << SimdIsaName(detected);
    return detected;
  }
  return requested;
}

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures features = ProbeCpuFeatures();
  return features;
}

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kScalar:
      break;
  }
  return "scalar";
}

bool ParseSimdIsa(std::string_view name, SimdIsa* out) {
  if (name == "scalar") {
    *out = SimdIsa::kScalar;
  } else if (name == "avx2") {
    *out = SimdIsa::kAvx2;
  } else if (name == "neon") {
    *out = SimdIsa::kNeon;
  } else {
    return false;
  }
  return true;
}

SimdIsa DetectedSimdIsa() {
#if defined(__x86_64__) || defined(_M_X64)
  const CpuFeatures& features = HostCpuFeatures();
  if (features.avx2 && features.fma) return SimdIsa::kAvx2;
#elif defined(__aarch64__)
  if (HostCpuFeatures().neon) return SimdIsa::kNeon;
#endif
  return SimdIsa::kScalar;
}

SimdIsa ResolvedSimdIsa() {
  int cached = g_resolved_isa.load(std::memory_order_acquire);
  if (cached < 0) {
    cached = static_cast<int>(ResolveFromEnv());
    g_resolved_isa.store(cached, std::memory_order_release);
  }
  return static_cast<SimdIsa>(cached);
}

void RefreshSimdIsaForTesting() {
  g_resolved_isa.store(-1, std::memory_order_release);
}

}  // namespace m2td::util
