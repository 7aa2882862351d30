// Scoped control of the SIMD kernel dispatch for tests: pin the kernels
// to one ISA level through M2TD_FORCE_ISA and put everything back on
// scope exit, so no test leaks dispatch state into the next.

#ifndef M2TD_TESTS_DISPATCH_GUARD_H_
#define M2TD_TESTS_DISPATCH_GUARD_H_

#include <cstdlib>
#include <string>

#include "parallel/thread_pool.h"
#include "util/cpu_features.h"

namespace m2td {

/// Sets M2TD_FORCE_ISA to `name` and drops the cached resolution so the
/// next kernel call dispatches at the new level.
inline void ForceIsa(const char* name) {
  ::setenv("M2TD_FORCE_ISA", name, /*overwrite=*/1);
  util::RefreshSimdIsaForTesting();
}

/// Saves the M2TD_FORCE_ISA environment on construction; Restore() and
/// the destructor put it back (re-resolving the dispatch level) and reset
/// the global pool to hardware concurrency. Restoring rather than
/// unsetting keeps a suite registered under `M2TD_FORCE_ISA=scalar`
/// pinned for its whole run.
class DispatchGuard {
 public:
  DispatchGuard() {
    const char* env = std::getenv("M2TD_FORCE_ISA");
    had_env_ = env != nullptr;
    if (had_env_) saved_env_ = env;
  }
  ~DispatchGuard() {
    Restore();
    parallel::SetGlobalThreads(parallel::HardwareThreads());
  }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

  /// Returns the dispatch to the level the environment resolved to when
  /// the guard was built.
  void Restore() {
    if (had_env_) {
      ::setenv("M2TD_FORCE_ISA", saved_env_.c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv("M2TD_FORCE_ISA");
    }
    util::RefreshSimdIsaForTesting();
  }

 private:
  bool had_env_ = false;
  std::string saved_env_;
};

}  // namespace m2td

#endif  // M2TD_TESTS_DISPATCH_GUARD_H_
