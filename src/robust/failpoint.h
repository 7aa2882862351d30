#ifndef M2TD_ROBUST_FAILPOINT_H_
#define M2TD_ROBUST_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace m2td::robust {

/// \brief Deterministic fault-injection framework.
///
/// Library code registers *failpoints* — named spots at the fallible seams
/// of the pipeline (chunk blob writes, MapReduce task bodies, simulation
/// runs) — by calling CheckFailpoint("name") and propagating any non-OK
/// Status it returns. In production nothing is armed and a check costs one
/// relaxed atomic load; tests, the CLI (--fail_point), and the
/// M2TD_FAILPOINTS environment variable arm failpoints to make those seams
/// fail on demand, deterministically.
///
/// Spec grammar (the string accepted by ArmFailpoint / --fail_point):
///
///   <name>[:key=value[,key=value...]]
///
///   after=N   skip the first N hits (fire from hit N+1 on). Default 0.
///   times=K   fire at most K times, then disarm behavior-wise. Default
///             unlimited.
///   prob=P    fire each eligible hit with probability P in (0,1]. Draws
///             come from a per-failpoint PRNG, so the fire pattern is a
///             pure function of (seed, hit sequence). Default 1.
///   seed=S    seeds the per-failpoint PRNG used by prob. Default 0.
///
/// Examples: "shuffle_store.read_blob:times=1",
/// "mapreduce.reduce_task:prob=0.2,seed=7", "ensemble.batch:after=5".
///
/// A fired failpoint returns Status::Internal mentioning the failpoint
/// name, increments the obs counter `robust.failpoint_fires` (and
/// `robust.failpoint.<name>`), and records a trace instant. Hits and fires
/// are counted per failpoint whether or not the hit fires.
struct FailpointSpec {
  std::string name;
  std::uint64_t after = 0;
  std::uint64_t times = ~0ULL;
  double probability = 1.0;
  std::uint64_t seed = 0;
};

/// Parses the spec grammar above. InvalidArgument on malformed input.
Result<FailpointSpec> ParseFailpointSpec(const std::string& spec);

/// Arms (or re-arms, resetting counters) one failpoint.
Status ArmFailpoint(const FailpointSpec& spec);

/// Parses and arms a ';'-separated list of spec strings.
Status ArmFailpointsFromString(const std::string& specs);

/// Arms every spec in the M2TD_FAILPOINTS environment variable
/// (';'-separated); OK and a no-op when unset or empty.
Status ArmFailpointsFromEnv();

void DisarmFailpoint(std::string_view name);
void DisarmAllFailpoints();

/// Times CheckFailpoint consulted the named failpoint since arming.
std::uint64_t FailpointHits(std::string_view name);
/// Times the named failpoint actually fired since arming.
std::uint64_t FailpointFires(std::string_view name);

/// Names of all currently armed failpoints (for diagnostics).
std::vector<std::string> ArmedFailpoints();

namespace internal {
extern std::atomic<int> g_armed_count;
Status CheckFailpointSlow(std::string_view name);
}  // namespace internal

/// The per-seam hook: OK unless `name` is armed and elects to fire. With
/// nothing armed anywhere this is a single relaxed atomic load.
inline Status CheckFailpoint(std::string_view name) {
  if (internal::g_armed_count.load(std::memory_order_relaxed) == 0) {
    return Status::OK();
  }
  return internal::CheckFailpointSlow(name);
}

}  // namespace m2td::robust

#endif  // M2TD_ROBUST_FAILPOINT_H_
