#ifndef M2TD_CORE_DM2TD_DIST_H_
#define M2TD_CORE_DM2TD_DIST_H_

// The multi-process D-M2TD coordinator (DistBackend::kProcess): spawns
// `num_workers` m2td_worker processes that dial back over loopback TCP
// (or waits for external ones to dial in), assigns (phase, task,
// attempt) triples as length-prefixed frames (mapreduce/transport.h),
// shuffles all intermediate data through the CRC-footered durable
// io::ShuffleStore, and recovers from worker death at any point by
// reassigning the dead worker's task to a survivor — tasks replay from
// the last committed attempt, so results stay bit-identical to the
// thread backend at any worker count and kill schedule.

#include <string>
#include <vector>

#include "core/dm2td.h"
#include "util/result.h"

namespace m2td::core {

/// Resolves the worker binary path: `configured` if non-empty, else
/// $M2TD_WORKER_BIN, else "m2td_worker" / "../tools/m2td_worker" next to
/// the current executable. NotFound when nothing exists.
Result<std::string> DefaultWorkerBinary(const std::string& configured);

/// The kProcess implementation behind DM2tdDecompose. Arguments are
/// pre-validated by the dispatcher.
Result<DM2tdResult> DM2tdDecomposeProcess(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape, const DM2tdOptions& options);

}  // namespace m2td::core

#endif  // M2TD_CORE_DM2TD_DIST_H_
