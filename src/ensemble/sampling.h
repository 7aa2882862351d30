#ifndef M2TD_ENSEMBLE_SAMPLING_H_
#define M2TD_ENSEMBLE_SAMPLING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ensemble/simulation_model.h"
#include "tensor/sparse_tensor.h"
#include "util/random.h"
#include "util/result.h"

namespace m2td::ensemble {

/// The conventional ensemble construction schemes of Section IV, used as
/// baselines against partition-stitch sampling.
enum class ConventionalScheme {
  /// `budget` parameter combinations drawn uniformly without replacement.
  kRandom,
  /// A regular sub-grid per parameter whose cross product best fills the
  /// budget.
  kGrid,
  /// Whole axis-aligned slices (one parameter pinned to a grid value, all
  /// combinations of the others) added until the budget is exhausted; the
  /// final slice is truncated randomly if it does not fit.
  kSlice,
  /// Latin hypercube sampling: per parameter, `budget` stratified grid
  /// positions (one per stratum, jittered) independently shuffled and
  /// zipped into combinations — the classical space-filling design from
  /// the simulation-design literature the paper's related work surveys.
  kLatinHypercube,
};

const char* ConventionalSchemeName(ConventionalScheme scheme);

/// \brief Runs `budget` simulations chosen by `scheme` and encodes them as
/// a sparse ensemble tensor over the model's full space.
///
/// A "simulation" is one parameter combination; it fills the entire time
/// fiber (time_resolution cells) of the tensor, matching the paper's budget
/// accounting where B counts simulation instances. The returned tensor is
/// coalesced. `budget` is clamped to the number of parameter combinations.
Result<tensor::SparseTensor> BuildConventionalEnsemble(
    SimulationModel* model, ConventionalScheme scheme, std::uint64_t budget,
    Rng* rng);

/// The distinct parameter combinations (as multi-indices over the parameter
/// modes only, time excluded) each scheme would select — exposed for tests
/// and for the sampling-distribution example.
Result<std::vector<std::vector<std::uint32_t>>> SelectParameterCombinations(
    const ParameterSpace& space, std::size_t time_mode,
    ConventionalScheme scheme, std::uint64_t budget, Rng* rng);

/// Fault-tolerance controls for BuildConventionalEnsembleRobust.
struct EnsembleBuildOptions {
  /// Simulations per checkpointed batch.
  std::uint64_t batch_size = 16;
  /// Journal + batch-artifact directory; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Continue from an existing journal instead of starting fresh.
  bool resume = false;
  /// Cap on budget-preserving replacement draws across the whole build.
  std::uint64_t max_replacement_draws = 64;
};

/// What a robust build did, for reports and budget accounting.
struct EnsembleBuildReport {
  /// Simulations whose fiber came back non-finite (NaN/Inf) and were
  /// dropped.
  std::uint64_t failed_simulations = 0;
  /// Fresh combinations drawn to replace failed ones (≤ failed unless the
  /// replacement itself failed and was re-drawn).
  std::uint64_t replacement_draws = 0;
  /// Parameter combinations whose fibers made it into the tensor.
  std::uint64_t simulations_kept = 0;
  /// Batches restored from a checkpoint instead of re-simulated.
  std::uint64_t batches_resumed = 0;
};

/// \brief Fault-tolerant variant of BuildConventionalEnsemble.
///
/// Runs the budgeted simulations in batches. A simulation whose time fiber
/// contains NaN/Inf (failed integration, or an armed `sim.trajectory`
/// failpoint) is dropped and replaced with a fresh uniform draw from the
/// not-yet-simulated combinations, preserving the simulation budget
/// exactly (until `max_replacement_draws` or the space is exhausted). With
/// a checkpoint directory, each completed batch is written atomically as
/// `batch_<i>.bin` and journaled; a killed run restarted with
/// `resume = true` reloads completed batches instead of re-simulating
/// them. Replacement draws consume `rng`, so a *resumed* run only replays
/// the recorded batches bit-identically — its later replacement draws may
/// differ from an uninterrupted run's (the budget guarantee still holds).
/// Cancellation returns kCancelled at the next batch boundary, or at once
/// when it interrupts a simulation, whose batch is then not journaled. The
/// `ensemble.batch` failpoint fires once per freshly simulated batch.
Result<tensor::SparseTensor> BuildConventionalEnsembleRobust(
    SimulationModel* model, ConventionalScheme scheme, std::uint64_t budget,
    Rng* rng, const EnsembleBuildOptions& options = {},
    EnsembleBuildReport* report = nullptr);

}  // namespace m2td::ensemble

#endif  // M2TD_ENSEMBLE_SAMPLING_H_
