#include "ensemble/sampling.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "io/tensor_io.h"
#include "obs/metrics.h"
#include "robust/cancel.h"
#include "robust/checkpoint.h"
#include "robust/failpoint.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace m2td::ensemble {

const char* ConventionalSchemeName(ConventionalScheme scheme) {
  switch (scheme) {
    case ConventionalScheme::kRandom:
      return "Random";
    case ConventionalScheme::kGrid:
      return "Grid";
    case ConventionalScheme::kSlice:
      return "Slice";
    case ConventionalScheme::kLatinHypercube:
      return "LHS";
  }
  return "?";
}

namespace {

/// Dimensions of the parameter modes (time excluded), in mode order.
std::vector<std::uint64_t> ParamShape(const ParameterSpace& space,
                                      std::size_t time_mode) {
  std::vector<std::uint64_t> shape;
  shape.reserve(space.num_modes() - 1);
  for (std::size_t m = 0; m < space.num_modes(); ++m) {
    if (m != time_mode) shape.push_back(space.Resolution(m));
  }
  return shape;
}

std::uint64_t Product(const std::vector<std::uint64_t>& dims) {
  std::uint64_t total = 1;
  for (std::uint64_t d : dims) {
    if (d != 0 && total > ~0ULL / d) return ~0ULL;
    total *= d;
  }
  return total;
}

std::vector<std::uint32_t> DecodeLinear(
    std::uint64_t linear, const std::vector<std::uint64_t>& dims) {
  std::vector<std::uint32_t> combo(dims.size());
  for (std::size_t m = dims.size(); m-- > 0;) {
    combo[m] = static_cast<std::uint32_t>(linear % dims[m]);
    linear /= dims[m];
  }
  return combo;
}

std::uint64_t EncodeLinear(const std::vector<std::uint32_t>& combo,
                           const std::vector<std::uint64_t>& dims) {
  std::uint64_t linear = 0;
  for (std::size_t m = 0; m < dims.size(); ++m) {
    linear = linear * dims[m] + combo[m];
  }
  return linear;
}

std::vector<std::vector<std::uint32_t>> SelectRandom(
    const std::vector<std::uint64_t>& dims, std::uint64_t budget, Rng* rng) {
  const std::uint64_t total = Product(dims);
  std::vector<std::vector<std::uint32_t>> combos;
  for (std::uint64_t linear : rng->SampleWithoutReplacement(total, budget)) {
    combos.push_back(DecodeLinear(linear, dims));
  }
  return combos;
}

std::vector<std::vector<std::uint32_t>> SelectGrid(
    const std::vector<std::uint64_t>& dims, std::uint64_t budget) {
  const std::size_t p = dims.size();
  // Per-mode sub-grid sizes: grow the smallest count while the cross
  // product still fits the budget.
  std::vector<std::uint64_t> counts(p, 1);
  bool grew = true;
  while (grew) {
    grew = false;
    // Pick the growable mode with the smallest count.
    std::size_t best = p;
    for (std::size_t m = 0; m < p; ++m) {
      if (counts[m] >= dims[m]) continue;
      if (best == p || counts[m] < counts[best]) best = m;
    }
    if (best == p) break;
    // counts[best] divides the product, so this is the exact grown size.
    const std::uint64_t product = Product(counts);
    if (product / counts[best] * (counts[best] + 1) <= budget) {
      ++counts[best];
      grew = true;
    }
  }
  // Evenly spaced index subsets.
  std::vector<std::vector<std::uint32_t>> per_mode(p);
  for (std::size_t m = 0; m < p; ++m) {
    for (std::uint64_t i = 0; i < counts[m]; ++i) {
      const std::uint32_t idx =
          counts[m] == 1
              ? static_cast<std::uint32_t>(dims[m] / 2)
              : static_cast<std::uint32_t>(i * (dims[m] - 1) /
                                           (counts[m] - 1));
      per_mode[m].push_back(idx);
    }
  }
  // Cross product.
  std::vector<std::vector<std::uint32_t>> combos;
  combos.reserve(Product(counts));
  std::vector<std::size_t> cursor(p, 0);
  while (true) {
    std::vector<std::uint32_t> combo(p);
    for (std::size_t m = 0; m < p; ++m) combo[m] = per_mode[m][cursor[m]];
    combos.push_back(std::move(combo));
    std::size_t m = p;
    while (m-- > 0) {
      if (++cursor[m] < per_mode[m].size()) break;
      cursor[m] = 0;
      if (m == 0) return combos;
    }
  }
}

std::vector<std::vector<std::uint32_t>> SelectSlice(
    const std::vector<std::uint64_t>& dims, std::uint64_t budget, Rng* rng) {
  const std::size_t p = dims.size();
  std::vector<std::vector<std::uint32_t>> combos;
  std::unordered_set<std::uint64_t> chosen;
  // Remaining (not yet used) slice indices per mode.
  std::vector<std::vector<std::uint32_t>> unused(p);
  for (std::size_t m = 0; m < p; ++m) {
    for (std::uint64_t i = 0; i < dims[m]; ++i) {
      unused[m].push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::size_t next_mode = 0;
  const std::uint64_t total = Product(dims);
  budget = std::min(budget, total);
  while (combos.size() < budget) {
    // Pick the next unused (mode, fixed index) slice, cycling over modes
    // and drawing the fixed value uniformly from that mode's unused pool.
    std::size_t slice_mode = p;
    std::uint32_t fixed_index = 0;
    for (std::size_t attempt = 0; attempt < p; ++attempt) {
      const std::size_t m = next_mode;
      next_mode = (next_mode + 1) % p;
      if (unused[m].empty()) continue;
      const std::size_t pick =
          static_cast<std::size_t>(rng->UniformInt(unused[m].size()));
      fixed_index = unused[m][pick];
      unused[m][pick] = unused[m].back();
      unused[m].pop_back();
      slice_mode = m;
      break;
    }
    if (slice_mode == p) break;  // slice space exhausted

    // Enumerate the slice; collect the combos not yet chosen.
    std::vector<std::uint64_t> other_dims;
    for (std::size_t m = 0; m < p; ++m) {
      if (m != slice_mode) other_dims.push_back(dims[m]);
    }
    const std::uint64_t slice_size = Product(other_dims);
    std::vector<std::vector<std::uint32_t>> fresh;
    fresh.reserve(slice_size);
    for (std::uint64_t linear = 0; linear < slice_size; ++linear) {
      std::vector<std::uint32_t> partial = DecodeLinear(linear, other_dims);
      std::vector<std::uint32_t> combo(p);
      std::size_t cursor = 0;
      for (std::size_t m = 0; m < p; ++m) {
        combo[m] = (m == slice_mode) ? fixed_index : partial[cursor++];
      }
      if (chosen.count(EncodeLinear(combo, dims)) == 0) {
        fresh.push_back(std::move(combo));
      }
    }
    const std::uint64_t remaining = budget - combos.size();
    if (fresh.size() > remaining) {
      // Truncate the last slice randomly to honor the budget exactly.
      std::vector<std::uint64_t> keep =
          rng->SampleWithoutReplacement(fresh.size(), remaining);
      std::sort(keep.begin(), keep.end());
      std::vector<std::vector<std::uint32_t>> subset;
      subset.reserve(remaining);
      for (std::uint64_t k : keep) subset.push_back(std::move(fresh[k]));
      fresh = std::move(subset);
    }
    for (auto& combo : fresh) {
      chosen.insert(EncodeLinear(combo, dims));
      combos.push_back(std::move(combo));
    }
  }
  return combos;
}

std::vector<std::vector<std::uint32_t>> SelectLatinHypercube(
    const std::vector<std::uint64_t>& dims, std::uint64_t budget, Rng* rng) {
  const std::size_t p = dims.size();
  // One stratified, shuffled column of `budget` grid positions per mode.
  std::vector<std::vector<std::uint32_t>> columns(p);
  for (std::size_t m = 0; m < p; ++m) {
    columns[m].resize(budget);
    for (std::uint64_t s = 0; s < budget; ++s) {
      // Stratum s covers [s/budget, (s+1)/budget); jitter within it, then
      // snap to the grid.
      const double u =
          (static_cast<double>(s) + rng->UniformDouble()) /
          static_cast<double>(budget);
      columns[m][s] = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(dims[m] - 1,
                                  static_cast<std::uint64_t>(
                                      u * static_cast<double>(dims[m]))));
    }
    // Fisher-Yates shuffle decorrelates the modes.
    for (std::uint64_t s = budget; s-- > 1;) {
      const std::uint64_t t = rng->UniformInt(s + 1);
      std::swap(columns[m][s], columns[m][t]);
    }
  }
  // Zip columns into combinations; drop duplicates (possible when the
  // budget exceeds a mode's resolution).
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::vector<std::uint32_t>> combos;
  combos.reserve(budget);
  for (std::uint64_t s = 0; s < budget; ++s) {
    std::vector<std::uint32_t> combo(p);
    for (std::size_t m = 0; m < p; ++m) combo[m] = columns[m][s];
    if (seen.insert(EncodeLinear(combo, dims)).second) {
      combos.push_back(std::move(combo));
    }
  }
  // Top up with uniform draws so the scheme spends the exact budget even
  // when zipping collided.
  const std::uint64_t total = Product(dims);
  while (combos.size() < budget && seen.size() < total) {
    std::vector<std::uint32_t> combo =
        DecodeLinear(rng->UniformInt(total), dims);
    if (seen.insert(EncodeLinear(combo, dims)).second) {
      combos.push_back(std::move(combo));
    }
  }
  return combos;
}

}  // namespace

Result<std::vector<std::vector<std::uint32_t>>> SelectParameterCombinations(
    const ParameterSpace& space, std::size_t time_mode,
    ConventionalScheme scheme, std::uint64_t budget, Rng* rng) {
  if (time_mode >= space.num_modes()) {
    return Status::InvalidArgument("time mode out of range");
  }
  if (budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("rng must not be null");
  }
  const std::vector<std::uint64_t> dims = ParamShape(space, time_mode);
  const std::uint64_t clamped = std::min(budget, Product(dims));
  switch (scheme) {
    case ConventionalScheme::kRandom:
      return SelectRandom(dims, clamped, rng);
    case ConventionalScheme::kGrid:
      return SelectGrid(dims, clamped);
    case ConventionalScheme::kSlice:
      return SelectSlice(dims, clamped, rng);
    case ConventionalScheme::kLatinHypercube:
      return SelectLatinHypercube(dims, clamped, rng);
  }
  return Status::InvalidArgument("unknown sampling scheme");
}

Result<tensor::SparseTensor> BuildConventionalEnsemble(
    SimulationModel* model, ConventionalScheme scheme, std::uint64_t budget,
    Rng* rng) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  const ParameterSpace& space = model->space();
  const std::size_t time_mode = model->time_mode();
  M2TD_ASSIGN_OR_RETURN(
      std::vector<std::vector<std::uint32_t>> combos,
      SelectParameterCombinations(space, time_mode, scheme, budget, rng));

  tensor::SparseTensor ensemble(space.Shape());
  const std::uint32_t time_res = space.Resolution(time_mode);
  ensemble.Reserve(combos.size() * time_res);
  std::vector<std::uint32_t> indices(space.num_modes());
  for (const std::vector<std::uint32_t>& combo : combos) {
    M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
    std::size_t cursor = 0;
    for (std::size_t m = 0; m < space.num_modes(); ++m) {
      if (m != time_mode) indices[m] = combo[cursor++];
    }
    for (std::uint32_t t = 0; t < time_res; ++t) {
      indices[time_mode] = t;
      ensemble.AppendEntry(indices, model->Cell(indices));
    }
  }
  ensemble.SortAndCoalesce();
  return ensemble;
}

Result<tensor::SparseTensor> BuildConventionalEnsembleRobust(
    SimulationModel* model, ConventionalScheme scheme, std::uint64_t budget,
    Rng* rng, const EnsembleBuildOptions& options,
    EnsembleBuildReport* report) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  if (options.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  const ParameterSpace& space = model->space();
  const std::size_t time_mode = model->time_mode();
  M2TD_ASSIGN_OR_RETURN(
      std::vector<std::vector<std::uint32_t>> combos,
      SelectParameterCombinations(space, time_mode, scheme, budget, rng));

  const std::vector<std::uint64_t> dims = ParamShape(space, time_mode);
  const std::uint64_t total = Product(dims);
  // Every combination ever simulated (selected, restored, or drawn as a
  // replacement); replacement draws sample outside this set so the budget
  // counts distinct simulations.
  std::unordered_set<std::uint64_t> used;
  for (const auto& combo : combos) used.insert(EncodeLinear(combo, dims));

  EnsembleBuildReport local_report;
  EnsembleBuildReport* rep = report != nullptr ? report : &local_report;
  *rep = EnsembleBuildReport{};

  std::optional<robust::CheckpointJournal> journal;
  if (!options.checkpoint_dir.empty()) {
    std::ostringstream fp;
    fp << "ens-v1-" << ConventionalSchemeName(scheme) << "-b" << budget
       << "-k" << options.batch_size << "-s";
    for (std::uint64_t d : space.Shape()) fp << "_" << d;
    M2TD_ASSIGN_OR_RETURN(
        robust::CheckpointJournal opened,
        robust::CheckpointJournal::Open(options.checkpoint_dir, fp.str(),
                                        options.resume));
    journal = std::move(opened);
  }

  tensor::SparseTensor ensemble(space.Shape());
  const std::uint32_t time_res = space.Resolution(time_mode);
  ensemble.Reserve(combos.size() * time_res);

  std::vector<std::uint32_t> indices(space.num_modes());
  auto place_combo = [&](const std::vector<std::uint32_t>& combo) {
    std::size_t cursor = 0;
    for (std::size_t m = 0; m < space.num_modes(); ++m) {
      if (m != time_mode) indices[m] = combo[cursor++];
    }
  };
  /// Simulates `combo`'s whole time fiber; false when any cell came back
  /// non-finite (the fiber is then discarded).
  std::vector<double> values;
  auto simulate_fiber = [&](const std::vector<std::uint32_t>& combo) {
    place_combo(combo);
    values.clear();
    bool finite = true;
    for (std::uint32_t t = 0; t < time_res; ++t) {
      indices[time_mode] = t;
      const double v = model->Cell(indices);
      if (!std::isfinite(v)) finite = false;
      values.push_back(v);
    }
    return finite;
  };

  const std::uint64_t num_batches =
      (combos.size() + options.batch_size - 1) / options.batch_size;
  std::vector<std::uint32_t> idx(space.num_modes());
  std::vector<std::uint32_t> restored_combo(dims.size());
  for (std::uint64_t b = 0; b < num_batches; ++b) {
    const std::string mark_key = "ensemble.batch_" + std::to_string(b);
    const std::string artifact = "batch_" + std::to_string(b) + ".bin";
    if (journal && journal->Contains(mark_key)) {
      // Restore the batch verbatim, and re-reserve its combinations (which
      // include that run's replacement draws) so this run's replacements
      // cannot duplicate them.
      M2TD_ASSIGN_OR_RETURN(
          tensor::SparseTensor batch,
          io::LoadSparseBinary(journal->ArtifactPath(artifact)));
      std::unordered_set<std::uint64_t> batch_combos;
      for (std::uint64_t e = 0; e < batch.NumNonZeros(); ++e) {
        std::size_t cursor = 0;
        for (std::size_t m = 0; m < space.num_modes(); ++m) {
          idx[m] = batch.Index(m, e);
          if (m != time_mode) restored_combo[cursor++] = idx[m];
        }
        const std::uint64_t linear = EncodeLinear(restored_combo, dims);
        used.insert(linear);
        batch_combos.insert(linear);
        ensemble.AppendEntry(idx, batch.Value(e));
      }
      rep->simulations_kept += batch_combos.size();
      ++rep->batches_resumed;
      obs::GetCounter("robust.ensemble_batches_resumed").Add(1);
      continue;
    }
    // Completed batches are already journaled (artifact + mark), so a
    // cancellation here loses at most the in-flight batch; a later
    // --resume restores everything marked and re-simulates the rest.
    M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
    M2TD_RETURN_IF_ERROR(robust::CheckFailpoint("ensemble.batch"));

    tensor::SparseTensor batch(space.Shape());
    const std::uint64_t begin = b * options.batch_size;
    const std::uint64_t end = std::min<std::uint64_t>(
        begin + options.batch_size, combos.size());
    for (std::uint64_t c = begin; c < end; ++c) {
      const std::vector<std::uint32_t>* combo = &combos[c];
      std::vector<std::uint32_t> replacement;
      bool kept = false;
      while (true) {
        if (simulate_fiber(*combo)) {
          place_combo(*combo);
          for (std::uint32_t t = 0; t < time_res; ++t) {
            indices[time_mode] = t;
            batch.AppendEntry(indices, values[t]);
          }
          kept = true;
          break;
        }
        // A simulation interrupted by cancellation failed for no reason of
        // its own: drop the in-flight batch instead of journaling it short.
        M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
        ++rep->failed_simulations;
        obs::GetCounter("robust.ensemble_failed_fibers").Add(1);
        if (rep->replacement_draws >= options.max_replacement_draws ||
            used.size() >= total) {
          break;  // budget cannot be preserved; drop this slot
        }
        std::uint64_t linear = 0;
        do {
          linear = rng->UniformInt(total);
        } while (used.count(linear) != 0);
        used.insert(linear);
        ++rep->replacement_draws;
        obs::GetCounter("robust.ensemble_replacements").Add(1);
        replacement = DecodeLinear(linear, dims);
        combo = &replacement;
      }
      if (kept) ++rep->simulations_kept;
    }
    batch.SortAndCoalesce();

    if (journal) {
      // Artifact first, mark second: the mark's presence implies the batch
      // file is complete.
      M2TD_RETURN_IF_ERROR(util::AtomicWriteFile(
          journal->ArtifactPath(artifact), [&](const std::string& tmp) {
            return io::SaveSparseBinary(batch, tmp);
          }));
      M2TD_RETURN_IF_ERROR(journal->Mark(mark_key));
    }
    for (std::uint64_t e = 0; e < batch.NumNonZeros(); ++e) {
      for (std::size_t m = 0; m < space.num_modes(); ++m) {
        idx[m] = batch.Index(m, e);
      }
      ensemble.AppendEntry(idx, batch.Value(e));
    }
  }
  ensemble.SortAndCoalesce();
  return ensemble;
}

}  // namespace m2td::ensemble
