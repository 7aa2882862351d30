#include "core/pf_partition.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace m2td::core {

std::vector<std::size_t> PfPartition::SubTensorModes(int side) const {
  M2TD_CHECK(side == 1 || side == 2) << "side must be 1 or 2";
  std::vector<std::size_t> modes = pivot_modes;
  const std::vector<std::size_t>& free_modes =
      (side == 1) ? side1_modes : side2_modes;
  modes.insert(modes.end(), free_modes.begin(), free_modes.end());
  return modes;
}

Result<PfPartition> MakePartition(std::size_t num_modes,
                                  std::vector<std::size_t> pivot_modes,
                                  std::vector<std::size_t> side1_modes) {
  if (pivot_modes.empty()) {
    return Status::InvalidArgument("at least one pivot mode required");
  }
  std::vector<bool> used(num_modes, false);
  for (std::size_t m : pivot_modes) {
    if (m >= num_modes) {
      return Status::InvalidArgument("pivot mode out of range");
    }
    if (used[m]) return Status::InvalidArgument("duplicate pivot mode");
    used[m] = true;
  }

  PfPartition partition;
  partition.pivot_modes = std::move(pivot_modes);

  if (side1_modes.empty()) {
    // Default split: remaining modes in order, first half to side 1.
    std::vector<std::size_t> remaining;
    for (std::size_t m = 0; m < num_modes; ++m) {
      if (!used[m]) remaining.push_back(m);
    }
    if (remaining.size() < 2) {
      return Status::InvalidArgument(
          "need at least two non-pivot modes to partition");
    }
    const std::size_t half = remaining.size() / 2;
    partition.side1_modes.assign(remaining.begin(), remaining.begin() + half);
    partition.side2_modes.assign(remaining.begin() + half, remaining.end());
    return partition;
  }

  for (std::size_t m : side1_modes) {
    if (m >= num_modes) {
      return Status::InvalidArgument("side-1 mode out of range");
    }
    if (used[m]) {
      return Status::InvalidArgument("side-1 mode overlaps pivot or repeats");
    }
    used[m] = true;
  }
  partition.side1_modes = std::move(side1_modes);
  for (std::size_t m = 0; m < num_modes; ++m) {
    if (!used[m]) partition.side2_modes.push_back(m);
  }
  if (partition.side1_modes.empty() || partition.side2_modes.empty()) {
    return Status::InvalidArgument("both sides must be non-empty");
  }
  return partition;
}

namespace {

/// Enumerates the grid over `modes` of `space`; when density < 1 a subset
/// of the configurations (at least one) is kept per `selection`.
std::vector<std::vector<std::uint32_t>> SelectConfigs(
    const ensemble::ParameterSpace& space,
    const std::vector<std::size_t>& modes, double density,
    ConfigSelection selection, Rng* rng) {
  std::uint64_t total = 1;
  for (std::size_t m : modes) total *= space.Resolution(m);

  std::uint64_t keep = total;
  if (density < 1.0) {
    keep = static_cast<std::uint64_t>(
        std::llround(density * static_cast<double>(total)));
    keep = std::max<std::uint64_t>(1, std::min(keep, total));
  }

  std::vector<std::uint64_t> linear_ids;
  if (keep == total) {
    linear_ids.resize(total);
    for (std::uint64_t i = 0; i < total; ++i) linear_ids[i] = i;
  } else if (selection == ConfigSelection::kEvenlySpaced) {
    linear_ids.reserve(keep);
    for (std::uint64_t i = 0; i < keep; ++i) {
      linear_ids.push_back(keep == 1 ? total / 2
                                     : i * (total - 1) / (keep - 1));
    }
    linear_ids.erase(std::unique(linear_ids.begin(), linear_ids.end()),
                     linear_ids.end());
  } else {
    linear_ids = rng->SampleWithoutReplacement(total, keep);
    std::sort(linear_ids.begin(), linear_ids.end());
  }

  std::vector<std::vector<std::uint32_t>> configs;
  configs.reserve(linear_ids.size());
  for (std::uint64_t linear : linear_ids) {
    std::vector<std::uint32_t> config(modes.size());
    std::uint64_t rest = linear;
    for (std::size_t i = modes.size(); i-- > 0;) {
      const std::uint64_t res = space.Resolution(modes[i]);
      config[i] = static_cast<std::uint32_t>(rest % res);
      rest /= res;
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

/// Builds one side's sub-tensor: pivot configs crossed with free configs
/// (optionally a random `cell_density` subset of the cross product),
/// remaining modes pinned at the space defaults.
tensor::SparseTensor BuildSide(
    ensemble::SimulationModel* model, const PfPartition& partition, int side,
    const std::vector<std::vector<std::uint32_t>>& pivot_configs,
    const std::vector<std::vector<std::uint32_t>>& side_configs,
    double cell_density, Rng* rng, std::uint64_t* cells_evaluated) {
  const ensemble::ParameterSpace& space = model->space();
  const std::vector<std::size_t>& free_modes =
      (side == 1) ? partition.side1_modes : partition.side2_modes;

  std::vector<std::uint64_t> shape;
  for (std::size_t m : partition.pivot_modes) {
    shape.push_back(space.Resolution(m));
  }
  for (std::size_t m : free_modes) shape.push_back(space.Resolution(m));
  tensor::SparseTensor sub(shape);
  sub.Reserve(pivot_configs.size() * side_configs.size());

  // Full-space index with the fixing constants pre-filled.
  std::vector<std::uint32_t> full_index(space.num_modes());
  for (std::size_t m = 0; m < space.num_modes(); ++m) {
    full_index[m] = space.DefaultIndex(m);
  }

  // Which (pivot, free) cells of the cross product to simulate.
  const std::uint64_t cross = static_cast<std::uint64_t>(
      pivot_configs.size() * side_configs.size());
  std::vector<std::uint64_t> cells;
  if (cell_density >= 1.0) {
    cells.resize(cross);
    for (std::uint64_t i = 0; i < cross; ++i) cells[i] = i;
  } else {
    std::uint64_t keep = static_cast<std::uint64_t>(
        std::llround(cell_density * static_cast<double>(cross)));
    keep = std::max<std::uint64_t>(1, std::min(keep, cross));
    cells = rng->SampleWithoutReplacement(cross, keep);
  }

  // Cells go to the model a block at a time, so it can simulate each
  // block's new configurations in lockstep before they are read.
  constexpr std::size_t kBlock = 256;
  std::vector<std::vector<std::uint32_t>> block;
  std::vector<std::uint32_t> sub_index(shape.size());
  for (std::size_t first = 0; first < cells.size(); first += kBlock) {
    const std::size_t count = std::min(kBlock, cells.size() - first);
    block.assign(count, full_index);
    for (std::size_t c = 0; c < count; ++c) {
      const std::uint64_t cell = cells[first + c];
      const auto& pivot = pivot_configs[cell / side_configs.size()];
      const auto& free_cfg = side_configs[cell % side_configs.size()];
      for (std::size_t i = 0; i < partition.pivot_modes.size(); ++i) {
        block[c][partition.pivot_modes[i]] = pivot[i];
      }
      for (std::size_t i = 0; i < free_modes.size(); ++i) {
        block[c][free_modes[i]] = free_cfg[i];
      }
    }
    model->SimulateCells(block);
    for (const std::vector<std::uint32_t>& index : block) {
      for (std::size_t i = 0; i < partition.pivot_modes.size(); ++i) {
        sub_index[i] = index[partition.pivot_modes[i]];
      }
      for (std::size_t i = 0; i < free_modes.size(); ++i) {
        sub_index[partition.pivot_modes.size() + i] = index[free_modes[i]];
      }
      sub.AppendEntry(sub_index, model->Cell(index));
      ++(*cells_evaluated);
    }
  }
  sub.SortAndCoalesce();
  return sub;
}

}  // namespace

Result<SubEnsembles> BuildSubEnsembles(ensemble::SimulationModel* model,
                                       const PfPartition& partition,
                                       const SubEnsembleOptions& options) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  const ensemble::ParameterSpace& space = model->space();
  if (partition.NumModes() != space.num_modes()) {
    return Status::InvalidArgument(
        "partition does not cover the model's modes");
  }
  if (options.pivot_density <= 0.0 || options.pivot_density > 1.0 ||
      options.side_density <= 0.0 || options.side_density > 1.0 ||
      options.cell_density <= 0.0 || options.cell_density > 1.0) {
    return Status::InvalidArgument("densities must be in (0, 1]");
  }

  obs::ObsSpan span("build_sub_ensembles");
  Rng rng(options.seed);
  SubEnsembles out;
  out.pivot_configs =
      SelectConfigs(space, partition.pivot_modes, options.pivot_density,
                    options.config_selection, &rng);
  out.side1_configs =
      SelectConfigs(space, partition.side1_modes, options.side_density,
                    options.config_selection, &rng);
  out.side2_configs =
      SelectConfigs(space, partition.side2_modes, options.side_density,
                    options.config_selection, &rng);

  out.x1 = BuildSide(model, partition, 1, out.pivot_configs,
                     out.side1_configs, options.cell_density, &rng,
                     &out.cells_evaluated);
  out.x2 = BuildSide(model, partition, 2, out.pivot_configs,
                     out.side2_configs, options.cell_density, &rng,
                     &out.cells_evaluated);
  span.Annotate("cells_evaluated", out.cells_evaluated);
  span.Annotate("x1_nnz", out.x1.NumNonZeros());
  span.Annotate("x2_nnz", out.x2.NumNonZeros());
  obs::GetCounter("core.cells_evaluated").Add(out.cells_evaluated);
  return out;
}

}  // namespace m2td::core
