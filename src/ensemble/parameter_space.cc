#include "ensemble/parameter_space.h"

#include "util/logging.h"

namespace m2td::ensemble {

Result<ParameterSpace> ParameterSpace::Create(std::vector<ParameterDef> defs) {
  if (defs.empty()) {
    return Status::InvalidArgument("parameter space needs at least one mode");
  }
  for (const ParameterDef& def : defs) {
    if (def.resolution == 0) {
      return Status::InvalidArgument("parameter '" + def.name +
                                     "' has zero resolution");
    }
    if (def.min_value > def.max_value) {
      return Status::InvalidArgument("parameter '" + def.name +
                                     "' has min > max");
    }
  }
  return ParameterSpace(std::move(defs));
}

double ParameterSpace::Value(std::size_t mode, std::uint32_t index) const {
  M2TD_DCHECK(mode < defs_.size());
  const ParameterDef& def = defs_[mode];
  M2TD_DCHECK(index < def.resolution);
  if (def.resolution == 1) return def.min_value;
  return def.min_value + (def.max_value - def.min_value) *
                             static_cast<double>(index) /
                             static_cast<double>(def.resolution - 1);
}

std::vector<double> ParameterSpace::Values(
    const std::vector<std::uint32_t>& indices) const {
  M2TD_CHECK(indices.size() == defs_.size());
  std::vector<double> values(indices.size());
  for (std::size_t m = 0; m < indices.size(); ++m) {
    values[m] = Value(m, indices[m]);
  }
  return values;
}

std::vector<std::uint64_t> ParameterSpace::Shape() const {
  std::vector<std::uint64_t> shape(defs_.size());
  for (std::size_t m = 0; m < defs_.size(); ++m) {
    shape[m] = defs_[m].resolution;
  }
  return shape;
}

std::uint64_t ParameterSpace::NumCells() const {
  std::uint64_t total = 1;
  for (const ParameterDef& def : defs_) {
    if (total > ~0ULL / def.resolution) return ~0ULL;
    total *= def.resolution;
  }
  return total;
}

}  // namespace m2td::ensemble
