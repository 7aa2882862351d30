#ifndef M2TD_ENSEMBLE_PARAMETER_SPACE_H_
#define M2TD_ENSEMBLE_PARAMETER_SPACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace m2td::ensemble {

/// One mode of the ensemble tensor: a named simulation parameter (or the
/// time axis) discretized to `resolution` evenly spaced values over
/// [min_value, max_value].
struct ParameterDef {
  std::string name;
  double min_value = 0.0;
  double max_value = 1.0;
  std::uint32_t resolution = 1;
};

/// \brief The discretized space of potential simulations (Section III-C of
/// the paper): one mode per parameter, the cross product of the value grids
/// being the set of simulations one *could* run.
class ParameterSpace {
 public:
  ParameterSpace() = default;

  /// Validates definitions (non-empty, positive resolutions, min <= max).
  static Result<ParameterSpace> Create(std::vector<ParameterDef> defs);

  std::size_t num_modes() const { return defs_.size(); }
  const ParameterDef& def(std::size_t mode) const { return defs_[mode]; }
  std::uint32_t Resolution(std::size_t mode) const {
    return defs_[mode].resolution;
  }

  /// The `index`-th grid value of `mode` (linear spacing; a resolution-1
  /// grid sits at min_value).
  double Value(std::size_t mode, std::uint32_t index) const;

  /// All grid values for one multi-index.
  std::vector<double> Values(const std::vector<std::uint32_t>& indices) const;

  /// Tensor shape (resolutions per mode).
  std::vector<std::uint64_t> Shape() const;

  /// Product of resolutions; saturates at uint64 max.
  std::uint64_t NumCells() const;

  /// Index of the grid point closest to the middle of the range — the
  /// paper's "fixing constant" default for pinned parameters.
  std::uint32_t DefaultIndex(std::size_t mode) const {
    return defs_[mode].resolution / 2;
  }

 private:
  explicit ParameterSpace(std::vector<ParameterDef> defs)
      : defs_(std::move(defs)) {}

  std::vector<ParameterDef> defs_;
};

}  // namespace m2td::ensemble

#endif  // M2TD_ENSEMBLE_PARAMETER_SPACE_H_
