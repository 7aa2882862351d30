#ifndef M2TD_TENSOR_DENSE_TENSOR_H_
#define M2TD_TENSOR_DENSE_TENSOR_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/result.h"

namespace m2td::tensor {

/// \brief Dense N-mode tensor stored row-major (last mode varies fastest).
///
/// Used for ground-truth full-space tensors, Tucker cores, and
/// reconstructions. Mode dimensions are uint64 but total size must fit in
/// memory; the experiment harness keeps full spaces at or below a few
/// million cells (see DESIGN.md scaling note).
class DenseTensor {
 public:
  /// Empty 0-mode tensor.
  DenseTensor() = default;

  /// Zero-filled tensor of the given shape. Aborts if the element count
  /// overflows.
  explicit DenseTensor(std::vector<std::uint64_t> shape);

  DenseTensor(const DenseTensor&) = default;
  DenseTensor& operator=(const DenseTensor&) = default;
  DenseTensor(DenseTensor&&) = default;
  DenseTensor& operator=(DenseTensor&&) = default;

  const std::vector<std::uint64_t>& shape() const { return shape_; }
  std::size_t num_modes() const { return shape_.size(); }
  std::uint64_t dim(std::size_t mode) const { return shape_[mode]; }
  std::uint64_t NumElements() const { return data_.size(); }

  double& at(const std::vector<std::uint32_t>& indices) {
    return data_[LinearIndex(indices)];
  }
  double at(const std::vector<std::uint32_t>& indices) const {
    return data_[LinearIndex(indices)];
  }

  double& flat(std::uint64_t linear_index) { return data_[linear_index]; }
  double flat(std::uint64_t linear_index) const {
    return data_[linear_index];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  /// Row-major linear index of a multi-index. Aborts on out-of-range.
  std::uint64_t LinearIndex(const std::vector<std::uint32_t>& indices) const;

  /// Inverse of LinearIndex.
  std::vector<std::uint32_t> MultiIndex(std::uint64_t linear_index) const;

  /// Stride of `mode` in the row-major layout.
  std::uint64_t Stride(std::size_t mode) const { return strides_[mode]; }

  void Fill(double value);

  double FrobeniusNorm() const;

  /// sqrt(sum((a-b)^2)); shapes must match.
  static double FrobeniusDistance(const DenseTensor& a, const DenseTensor& b);

 private:
  std::vector<std::uint64_t> shape_;
  std::vector<std::uint64_t> strides_;
  std::vector<double> data_;
};

}  // namespace m2td::tensor

#endif  // M2TD_TENSOR_DENSE_TENSOR_H_
