#include "tensor/dense_tensor.h"

#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace m2td::tensor {

DenseTensor::DenseTensor(std::vector<std::uint64_t> shape)
    : shape_(std::move(shape)) {
  std::uint64_t total = 1;
  strides_.assign(shape_.size(), 1);
  for (std::size_t m = shape_.size(); m-- > 0;) {
    strides_[m] = total;
    M2TD_CHECK(shape_[m] > 0) << "zero-length mode " << m;
    M2TD_CHECK(total <= std::numeric_limits<std::uint64_t>::max() / shape_[m])
        << "tensor size overflow at shape " << ShapeToString(shape_);
    total *= shape_[m];
  }
  M2TD_CHECK(total <= (1ULL << 31))
      << "dense tensor too large to materialize: " << ShapeToString(shape_);
  data_.assign(total, 0.0);
}

std::uint64_t DenseTensor::LinearIndex(
    const std::vector<std::uint32_t>& indices) const {
  M2TD_DCHECK(indices.size() == shape_.size());
  std::uint64_t linear = 0;
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    M2TD_DCHECK(indices[m] < shape_[m])
        << "index " << indices[m] << " out of range for mode " << m;
    linear += indices[m] * strides_[m];
  }
  return linear;
}

std::vector<std::uint32_t> DenseTensor::MultiIndex(
    std::uint64_t linear_index) const {
  std::vector<std::uint32_t> indices(shape_.size());
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    indices[m] = static_cast<std::uint32_t>(linear_index / strides_[m]);
    linear_index %= strides_[m];
  }
  return indices;
}

void DenseTensor::Fill(double value) {
  for (double& v : data_) v = value;
}

double DenseTensor::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double DenseTensor::FrobeniusDistance(const DenseTensor& a,
                                      const DenseTensor& b) {
  M2TD_CHECK(a.shape_ == b.shape_)
      << "shape mismatch: " << ShapeToString(a.shape_) << " vs "
      << ShapeToString(b.shape_);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < a.data_.size(); ++i) {
    const double d = a.data_[i] - b.data_[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace m2td::tensor
