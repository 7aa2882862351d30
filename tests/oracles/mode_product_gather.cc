#include "oracles/mode_product_gather.h"

#include <cstdint>

namespace m2td::tensor {

Result<DenseTensor> ModeProductGather(const DenseTensor& x,
                                      const linalg::Matrix& u,
                                      std::size_t mode, bool transpose_u) {
  if (mode >= x.num_modes()) {
    return Status::InvalidArgument("mode out of range");
  }
  const std::uint64_t old_dim = x.dim(mode);
  const std::uint64_t new_dim = transpose_u ? u.cols() : u.rows();
  if ((transpose_u ? u.rows() : u.cols()) != old_dim) {
    return Status::InvalidArgument("mode product contraction mismatch");
  }
  std::vector<std::uint64_t> out_shape = x.shape();
  out_shape[mode] = new_dim;
  DenseTensor y(out_shape);

  const std::uint64_t stride = x.Stride(mode);
  const std::uint64_t block = stride * old_dim;
  const std::uint64_t out_stride = y.Stride(mode);
  const std::uint64_t out_block = out_stride * new_dim;
  const std::uint64_t num_fibers = (x.NumElements() / block) * stride;
  for (std::uint64_t f = 0; f < num_fibers; ++f) {
    const std::uint64_t outer = f / stride;
    const std::uint64_t inner = f % stride;
    const std::uint64_t in_base = outer * block + inner;
    const std::uint64_t out_base = outer * out_block + inner;
    for (std::uint64_t j = 0; j < new_dim; ++j) {
      double acc = 0.0;
      for (std::uint64_t i = 0; i < old_dim; ++i) {
        const double v = x.flat(in_base + i * stride);
        if (v == 0.0) continue;
        const double coef =
            transpose_u ? u(static_cast<std::size_t>(i),
                            static_cast<std::size_t>(j))
                        : u(static_cast<std::size_t>(j),
                            static_cast<std::size_t>(i));
        acc += coef * v;
      }
      y.flat(out_base + j * out_stride) = acc;
    }
  }
  return y;
}

Result<DenseTensor> CoreFromDenseGather(
    const DenseTensor& x, const std::vector<linalg::Matrix>& factors) {
  DenseTensor result = x;
  for (std::size_t m = 0; m < factors.size(); ++m) {
    M2TD_ASSIGN_OR_RETURN(
        result, ModeProductGather(result, factors[m], m, /*transpose_u=*/true));
  }
  return result;
}

Result<DenseTensor> ExpandCoreGather(
    const DenseTensor& core, const std::vector<linalg::Matrix>& factors) {
  DenseTensor result = core;
  for (std::size_t m = 0; m < factors.size(); ++m) {
    M2TD_ASSIGN_OR_RETURN(result, ModeProductGather(result, factors[m], m,
                                                    /*transpose_u=*/false));
  }
  return result;
}

}  // namespace m2td::tensor
