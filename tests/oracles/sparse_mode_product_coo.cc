#include "oracles/sparse_mode_product_coo.h"

#include <cstdint>
#include <vector>

namespace m2td::tensor {

Result<DenseTensor> SparseModeProductCoo(const SparseTensor& x,
                                         const linalg::Matrix& u,
                                         std::size_t mode, bool transpose_u) {
  if (mode >= x.num_modes() ||
      (transpose_u ? u.rows() : u.cols()) != x.dim(mode)) {
    return Status::InvalidArgument("SparseModeProductCoo: bad mode or matrix");
  }
  const std::uint64_t new_dim = transpose_u ? u.cols() : u.rows();
  std::vector<std::uint64_t> out_shape = x.shape();
  out_shape[mode] = new_dim;
  DenseTensor y(out_shape);
  const std::uint64_t nnz = x.NumNonZeros();
  const std::uint64_t out_stride = y.Stride(mode);

  // The linear base of each entry's output fiber along `mode`, plus its
  // coordinate on that mode.
  std::vector<std::uint64_t> out_base(static_cast<std::size_t>(nnz));
  std::vector<std::uint32_t> in_coord(static_cast<std::size_t>(nnz));
  std::vector<std::uint32_t> idx(x.num_modes());
  for (std::uint64_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < x.num_modes(); ++m) idx[m] = x.Index(m, e);
    in_coord[static_cast<std::size_t>(e)] = idx[mode];
    idx[mode] = 0;
    out_base[static_cast<std::size_t>(e)] = y.LinearIndex(idx);
  }
  for (std::uint64_t j = 0; j < new_dim; ++j) {
    for (std::uint64_t e = 0; e < nnz; ++e) {
      const std::uint32_t in_mode = in_coord[static_cast<std::size_t>(e)];
      const double coef = transpose_u
                              ? u(in_mode, static_cast<std::size_t>(j))
                              : u(static_cast<std::size_t>(j), in_mode);
      y.flat(out_base[static_cast<std::size_t>(e)] + j * out_stride) +=
          coef * x.Value(e);
    }
  }
  return y;
}

}  // namespace m2td::tensor
