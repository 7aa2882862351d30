#ifndef M2TD_TESTS_ORACLES_MODE_PRODUCT_GATHER_H_
#define M2TD_TESTS_ORACLES_MODE_PRODUCT_GATHER_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "util/result.h"

namespace m2td::tensor {

/// \brief Strided-gather reference for ModeProduct: for every output
/// fiber and every j, a dot over the contracted mode in ascending index
/// order (input read with stride Stride(mode)), skipping exact zeros.
///
/// Test oracle only. ModeProduct must be bit-identical to it.
Result<DenseTensor> ModeProductGather(const DenseTensor& x,
                                      const linalg::Matrix& u,
                                      std::size_t mode, bool transpose_u);

/// CoreFromDense as a chain of ModeProductGather calls.
Result<DenseTensor> CoreFromDenseGather(
    const DenseTensor& x, const std::vector<linalg::Matrix>& factors);

/// ExpandCore as a chain of ModeProductGather calls.
Result<DenseTensor> ExpandCoreGather(
    const DenseTensor& core, const std::vector<linalg::Matrix>& factors);

}  // namespace m2td::tensor

#endif  // M2TD_TESTS_ORACLES_MODE_PRODUCT_GATHER_H_
