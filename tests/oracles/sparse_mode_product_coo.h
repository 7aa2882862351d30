#ifndef M2TD_TESTS_ORACLES_SPARSE_MODE_PRODUCT_COO_H_
#define M2TD_TESTS_ORACLES_SPARSE_MODE_PRODUCT_COO_H_

#include <cstddef>

#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace m2td::tensor {

/// \brief COO reference implementation of SparseModeProduct: the linear
/// output base of each entry's fiber, then, for each output slice j, the
/// entries added in stored order.
///
/// Test oracle only (no production caller). Takes any tensor, coalesced
/// or not; InvalidArgument when `u` does not contract mode `mode`. With
/// the scalar kernel table (`M2TD_FORCE_ISA=scalar`) SparseModeProduct is
/// bit-identical to it on coalesced tensors.
Result<DenseTensor> SparseModeProductCoo(const SparseTensor& x,
                                         const linalg::Matrix& u,
                                         std::size_t mode, bool transpose_u);

}  // namespace m2td::tensor

#endif  // M2TD_TESTS_ORACLES_SPARSE_MODE_PRODUCT_COO_H_
