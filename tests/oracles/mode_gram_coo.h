#ifndef M2TD_TESTS_ORACLES_MODE_GRAM_COO_H_
#define M2TD_TESTS_ORACLES_MODE_GRAM_COO_H_

#include <cstddef>

#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace m2td::tensor {

/// \brief COO reference implementation of ModeGram: buckets entries by
/// matricization column with a per-call O(nnz log nnz) sort, then runs
/// the generic pair loop over each column group on the same
/// chunk/merge/mirror scaffolding as ModeGram.
///
/// Test oracle only (no production caller). Same contract as ModeGram,
/// and bit-identical to it when ModeGram dispatches the scalar kernel
/// table (`M2TD_FORCE_ISA=scalar`).
Result<linalg::Matrix> ModeGramCoo(const SparseTensor& x, std::size_t mode);

}  // namespace m2td::tensor

#endif  // M2TD_TESTS_ORACLES_MODE_GRAM_COO_H_
