#ifndef M2TD_IO_TENSOR_IO_H_
#define M2TD_IO_TENSOR_IO_H_

#include <string>

#include "tensor/sparse_tensor.h"
#include "util/result.h"
#include "util/status.h"

namespace m2td::io {

/// \brief Writes a sparse tensor as a self-describing text file:
///
///   m2td-sparse 1
///   modes <N>
///   shape <d1> ... <dN>
///   nnz <K>
///   <i1> ... <iN> <value>     (K lines)
///
/// Values are written with 17 significant digits (round-trip exact for
/// doubles). Returns IOError on filesystem failures.
Status SaveSparseText(const tensor::SparseTensor& x, const std::string& path);

/// Reads the format written by SaveSparseText. The result is coalesced.
Result<tensor::SparseTensor> LoadSparseText(const std::string& path);

/// Binary COO serialization (little-endian host layout): magic, mode
/// count, shape, nnz, per-mode index arrays, value array. Compact and
/// fast; not portable across endianness.
Status SaveSparseBinary(const tensor::SparseTensor& x,
                        const std::string& path);

Result<tensor::SparseTensor> LoadSparseBinary(const std::string& path);

}  // namespace m2td::io

#endif  // M2TD_IO_TENSOR_IO_H_
