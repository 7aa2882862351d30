// Exact sparse-tensor comparison for the checkpoint-resume tests: a
// resumed build must reproduce the uninterrupted one value for value.

#ifndef M2TD_TESTS_SAME_TENSOR_H_
#define M2TD_TESTS_SAME_TENSOR_H_

#include <cstdint>

#include <gtest/gtest.h>

#include "tensor/sparse_tensor.h"

namespace m2td {

/// Same shape, same entries in the same order, bit-equal values.
inline void ExpectSameSparseTensor(const tensor::SparseTensor& got,
                                   const tensor::SparseTensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  ASSERT_EQ(got.NumNonZeros(), want.NumNonZeros());
  for (std::uint64_t e = 0; e < want.NumNonZeros(); ++e) {
    for (std::size_t m = 0; m < want.num_modes(); ++m) {
      ASSERT_EQ(got.Index(m, e), want.Index(m, e)) << "entry " << e;
    }
    EXPECT_EQ(got.Value(e), want.Value(e)) << "entry " << e;
  }
}

}  // namespace m2td

#endif  // M2TD_TESTS_SAME_TENSOR_H_
