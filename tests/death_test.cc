// Death tests: programming errors (contract violations) must abort loudly
// via M2TD_CHECK rather than corrupt state. These complement the Status
// tests, which cover *runtime* errors.

#include <gtest/gtest.h>

#include "io/table.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"

namespace m2td {
namespace {

using DeathTest = ::testing::Test;

TEST(DeathTest, MatrixDataSizeMismatchAborts) {
  EXPECT_DEATH(linalg::Matrix(2, 2, {1.0, 2.0, 3.0}), "data size");
}

TEST(DeathTest, MatrixMultiplyShapeMismatchAborts) {
  linalg::Matrix a(2, 3);
  linalg::Matrix b(2, 3);
  EXPECT_DEATH(linalg::Multiply(a, b), "shape mismatch");
}

TEST(DeathTest, SparseAppendOutOfRangeAborts) {
  tensor::SparseTensor x({2, 2});
  EXPECT_DEATH(x.AppendEntry({2, 0}, 1.0), "out of range");
}

TEST(DeathTest, SparseAppendWrongArityAborts) {
  tensor::SparseTensor x({2, 2});
  EXPECT_DEATH(x.AppendEntry({0, 0, 0}, 1.0), "arity");
}

TEST(DeathTest, FindBeforeCoalesceAborts) {
  tensor::SparseTensor x({2, 2});
  x.AppendEntry({0, 0}, 1.0);
  EXPECT_DEATH((void)x.Find({0, 0}), "SortAndCoalesce");
}

TEST(DeathTest, OversizedDenseTensorAborts) {
  EXPECT_DEATH(tensor::DenseTensor({1u << 16, 1u << 16}),
               "too large|overflow");
}

TEST(DeathTest, TableRowArityMismatchAborts) {
  io::TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only one"}), "arity");
}

}  // namespace
}  // namespace m2td
