#ifndef M2TD_LINALG_MATRIX_H_
#define M2TD_LINALG_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/result.h"
#include "util/status.h"

namespace m2td::linalg {

/// \brief Dense row-major matrix of doubles.
///
/// Sized for the factor-matrix scale of this library (mode dimensions up to
/// a few hundred): simplicity and cache-friendly row iteration over BLAS
/// micro-optimizations. All shape mismatches are programming errors and
/// abort via M2TD_CHECK; fallible construction paths return Result.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Matrix initialized from row-major data; `data.size()` must equal
  /// rows*cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// n x n identity.
  static Matrix Identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) {
    M2TD_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    M2TD_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }
  double* RowPtr(std::size_t i) { return data_.data() + i * cols_; }
  const double* RowPtr(std::size_t i) const {
    return data_.data() + i * cols_;
  }

  /// Returns this^T.
  Matrix Transposed() const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// 2-norm of row i.
  double RowNorm(std::size_t i) const;

  /// Elementwise in-place scaling.
  void Scale(double factor);

  /// Returns the sub-matrix of the first `k` columns. Requires k <= cols().
  Matrix LeadingColumns(std::size_t k) const;

  /// Max |a_ij - b_ij| between two same-shaped matrices.
  static double MaxAbsDiff(const Matrix& a, const Matrix& b);

  /// Human-readable dump (for tests and debugging).
  std::string ToString(int precision = 4) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// C = A * B. Aborts on inner-dimension mismatch.
Matrix Multiply(const Matrix& a, const Matrix& b);

/// C = A^T * B without forming A^T.
Matrix MultiplyTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T without forming B^T.
Matrix MultiplyTransB(const Matrix& a, const Matrix& b);

/// C = alpha*A + beta*B for same-shaped A, B.
Matrix LinearCombination(double alpha, const Matrix& a, double beta,
                         const Matrix& b);

}  // namespace m2td::linalg

#endif  // M2TD_LINALG_MATRIX_H_
