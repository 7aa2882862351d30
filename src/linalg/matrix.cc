#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "linalg/simd.h"
#include "parallel/parallel_for.h"

namespace m2td::linalg {

namespace {

// Row-parallel kernels only pay off past a flop threshold; below it the
// region setup dominates. The guard must not depend on the pool size:
// each output row is computed wholly by one thread with the serial
// instruction sequence, so results are bit-identical either way, but a
// thread-count-dependent guard would still be a determinism smell.
constexpr std::uint64_t kParallelFlopThreshold = 1 << 15;

// Cache-blocking tiles for the multiply kernels. Blocking only regroups
// the (i, k) iteration space; every output element still accumulates its
// k-contributions in full ascending order (k tiles ascend, k ascends
// within a tile), so blocked results are bit-identical to the unblocked
// loops. kTileK rows of b (64 * cols doubles) is the reuse unit held hot
// across a kTileI-row stripe of a.
constexpr std::size_t kTileI = 16;
constexpr std::size_t kTileK = 64;

void RowParallel(std::size_t rows, std::uint64_t flops, const char* label,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  if (flops < kParallelFlopThreshold) {
    body(0, rows);
    return;
  }
  parallel::ParallelFor(
      0, rows, 0,
      [&](std::uint64_t b, std::uint64_t e) {
        body(static_cast<std::size_t>(b), static_cast<std::size_t>(e));
      },
      label);
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  M2TD_CHECK(data_.size() == rows_ * cols_)
      << "data size " << data_.size() << " != " << rows_ << "x" << cols_;
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Matrix::RowNorm(std::size_t i) const {
  M2TD_CHECK(i < rows_);
  double sum = 0.0;
  const double* row = RowPtr(i);
  for (std::size_t j = 0; j < cols_; ++j) sum += row[j] * row[j];
  return std::sqrt(sum);
}

void Matrix::Scale(double factor) {
  for (double& v : data_) v *= factor;
}

Matrix Matrix::LeadingColumns(std::size_t k) const {
  M2TD_CHECK(k <= cols_);
  Matrix out(rows_, k);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* src = RowPtr(i);
    double* dst = out.RowPtr(i);
    for (std::size_t j = 0; j < k; ++j) dst[j] = src[j];
  }
  return out;
}

double Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  M2TD_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.data_[i] - b.data_[i]));
  }
  return max_diff;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      if (j > 0) os << " ";
      os << (*this)(i, j);
    }
    os << "\n";
  }
  return os.str();
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  M2TD_CHECK(a.cols() == b.rows())
      << "multiply shape mismatch: " << a.rows() << "x" << a.cols() << " * "
      << b.rows() << "x" << b.cols();
  Matrix c(a.rows(), b.cols());
  // Cache-blocked i-k-j: a kTileK-row block of b stays hot while a
  // kTileI-row stripe of a sweeps it, instead of re-streaming all of b
  // per output row. Per output element the k-contributions still arrive
  // in full ascending order (with the same zero skip), so the result is
  // bit-identical to the unblocked loop. Row-parallel: each output row
  // is produced by exactly one thread (bit-identical at any thread
  // count; tile edges never split an output element's accumulation).
  const std::uint64_t flops = static_cast<std::uint64_t>(a.rows()) *
                              a.cols() * b.cols();
  const simd::Kernels& kern = simd::ActiveKernels();
  RowParallel(a.rows(), flops, "matmul", [&](std::size_t ib, std::size_t ie) {
    for (std::size_t ii = ib; ii < ie; ii += kTileI) {
      const std::size_t i_end = std::min(ii + kTileI, ie);
      for (std::size_t kk = 0; kk < a.cols(); kk += kTileK) {
        const std::size_t k_end = std::min(kk + kTileK, a.cols());
        for (std::size_t i = ii; i < i_end; ++i) {
          double* crow = c.RowPtr(i);
          for (std::size_t k = kk; k < k_end; ++k) {
            const double aik = a(i, k);
            if (aik == 0.0) continue;
            kern.axpy(b.cols(), aik, b.RowPtr(k), crow);
          }
        }
      }
    }
  });
  return c;
}

Matrix MultiplyTransA(const Matrix& a, const Matrix& b) {
  M2TD_CHECK(a.rows() == b.rows())
      << "multiplyTransA shape mismatch: (" << a.rows() << "x" << a.cols()
      << ")^T * " << b.rows() << "x" << b.cols();
  Matrix c(a.cols(), b.cols());
  // Gather form of the serial k-i-j scatter, cache-blocked like Multiply:
  // a kTileK-row block of b is reused across a kTileI-row stripe of the
  // output. For a fixed output row i the contributions still arrive in
  // ascending-k order (with the same zero skip), so per-element addition
  // sequences match the serial code bit-for-bit while rows parallelize
  // with disjoint writes.
  const std::uint64_t flops = static_cast<std::uint64_t>(a.rows()) *
                              a.cols() * b.cols();
  const simd::Kernels& kern = simd::ActiveKernels();
  RowParallel(a.cols(), flops, "matmul_ta",
              [&](std::size_t ib, std::size_t ie) {
    for (std::size_t ii = ib; ii < ie; ii += kTileI) {
      const std::size_t i_end = std::min(ii + kTileI, ie);
      for (std::size_t kk = 0; kk < a.rows(); kk += kTileK) {
        const std::size_t k_end = std::min(kk + kTileK, a.rows());
        for (std::size_t i = ii; i < i_end; ++i) {
          double* crow = c.RowPtr(i);
          for (std::size_t k = kk; k < k_end; ++k) {
            const double aki = a(k, i);
            if (aki == 0.0) continue;
            kern.axpy(b.cols(), aki, b.RowPtr(k), crow);
          }
        }
      }
    }
  });
  return c;
}

Matrix MultiplyTransB(const Matrix& a, const Matrix& b) {
  M2TD_CHECK(a.cols() == b.cols())
      << "multiplyTransB shape mismatch: " << a.rows() << "x" << a.cols()
      << " * (" << b.rows() << "x" << b.cols() << ")^T";
  Matrix c(a.rows(), b.rows());
  const std::uint64_t flops = static_cast<std::uint64_t>(a.rows()) *
                              a.cols() * b.rows();
  // Register-blocked row-dot-row: four output columns share one streaming
  // pass over arow, quartering the arow bandwidth (the k dimension is the
  // long one here — ModeGramDense calls this with cols = the unfolding
  // width). Each dot keeps its own accumulator over the full ascending k
  // range, so every output element's addition sequence is exactly the
  // serial single-dot order — bit-identical, blocked or not.
  const simd::Kernels& kern = simd::ActiveKernels();
  RowParallel(a.rows(), flops, "matmul_tb",
              [&](std::size_t ib, std::size_t ie) {
    const std::size_t n = b.rows();
    const std::size_t cols = a.cols();
    for (std::size_t i = ib; i < ie; ++i) {
      const double* arow = a.RowPtr(i);
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const double* b0 = b.RowPtr(j);
        const double* b1 = b.RowPtr(j + 1);
        const double* b2 = b.RowPtr(j + 2);
        const double* b3 = b.RowPtr(j + 3);
        double out[4];
        kern.dot4(cols, arow, b0, b1, b2, b3, out);
        c(i, j) = out[0];
        c(i, j + 1) = out[1];
        c(i, j + 2) = out[2];
        c(i, j + 3) = out[3];
      }
      for (; j < n; ++j) c(i, j) = kern.dot(cols, arow, b.RowPtr(j));
    }
  });
  return c;
}

Matrix LinearCombination(double alpha, const Matrix& a, double beta,
                         const Matrix& b) {
  M2TD_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    const double* brow = b.RowPtr(i);
    double* crow = c.RowPtr(i);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      crow[j] = alpha * arow[j] + beta * brow[j];
    }
  }
  return c;
}

}  // namespace m2td::linalg
