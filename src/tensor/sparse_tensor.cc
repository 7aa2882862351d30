#include "tensor/sparse_tensor.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>

#include "tensor/csf.h"
#include "tensor/radix_order.h"
#include "util/string_util.h"

namespace m2td::tensor {

SparseTensor::SparseTensor(std::vector<std::uint64_t> shape)
    : shape_(std::move(shape)),
      indices_(shape_.size()),
      csf_cache_(std::make_shared<CsfCache>(shape_.size())) {
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    M2TD_CHECK(shape_[m] > 0) << "zero-length mode " << m;
    M2TD_CHECK(shape_[m] <= (1ULL << 32)) << "mode too long for uint32 index";
  }
}

Result<SparseTensor> SparseTensor::FromArrays(
    std::vector<std::uint64_t> shape,
    std::vector<std::vector<std::uint32_t>> indices,
    std::vector<double> values) {
  if (indices.size() != shape.size()) {
    return Status::InvalidArgument(
        "FromArrays: " + std::to_string(indices.size()) +
        " index arrays for " + std::to_string(shape.size()) + " modes");
  }
  for (std::size_t m = 0; m < shape.size(); ++m) {
    if (shape[m] == 0 || shape[m] > (std::uint64_t{1} << 32)) {
      return Status::InvalidArgument(
          "FromArrays: mode " + std::to_string(m) + " has length " +
          std::to_string(shape[m]) + ", outside [1, 2^32]");
    }
    const std::vector<std::uint32_t>& idx = indices[m];
    if (idx.size() != values.size()) {
      return Status::InvalidArgument(
          "FromArrays: mode " + std::to_string(m) + " has " +
          std::to_string(idx.size()) + " indices for " +
          std::to_string(values.size()) + " values");
    }
    // Branch-free max first; locate the offender only on failure.
    std::uint32_t max_index = 0;
    for (std::uint32_t i : idx) max_index = std::max(max_index, i);
    if (!idx.empty() && max_index >= shape[m]) {
      const std::size_t e = static_cast<std::size_t>(
          std::find_if(idx.begin(), idx.end(),
                       [&](std::uint32_t i) { return i >= shape[m]; }) -
          idx.begin());
      return Status::InvalidArgument(
          "FromArrays: index " + std::to_string(idx[e]) +
          " out of range for mode " + std::to_string(m) + " of shape " +
          ShapeToString(shape) + " at entry " + std::to_string(e));
    }
  }
  SparseTensor x(std::move(shape));
  x.indices_ = std::move(indices);
  x.values_ = std::move(values);
  x.sorted_ = x.values_.empty();
  return x;
}

double& SparseTensor::MutableValue(std::uint64_t entry) {
  // Detach (don't clear) the shared cache: copies made before this write
  // legitimately keep the old indexes for the old contents.
  if (csf_cache_ != nullptr) {
    csf_cache_ = std::make_shared<CsfCache>(shape_.size());
  }
  return values_[entry];
}

const CsfModeIndex& SparseTensor::Csf(std::size_t mode) const {
  M2TD_CHECK(sorted_) << "Csf requires SortAndCoalesce first";
  M2TD_CHECK(csf_cache_ != nullptr) << "Csf on a default-constructed tensor";
  return csf_cache_->Get(*this, mode);
}

std::uint64_t SparseTensor::LogicalSize() const {
  std::uint64_t total = 1;
  for (std::uint64_t d : shape_) {
    if (d != 0 && total > ~0ULL / d) return ~0ULL;  // saturate
    total *= d;
  }
  return total;
}

double SparseTensor::Density() const {
  const std::uint64_t logical = LogicalSize();
  if (logical == 0) return 0.0;
  return static_cast<double>(NumNonZeros()) / static_cast<double>(logical);
}

void SparseTensor::Reserve(std::uint64_t nnz) {
  for (auto& idx : indices_) idx.reserve(nnz);
  values_.reserve(nnz);
}

void SparseTensor::AppendEntry(const std::vector<std::uint32_t>& indices,
                               double value) {
  M2TD_CHECK(indices.size() == shape_.size())
      << "entry arity " << indices.size() << " != tensor modes "
      << shape_.size();
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    M2TD_CHECK(indices[m] < shape_[m])
        << "index " << indices[m] << " out of range for mode " << m
        << " of shape " << ShapeToString(shape_);
    indices_[m].push_back(indices[m]);
  }
  values_.push_back(value);
  sorted_ = false;
}

namespace {

std::string CoordinateString(const std::vector<std::uint32_t>& indices) {
  std::string out = "(";
  for (std::size_t m = 0; m < indices.size(); ++m) {
    if (m > 0) out += ", ";
    out += std::to_string(indices[m]);
  }
  out += ")";
  return out;
}

}  // namespace

Status SparseTensor::AppendEntryChecked(
    const std::vector<std::uint32_t>& indices, double value) {
  if (indices.size() != shape_.size()) {
    return Status::InvalidArgument(
        "entry arity " + std::to_string(indices.size()) +
        " != tensor modes " + std::to_string(shape_.size()));
  }
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    if (indices[m] >= shape_[m]) {
      return Status::InvalidArgument(
          "index " + std::to_string(indices[m]) + " out of range for mode " +
          std::to_string(m) + " at coordinate " + CoordinateString(indices));
    }
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(
        std::string(std::isnan(value) ? "NaN" : "infinite") +
        " value at coordinate " + CoordinateString(indices));
  }
  AppendEntry(indices, value);
  return Status::OK();
}

Status SparseTensor::CheckFinite() const {
  std::vector<std::uint32_t> coord(shape_.size());
  for (std::uint64_t e = 0; e < NumNonZeros(); ++e) {
    if (std::isfinite(values_[e])) continue;
    for (std::size_t m = 0; m < shape_.size(); ++m) coord[m] = indices_[m][e];
    return Status::InvalidArgument(
        std::string(std::isnan(values_[e]) ? "NaN" : "infinite") +
        " value at coordinate " + CoordinateString(coord));
  }
  return Status::OK();
}

namespace {

// True when the stored entries are in strictly increasing lexicographic
// order, i.e. sorted and duplicate-free. Stops at the first entry that is
// not greater than its predecessor, so other input costs little.
bool StrictlyInLexOrder(
    const std::vector<std::vector<std::uint32_t>>& indices,
    std::uint64_t n) {
  for (std::uint64_t e = 1; e < n; ++e) {
    bool greater = false;
    for (const std::vector<std::uint32_t>& idx : indices) {
      if (idx[e - 1] != idx[e]) {
        if (idx[e - 1] > idx[e]) return false;
        greater = true;
        break;
      }
    }
    if (!greater) return false;
  }
  return true;
}

// Puts the entries in stable lexicographic order (a radix pass plus one
// gather per array, one array live at a time), then merges runs of equal
// coordinates in that order with one sequential, in-place pass.
template <typename Index>
void SortAndCoalesceArrays(const std::vector<std::uint64_t>& shape,
                           std::vector<std::vector<std::uint32_t>>* indices,
                           std::vector<double>* values,
                           CoalescePolicy policy) {
  const std::size_t n = values->size();
  std::vector<Index> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<Index>(i);
  std::vector<internal::RadixKey> keys;
  keys.reserve(shape.size());
  for (std::size_t m = 0; m < shape.size(); ++m) {
    keys.push_back({(*indices)[m].data(), shape[m]});
  }
  internal::StableRadixOrder(keys, &perm);
  auto gather = [&perm, n](auto* array) {
    std::remove_reference_t<decltype(*array)> sorted(n);
    for (std::size_t i = 0; i < n; ++i) sorted[i] = (*array)[perm[i]];
    array->swap(sorted);
  };
  for (std::vector<std::uint32_t>& idx : *indices) gather(&idx);
  gather(values);

  // Merge: slot `heads - 1` holds the current run's coordinates and its
  // running sum (heads <= pos, so the compaction never overwrites a slot
  // still to be read).
  auto same_as_head = [indices](std::size_t pos, std::size_t head) {
    for (const std::vector<std::uint32_t>& idx : *indices) {
      if (idx[pos] != idx[head]) return false;
    }
    return true;
  };
  std::vector<double>& v = *values;
  std::size_t heads = 0;
  std::uint64_t run_count = 0;
  auto close_run = [&] {
    if (policy == CoalescePolicy::kMean && run_count > 1) {
      v[heads - 1] /= static_cast<double>(run_count);
    }
  };
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (heads > 0 && same_as_head(pos, heads - 1)) {
      v[heads - 1] += v[pos];
      ++run_count;
      continue;
    }
    if (heads > 0) close_run();
    if (heads != pos) {
      for (std::vector<std::uint32_t>& idx : *indices) idx[heads] = idx[pos];
      v[heads] = v[pos];
    }
    ++heads;
    run_count = 1;
  }
  if (heads > 0) close_run();
  if (heads != n) {
    for (std::vector<std::uint32_t>& idx : *indices) {
      idx.resize(heads);
      idx.shrink_to_fit();
    }
    v.resize(heads);
    v.shrink_to_fit();
  }
}

}  // namespace

void SparseTensor::SortAndCoalesce(CoalescePolicy policy) {
  // Contents are (potentially) about to change: detach from the shared
  // CSF cache so stale fiber indexes can never be served afterwards.
  csf_cache_ = std::make_shared<CsfCache>(shape_.size());
  const std::uint64_t n = values_.size();
  if (!StrictlyInLexOrder(indices_, n)) {
    if (n < (std::uint64_t{1} << 32)) {
      SortAndCoalesceArrays<std::uint32_t>(shape_, &indices_, &values_,
                                           policy);
    } else {
      SortAndCoalesceArrays<std::uint64_t>(shape_, &indices_, &values_,
                                           policy);
    }
  }
  sorted_ = true;
}

std::optional<double> SparseTensor::Find(
    const std::vector<std::uint32_t>& indices) const {
  M2TD_CHECK(sorted_) << "Find requires SortAndCoalesce first";
  M2TD_CHECK(indices.size() == shape_.size());
  const std::size_t modes = shape_.size();
  // Binary search over the lexicographic order.
  std::uint64_t lo = 0;
  std::uint64_t hi = values_.size();
  auto compare = [this, modes, &indices](std::uint64_t e) {
    // <0 if entry < target, 0 if equal, >0 if entry > target.
    for (std::size_t m = 0; m < modes; ++m) {
      if (indices_[m][e] < indices[m]) return -1;
      if (indices_[m][e] > indices[m]) return 1;
    }
    return 0;
  };
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const int c = compare(mid);
    if (c == 0) return values_[mid];
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::nullopt;
}

DenseTensor SparseTensor::ToDense() const {
  DenseTensor dense(shape_);
  const std::size_t modes = shape_.size();
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t e = 0; e < values_.size(); ++e) {
    for (std::size_t m = 0; m < modes; ++m) idx[m] = indices_[m][e];
    dense.at(idx) += values_[e];
  }
  return dense;
}

SparseTensor SparseTensor::FromDense(const DenseTensor& dense,
                                     double zero_tol) {
  SparseTensor sparse(dense.shape());
  const std::size_t modes = dense.num_modes();
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t linear = 0; linear < dense.NumElements(); ++linear) {
    const double v = dense.flat(linear);
    if (std::fabs(v) <= zero_tol) continue;
    std::uint64_t rest = linear;
    for (std::size_t m = 0; m < modes; ++m) {
      idx[m] = static_cast<std::uint32_t>(rest / dense.Stride(m));
      rest %= dense.Stride(m);
    }
    sparse.AppendEntry(idx, v);
  }
  sparse.sorted_ = true;  // dense scan order is lexicographic and duplicate-free
  return sparse;
}

double SparseTensor::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : values_) sum += v * v;
  return std::sqrt(sum);
}

bool SparseTensor::MatricizationColumnsFit(std::size_t mode) const {
  // Columns run over [0, prod); the largest, prod - 1, fits in 64 bits
  // iff prod <= 2^64.
  unsigned __int128 prod = 1;
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    if (m == mode) continue;
    prod *= shape_[m];
    if (prod > (static_cast<unsigned __int128>(1) << 64)) return false;
  }
  return true;
}

std::vector<std::uint64_t> SparseTensor::MatricizationColumns(
    std::size_t mode) const {
  const std::size_t n = values_.size();
  std::vector<std::uint64_t> columns(n, 0);
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    if (m == mode) continue;
    const std::uint64_t dim = shape_[m];
    const std::uint32_t* idx = indices_[m].data();
    for (std::size_t e = 0; e < n; ++e) columns[e] = columns[e] * dim + idx[e];
  }
  return columns;
}

}  // namespace m2td::tensor
