#include "io/tensor_io.h"

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

namespace m2td::io {

namespace {

constexpr char kSparseTextMagic[] = "m2td-sparse";
constexpr std::uint64_t kSparseBinaryMagic = 0x4d32544453503031ULL;  // "M2TDSP01"

Status OpenFailed(const std::string& path) {
  return Status::IOError("cannot open '" + path + "'");
}

Status ParseFailed(const std::string& path, const std::string& what) {
  return Status::IOError("malformed tensor file '" + path + "': " + what);
}

/// Ingest screen for loaded entries. Distinct from ParseFailed on purpose:
/// a NaN/Inf payload is a *data* defect, so it surfaces as InvalidArgument
/// (never retried by the IO retry layer) rather than a retryable IOError.
Status RejectEntry(const std::string& path, const Status& why) {
  return Status::InvalidArgument("rejected entry in '" + path +
                                 "': " + why.message());
}

}  // namespace

Status SaveSparseText(const tensor::SparseTensor& x,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) return OpenFailed(path);
  out << kSparseTextMagic << " 1\n";
  out << "modes " << x.num_modes() << "\n";
  out << "shape";
  for (std::uint64_t d : x.shape()) out << " " << d;
  out << "\n";
  out << "nnz " << x.NumNonZeros() << "\n";
  out << std::setprecision(17);
  for (std::uint64_t e = 0; e < x.NumNonZeros(); ++e) {
    for (std::size_t m = 0; m < x.num_modes(); ++m) {
      out << x.Index(m, e) << " ";
    }
    out << x.Value(e) << "\n";
  }
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

Result<tensor::SparseTensor> LoadSparseText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return OpenFailed(path);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kSparseTextMagic ||
      version != 1) {
    return ParseFailed(path, "bad magic/version");
  }
  std::string token;
  std::size_t modes = 0;
  if (!(in >> token >> modes) || token != "modes" || modes == 0) {
    return ParseFailed(path, "bad mode count");
  }
  if (!(in >> token) || token != "shape") {
    return ParseFailed(path, "missing shape");
  }
  std::vector<std::uint64_t> shape(modes);
  for (std::uint64_t& d : shape) {
    if (!(in >> d) || d == 0) return ParseFailed(path, "bad shape entry");
  }
  std::uint64_t nnz = 0;
  if (!(in >> token >> nnz) || token != "nnz") {
    return ParseFailed(path, "bad nnz");
  }
  tensor::SparseTensor x(shape);
  x.Reserve(nnz);
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < modes; ++m) {
      std::uint64_t i = 0;
      if (!(in >> i)) return ParseFailed(path, "truncated entry");
      if (i >= shape[m]) return ParseFailed(path, "index out of range");
      idx[m] = static_cast<std::uint32_t>(i);
    }
    double value = 0.0;
    if (!(in >> value)) return ParseFailed(path, "truncated value");
    const Status appended = x.AppendEntryChecked(idx, value);
    if (!appended.ok()) return RejectEntry(path, appended);
  }
  x.SortAndCoalesce();
  return x;
}

Status SaveSparseBinary(const tensor::SparseTensor& x,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return OpenFailed(path);
  auto write_u64 = [&out](std::uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  write_u64(kSparseBinaryMagic);
  write_u64(x.num_modes());
  for (std::uint64_t d : x.shape()) write_u64(d);
  write_u64(x.NumNonZeros());
  for (std::size_t m = 0; m < x.num_modes(); ++m) {
    const auto& indices = x.IndexArray(m);
    out.write(reinterpret_cast<const char*>(indices.data()),
              static_cast<std::streamsize>(indices.size() *
                                           sizeof(std::uint32_t)));
  }
  const auto& values = x.Values();
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

Result<tensor::SparseTensor> LoadSparseBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return OpenFailed(path);
  auto read_u64 = [&in](std::uint64_t* v) {
    in.read(reinterpret_cast<char*>(v), sizeof(*v));
    return static_cast<bool>(in);
  };
  std::uint64_t magic = 0, modes = 0, nnz = 0;
  if (!read_u64(&magic) || magic != kSparseBinaryMagic) {
    return ParseFailed(path, "bad magic");
  }
  if (!read_u64(&modes) || modes == 0 || modes > 64) {
    return ParseFailed(path, "bad mode count");
  }
  std::vector<std::uint64_t> shape(modes);
  for (std::uint64_t& d : shape) {
    if (!read_u64(&d) || d == 0) return ParseFailed(path, "bad shape");
  }
  if (!read_u64(&nnz)) return ParseFailed(path, "bad nnz");

  std::vector<std::vector<std::uint32_t>> indices(modes);
  for (std::size_t m = 0; m < modes; ++m) {
    indices[m].resize(nnz);
    in.read(reinterpret_cast<char*>(indices[m].data()),
            static_cast<std::streamsize>(nnz * sizeof(std::uint32_t)));
    if (!in) return ParseFailed(path, "truncated index array");
  }
  std::vector<double> values(nnz);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(nnz * sizeof(double)));
  if (!in) return ParseFailed(path, "truncated value array");

  tensor::SparseTensor x(shape);
  x.Reserve(nnz);
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < modes; ++m) {
      if (indices[m][e] >= shape[m]) {
        return ParseFailed(path, "index out of range");
      }
      idx[m] = indices[m][e];
    }
    const Status appended = x.AppendEntryChecked(idx, values[e]);
    if (!appended.ok()) return RejectEntry(path, appended);
  }
  x.SortAndCoalesce();
  return x;
}

}  // namespace m2td::io
