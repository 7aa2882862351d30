#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "io/table.h"
#include "io/tensor_io.h"
#include "util/random.h"

namespace m2td::io {
namespace {

class TensorIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("m2td_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

tensor::SparseTensor MakeSparse() {
  tensor::SparseTensor x({4, 3, 5});
  Rng rng(7);
  std::vector<std::uint32_t> idx(3);
  for (int e = 0; e < 20; ++e) {
    idx[0] = static_cast<std::uint32_t>(rng.UniformInt(4));
    idx[1] = static_cast<std::uint32_t>(rng.UniformInt(3));
    idx[2] = static_cast<std::uint32_t>(rng.UniformInt(5));
    x.AppendEntry(idx, rng.Gaussian());
  }
  x.SortAndCoalesce();
  return x;
}

void ExpectTensorsEqual(const tensor::SparseTensor& a,
                        const tensor::SparseTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.NumNonZeros(), b.NumNonZeros());
  for (std::uint64_t e = 0; e < a.NumNonZeros(); ++e) {
    for (std::size_t m = 0; m < a.num_modes(); ++m) {
      EXPECT_EQ(a.Index(m, e), b.Index(m, e));
    }
    EXPECT_DOUBLE_EQ(a.Value(e), b.Value(e));
  }
}

TEST_F(TensorIoTest, SparseTextRoundTrip) {
  tensor::SparseTensor x = MakeSparse();
  ASSERT_TRUE(SaveSparseText(x, Path("t.txt")).ok());
  auto loaded = LoadSparseText(Path("t.txt"));
  ASSERT_TRUE(loaded.ok());
  ExpectTensorsEqual(x, *loaded);
}

TEST_F(TensorIoTest, SparseBinaryRoundTrip) {
  tensor::SparseTensor x = MakeSparse();
  ASSERT_TRUE(SaveSparseBinary(x, Path("t.bin")).ok());
  auto loaded = LoadSparseBinary(Path("t.bin"));
  ASSERT_TRUE(loaded.ok());
  ExpectTensorsEqual(x, *loaded);
}

TEST_F(TensorIoTest, EmptySparseTensorRoundTrips) {
  tensor::SparseTensor x({2, 2});
  x.SortAndCoalesce();
  ASSERT_TRUE(SaveSparseText(x, Path("empty.txt")).ok());
  auto loaded = LoadSparseText(Path("empty.txt"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNonZeros(), 0u);
  EXPECT_EQ(loaded->shape(), x.shape());
}

TEST_F(TensorIoTest, MissingFileFails) {
  EXPECT_EQ(LoadSparseText(Path("nope.txt")).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(LoadSparseBinary(Path("nope.bin")).status().code(),
            StatusCode::kIOError);
}

TEST_F(TensorIoTest, CorruptTextRejected) {
  {
    std::ofstream out(Path("bad1.txt"));
    out << "wrong-magic 1\n";
  }
  EXPECT_FALSE(LoadSparseText(Path("bad1.txt")).ok());

  {
    std::ofstream out(Path("bad2.txt"));
    out << "m2td-sparse 1\nmodes 2\nshape 2 2\nnnz 2\n0 0 1.0\n";
    // second entry missing
  }
  EXPECT_FALSE(LoadSparseText(Path("bad2.txt")).ok());

  {
    std::ofstream out(Path("bad3.txt"));
    out << "m2td-sparse 1\nmodes 2\nshape 2 2\nnnz 1\n5 0 1.0\n";
    // index out of range
  }
  EXPECT_FALSE(LoadSparseText(Path("bad3.txt")).ok());
}

TEST_F(TensorIoTest, CorruptBinaryRejected) {
  {
    std::ofstream out(Path("bad.bin"), std::ios::binary);
    const char garbage[16] = {1, 2, 3};
    out.write(garbage, sizeof(garbage));
  }
  EXPECT_FALSE(LoadSparseBinary(Path("bad.bin")).ok());
}

TEST_F(TensorIoTest, TextValuesSurvive17Digits) {
  tensor::SparseTensor x({2, 2});
  x.AppendEntry({0, 1}, 0.1234567890123456789);
  x.AppendEntry({1, 0}, -1e-300);
  x.SortAndCoalesce();
  ASSERT_TRUE(SaveSparseText(x, Path("p.txt")).ok());
  auto loaded = LoadSparseText(Path("p.txt"));
  ASSERT_TRUE(loaded.ok());
  ExpectTensorsEqual(x, *loaded);
}

// ------------------------------------------------------------ TablePrinter

TEST(TablePrinterTest, PrintAlignsColumns) {
  TablePrinter table({"Scheme", "Accuracy"});
  table.AddRow({"M2TD-SELECT", "0.57"});
  table.AddRow({"Random", "9e-08"});
  std::ostringstream os;
  table.Print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Scheme"), std::string::npos);
  EXPECT_NE(text.find("M2TD-SELECT"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("|---"), std::string::npos);
  EXPECT_EQ(table.NumRows(), 2u);
}

TEST(TablePrinterTest, CellFormatting) {
  EXPECT_EQ(TablePrinter::Cell(0.5678, 2), "0.57");
  EXPECT_EQ(TablePrinter::SciCell(0.00021), "2.1e-04");
}

TEST_F(TensorIoTest, BinaryLoadRejectsNaNPayloadNamingCoordinate) {
  // Build a tensor holding a NaN via the unchecked builder (modelling a
  // corrupt file written by a buggy producer), serialize it, and verify
  // the loader's ingest screen rejects it as InvalidArgument — not
  // IOError, so the retry layer never re-reads known-bad data.
  tensor::SparseTensor bad({4, 3, 5});
  bad.AppendEntry({0, 0, 0}, 1.0);
  bad.AppendEntry({2, 1, 4}, std::numeric_limits<double>::quiet_NaN());
  const std::string path = Path("bad.spbin");
  ASSERT_TRUE(SaveSparseBinary(bad, path).ok());
  auto loaded = LoadSparseBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("NaN"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("(2, 1, 4)"), std::string::npos)
      << loaded.status().message();
}

class TableCsvTest : public TensorIoTest {};

TEST_F(TableCsvTest, WriteCsvEscapesSpecials) {
  TablePrinter table({"name", "note"});
  table.AddRow({"plain", "hello"});
  table.AddRow({"with,comma", "say \"hi\""});
  ASSERT_TRUE(table.WriteCsv(Path("t.csv")).ok());
  std::ifstream in(Path("t.csv"));
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,note");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,hello");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",\"say \"\"hi\"\"\"");
}

}  // namespace
}  // namespace m2td::io
