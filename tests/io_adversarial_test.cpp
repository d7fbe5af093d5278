// Adversarial graph inputs: truncated binaries, lying size fields, binaries
// that break the CSR conventions, malformed edge-list lines. Every case must
// surface as a structured gala::Error that names the file (and line, for
// text inputs) — never a crash, never an unbounded allocation, never
// silently-wrong data.
#include "gala/graph/io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "gala/common/error.hpp"
#include "test_util.hpp"

namespace gala::graph {
namespace {

class AdversarialIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return tmp_.file(name); }

  /// Writes a binary snapshot with the given raw CSR arrays, valid or not.
  std::string write_binary(const std::string& name, const std::vector<std::uint64_t>& offsets,
                           const std::vector<std::uint32_t>& adj, const std::vector<double>& w) {
    const std::string p = path(name);
    std::ofstream out(p, std::ios::binary);
    const std::uint64_t magic = 0x47414c41475246ULL;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    const auto write_array = [&out](const auto& v) {
      const std::uint64_t len = v.size();
      out.write(reinterpret_cast<const char*>(&len), sizeof(len));
      out.write(reinterpret_cast<const char*>(v.data()),
                static_cast<std::streamsize>(v.size() * sizeof(v[0])));
    };
    write_array(offsets);
    write_array(adj);
    write_array(w);
    return p;
  }

  std::string write_text(const std::string& name, const std::string& content) {
    const std::string p = path(name);
    std::ofstream out(p);
    out << content;
    return p;
  }

  /// Expects `fn` to throw gala::Error whose message contains every needle.
  template <typename Fn>
  void expect_error(Fn&& fn, std::initializer_list<std::string> needles) {
    try {
      fn();
      FAIL() << "expected gala::Error";
    } catch (const Error& e) {
      const std::string what = e.what();
      for (const std::string& needle : needles) {
        EXPECT_NE(what.find(needle), std::string::npos)
            << "missing '" << needle << "' in: " << what;
      }
    }
  }

  gala::testing::ScopedTempDir tmp_;
};

// ---- binary format ----------------------------------------------------------

TEST_F(AdversarialIoTest, BinaryRoundTripStillWorks) {
  const auto g = gala::testing::two_triangles();
  const std::string p = path("good.galabin");
  save_binary(g, p);
  const Graph back = load_binary(p);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
}

TEST_F(AdversarialIoTest, TruncatedBinaryIsStructuredError) {
  const auto g = gala::testing::small_planted();
  const std::string p = path("truncated.galabin");
  save_binary(g, p);
  const auto full = std::filesystem::file_size(p);
  // Chop the file at several depths: inside the weights array, inside the
  // adjacency, inside the offsets, and inside the header. Depending on where
  // the cut lands the loader reports either a short read ("truncated") or an
  // array length that no longer fits the file ("corrupt") — both structured.
  for (const auto keep : {full - 9, full / 2, full / 8, std::uintmax_t{11}, std::uintmax_t{3}}) {
    std::filesystem::resize_file(p, keep);
    expect_error([&] { load_binary(p); }, {"binary graph"});
  }
}

TEST_F(AdversarialIoTest, BadMagicIsRejected) {
  const std::string p = path("notagraph.galabin");
  std::ofstream out(p, std::ios::binary);
  const std::uint64_t junk = 0xdeadbeefdeadbeefULL;
  out.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  out.close();
  expect_error([&] { load_binary(p); }, {"bad magic", p});
}

TEST_F(AdversarialIoTest, OverflowingSizeFieldDoesNotAllocate) {
  // A size field claiming 2^60 elements must become a bounded structured
  // error, not a std::bad_alloc from a ~16 EiB vector resize.
  const std::string p = path("liar.galabin");
  std::ofstream out(p, std::ios::binary);
  const std::uint64_t magic = 0x47414c41475246ULL;
  const std::uint64_t huge = 1ULL << 60;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  out.close();
  expect_error([&] { load_binary(p); }, {"corrupt binary graph"});
}

TEST_F(AdversarialIoTest, ZeroVertexBinaryIsRejected) {
  const std::string p = path("empty.galabin");
  std::ofstream out(p, std::ios::binary);
  const std::uint64_t magic = 0x47414c41475246ULL;
  const std::uint64_t zero = 0;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  for (int i = 0; i < 3; ++i) out.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
  out.close();
  expect_error([&] { load_binary(p); }, {"inconsistent binary graph", p});
}

TEST_F(AdversarialIoTest, CorruptOffsetsAreRejected) {
  // offsets = [0, 5] but only 1 adjacency entry: offsets.back() mismatch.
  const std::string p = write_binary("offsets.galabin", {0, 5}, {0}, {1.0});
  expect_error([&] { load_binary(p); }, {"corrupt offsets", p});
}

TEST_F(AdversarialIoTest, OutOfRangeNeighbourIdIsRejected) {
  // 2 vertices, one edge 0 -> 9 (vertex 9 does not exist).
  const std::string p = write_binary("badneighbour.galabin", {0, 1, 2}, {9, 0}, {1.0, 1.0});
  expect_error([&] { load_binary(p); }, {"out of range", p});
}

// The loader adopts the stored CSR as-is, so every convention the graph
// relies on — sorted unique rows, positive weights, each entry mirrored with
// the same weight — must be rejected when broken, not repaired.

TEST_F(AdversarialIoTest, NonMonotoneOffsetsAreRejected) {
  // Row 0 claims to run past the end of the adjacency.
  const std::string p = write_binary("nonmonotone.galabin", {0, 9, 1, 2}, {1, 0}, {1.0, 1.0});
  expect_error([&] { load_binary(p); }, {"non-monotone offsets at vertex 1", p});
}

TEST_F(AdversarialIoTest, UnsortedRowIsRejected) {
  // Star 0-{1,2} with row 0 stored as [2, 1].
  const std::string p =
      write_binary("unsorted.galabin", {0, 2, 3, 4}, {2, 1, 0, 0}, {1.0, 1.0, 1.0, 1.0});
  expect_error([&] { load_binary(p); }, {"unsorted row 0", p});
}

TEST_F(AdversarialIoTest, DuplicateNeighbourIsRejected) {
  const std::string p =
      write_binary("duplicate.galabin", {0, 2, 4}, {1, 1, 0, 0}, {1.0, 1.0, 1.0, 1.0});
  expect_error([&] { load_binary(p); }, {"duplicate neighbour 1 in row 0", p});
}

TEST_F(AdversarialIoTest, MissingReverseEdgeIsRejected) {
  // Only 0->1 stored, then only 1->0 stored.
  const std::string p = write_binary("upper_only.galabin", {0, 1, 1}, {1}, {1.0});
  expect_error([&] { load_binary(p); }, {"missing reverse edge 1->0", p});
  const std::string q = write_binary("lower_only.galabin", {0, 0, 1}, {0}, {1.0});
  expect_error([&] { load_binary(q); }, {"missing reverse edge 0->1", q});
}

TEST_F(AdversarialIoTest, ReverseWeightMismatchIsRejected) {
  // Off by one ulp: the reverse weight must match exactly.
  const std::string p =
      write_binary("asymmetric.galabin", {0, 1, 2}, {1, 0}, {1.0, std::nextafter(1.0, 2.0)});
  expect_error([&] { load_binary(p); }, {"asymmetric weight on edge {0,1}", p});
}

TEST_F(AdversarialIoTest, ZeroWeightIsRejected) {
  const std::string p = write_binary("zero.galabin", {0, 1, 2}, {1, 0}, {0.0, 0.0});
  expect_error([&] { load_binary(p); }, {"bad weight", p});
  const std::string q = write_binary("negative.galabin", {0, 1, 2}, {1, 0}, {-1.0, -1.0});
  expect_error([&] { load_binary(q); }, {"bad weight", q});
}

TEST_F(AdversarialIoTest, NanWeightIsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::string p = write_binary("nan.galabin", {0, 1, 2}, {1, 0}, {nan, nan});
  expect_error([&] { load_binary(p); }, {"bad weight", p});
}

TEST_F(AdversarialIoTest, MissingBinaryFileIsStructuredError) {
  expect_error([&] { load_binary(path("nope.galabin")); }, {"cannot open binary graph"});
}

// ---- edge-list format --------------------------------------------------------

TEST_F(AdversarialIoTest, MalformedEdgeLineNamesFileAndLine) {
  const std::string p = write_text("bad.txt", "0 1\n1 2\nnot an edge\n2 3\n");
  expect_error([&] { load_edge_list(p); }, {"malformed edge", p + ":3"});
}

TEST_F(AdversarialIoTest, MissingEndpointIsMalformed) {
  const std::string p = write_text("half.txt", "0 1\n7\n");
  expect_error([&] { load_edge_list(p); }, {"malformed edge", p + ":2"});
}

TEST_F(AdversarialIoTest, VertexIdOverflowIsRejected) {
  // 4294967295 == kInvalidVid is reserved; anything >= it must be rejected
  // before it wraps into a valid-looking id.
  const std::string p = write_text("overflow.txt", "0 4294967295\n");
  expect_error([&] { load_edge_list(p); }, {"vertex id overflow", p + ":1"});
  const std::string p2 = write_text("overflow2.txt", "0 1\n18446744073709551615 2\n");
  expect_error([&] { load_edge_list(p2); }, {"vertex id overflow", p2 + ":2"});
}

TEST_F(AdversarialIoTest, NegativeIdIsRejectedNotWrapped) {
  // A negative id wraps modulo 2^64 under unsigned extraction; the overflow
  // guard must catch the wrapped value rather than mint a huge vertex id.
  const std::string p = write_text("negative.txt", "0 -5\n");
  expect_error([&] { load_edge_list(p); }, {p + ":1"});
}

TEST_F(AdversarialIoTest, NonPositiveWeightIsRejected) {
  const std::string p = write_text("zeroweight.txt", "0 1 0\n");
  expect_error([&] { load_edge_list(p); }, {"non-positive weight", p + ":1"});
  const std::string p2 = write_text("negweight.txt", "0 1 -3.5\n");
  expect_error([&] { load_edge_list(p2); }, {"non-positive weight", p2 + ":1"});
}

TEST_F(AdversarialIoTest, NumVerticesSmallerThanMaxIdIsRejected) {
  const std::string p = write_text("undersized.txt", "0 1\n5 6\n");
  expect_error([&] { load_edge_list(p, /*num_vertices=*/3); }, {"<= max id"});
}

TEST_F(AdversarialIoTest, MissingEdgeListIsStructuredError) {
  expect_error([&] { load_edge_list(path("absent.txt")); }, {"cannot open edge list"});
}

TEST_F(AdversarialIoTest, CommentsAndBlankLinesStillFine) {
  const std::string p =
      write_text("ok.txt", "# header\n\n% matrix-market style comment\n0 1\n1 2\n0 2 2.5\n");
  const Graph g = load_edge_list(p);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

}  // namespace
}  // namespace gala::graph
