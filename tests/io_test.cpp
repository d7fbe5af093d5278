// Graph file I/O: text edge-list and binary round trips, error paths.
#include "gala/graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_util.hpp"

namespace gala::graph {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) const { return tmp_.file(name); }

  testing::ScopedTempDir tmp_;
};

bool graphs_equal(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_adjacency() != b.num_adjacency()) return false;
  for (vid_t v = 0; v < a.num_vertices(); ++v) {
    auto na = a.neighbors(v), nb = b.neighbors(v);
    auto wa = a.weights(v), wb = b.weights(v);
    if (!std::equal(na.begin(), na.end(), nb.begin())) return false;
    for (std::size_t i = 0; i < wa.size(); ++i) {
      if (std::abs(wa[i] - wb[i]) > 1e-12) return false;
    }
  }
  return true;
}

TEST_F(IoTest, EdgeListRoundTrip) {
  const Graph g = testing::small_planted(7, 200, 4, 0.2);
  const std::string path = temp_path("roundtrip.txt");
  save_edge_list(g, path);
  const Graph loaded = load_edge_list(path, g.num_vertices());
  EXPECT_TRUE(graphs_equal(g, loaded));
}

TEST_F(IoTest, BinaryRoundTrip) {
  const Graph g = testing::small_planted(9, 300, 6, 0.3);
  const std::string path = temp_path("roundtrip.bin");
  save_binary(g, path);
  const Graph loaded = load_binary(path);
  EXPECT_TRUE(graphs_equal(g, loaded));
}

TEST_F(IoTest, BinaryPreservesSelfLoops) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 1, 3.0);
  const Graph g = b.build();
  const std::string path = temp_path("loops.bin");
  save_binary(g, path);
  const Graph loaded = load_binary(path);
  EXPECT_DOUBLE_EQ(loaded.self_loop(1), 3.0);
  EXPECT_DOUBLE_EQ(loaded.degree(1), 8.0);
}

TEST_F(IoTest, ParsesCommentsAndWeights) {
  const std::string path = temp_path("comments.txt");
  std::ofstream out(path);
  out << "# a comment\n% another\n0 1 2.5\n\n1 2\n";
  out.close();
  const Graph g = load_edge_list(path);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.weights(0)[0], 2.5);
  EXPECT_DOUBLE_EQ(g.weights(1)[1], 1.0);  // default weight
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent/gala/file.txt"), Error);
  EXPECT_THROW(load_binary("/nonexistent/gala/file.bin"), Error);
}

TEST_F(IoTest, MalformedLineThrows) {
  const std::string path = temp_path("bad.txt");
  std::ofstream(path) << "0 not-a-number\n";
  EXPECT_THROW(load_edge_list(path), Error);
}

TEST_F(IoTest, NonPositiveWeightThrows) {
  const std::string path = temp_path("badw.txt");
  std::ofstream(path) << "0 1 -3\n";
  EXPECT_THROW(load_edge_list(path), Error);
}

TEST_F(IoTest, ExplicitVertexCountTooSmallThrows) {
  const std::string path = temp_path("range.txt");
  std::ofstream(path) << "0 9\n";
  EXPECT_THROW(load_edge_list(path, 5), Error);
}

TEST_F(IoTest, BadBinaryMagicThrows) {
  const std::string path = temp_path("garbage.bin");
  std::ofstream(path) << "this is not a graph";
  EXPECT_THROW(load_binary(path), Error);
}

}  // namespace
}  // namespace gala::graph
