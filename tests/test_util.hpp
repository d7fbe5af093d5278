// Shared helpers for the GALA test suites.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

#include "gala/graph/csr.hpp"
#include "gala/graph/generators.hpp"

namespace gala::testing {

/// Tiny two-triangle graph joined by one bridge: the canonical hand-checkable
/// community structure. Vertices 0-2 and 3-5; bridge {2,3}.
inline graph::Graph two_triangles() {
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  b.add_edge(2, 3);
  return b.build();
}

/// Karate-club-sized deterministic planted graph for mid-size tests.
inline graph::Graph small_planted(std::uint64_t seed = 5, vid_t n = 400, vid_t k = 8,
                                  double mixing = 0.15) {
  graph::PlantedPartitionParams p;
  p.num_vertices = n;
  p.num_communities = k;
  p.avg_degree = 12;
  p.mixing = mixing;
  p.seed = seed;
  return graph::planted_partition(p);
}

/// Asserts that two graphs are identical bit for bit: every CSR array and
/// every derived field (degrees, self-loops, totals, edge counts).
inline void expect_same_graph(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_adjacency(), b.num_adjacency());
  EXPECT_EQ(a.total_weight(), b.total_weight());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.max_out_degree(), b.max_out_degree());
  for (vid_t v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.degree(v), b.degree(v)) << "degree of " << v;
    EXPECT_EQ(a.self_loop(v), b.self_loop(v)) << "self-loop of " << v;
    const auto an = a.neighbors(v);
    const auto bn = b.neighbors(v);
    ASSERT_EQ(an.size(), bn.size()) << "row " << v;
    const auto aw = a.weights(v);
    const auto bw = b.weights(v);
    for (std::size_t i = 0; i < an.size(); ++i) {
      EXPECT_EQ(an[i], bn[i]) << "row " << v << " entry " << i;
      EXPECT_EQ(aw[i], bw[i]) << "row " << v << " entry " << i;
    }
  }
}

/// A directory of the running test's own, named from the process id and the
/// test's full name, created empty and removed with its contents on
/// destruction. gtest_discover_tests runs every test as its own ctest
/// process, so fixed file names under temp_directory_path() would be shared
/// by concurrent tests under `ctest -j`.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string name = "gala_" + std::to_string(::getpid());
    if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("_") + info->test_suite_name() + "." + info->name();
    }
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.') c = '_';
    }
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// Path of `name` inside the directory.
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace gala::testing
