// Shared helpers for the GALA test suites.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <string>
#include <system_error>
#include <vector>

#include "gala/common/prng.hpp"
#include "gala/core/incremental.hpp"
#include "gala/gpusim/memory.hpp"
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

/// `count` unit-weight insertions between random distinct vertices of an
/// `n`-vertex graph: one epoch of the repair sweeps.
inline std::vector<core::EdgeUpdate> random_insertions(vid_t n, int count, Xoshiro256& rng) {
  std::vector<core::EdgeUpdate> batch;
  while (static_cast<int>(batch.size()) < count) {
    const auto u = static_cast<vid_t>(rng.next_below(n));
    const auto v = static_cast<vid_t>(rng.next_below(n));
    if (u != v) batch.push_back({u, v, 1.0, false});
  }
  return batch;
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

/// Asserts that two traffic records agree in every MemoryStats field: each
/// counter and every bucket of both hashtable histograms. `where` names the
/// input in failure messages.
inline void expect_same_stats(const gpusim::MemoryStats& a, const gpusim::MemoryStats& b,
                              const std::string& where = "") {
  using S = gpusim::MemoryStats;
  struct Counter {
    const char* name;
    std::uint64_t S::*field;
  };
  static constexpr Counter kCounters[] = {
      {"global_reads", &S::global_reads},
      {"global_writes", &S::global_writes},
      {"global_atomics", &S::global_atomics},
      {"shared_reads", &S::shared_reads},
      {"shared_writes", &S::shared_writes},
      {"shared_atomics", &S::shared_atomics},
      {"register_ops", &S::register_ops},
      {"shuffle_ops", &S::shuffle_ops},
      {"ht_maintain_shared", &S::ht_maintain_shared},
      {"ht_maintain_global", &S::ht_maintain_global},
      {"ht_access_shared", &S::ht_access_shared},
      {"ht_access_global", &S::ht_access_global},
      {"gather_requests", &S::gather_requests},
      {"gather_transactions", &S::gather_transactions},
      {"simt_lane_slots", &S::simt_lane_slots},
      {"simt_active_lanes", &S::simt_active_lanes},
      {"shared_requests", &S::shared_requests},
      {"shared_waves", &S::shared_waves},
      {"ht_lookups", &S::ht_lookups},
      {"ht_probes", &S::ht_probes},
      {"ht_tables", &S::ht_tables},
  };
  // A field added to MemoryStats must be added above too.
  static_assert(sizeof(S) == sizeof(std::uint64_t) * (std::size(kCounters) + S::kProbeBuckets +
                                                      S::kOccupancyBuckets));
  for (const Counter& c : kCounters) EXPECT_EQ(a.*c.field, b.*c.field) << c.name << " " << where;
  for (std::size_t i = 0; i < S::kProbeBuckets; ++i) {
    EXPECT_EQ(a.ht_probe_hist[i], b.ht_probe_hist[i]) << "ht_probe_hist[" << i << "] " << where;
  }
  for (std::size_t i = 0; i < S::kOccupancyBuckets; ++i) {
    EXPECT_EQ(a.ht_occupancy_hist[i], b.ht_occupancy_hist[i])
        << "ht_occupancy_hist[" << i << "] " << where;
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
