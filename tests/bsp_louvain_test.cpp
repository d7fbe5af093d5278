// Integration tests for the BSP phase-1 engine: correctness against the
// sequential reference, invariants of the state tracking, and behaviour of
// all configuration axes (kernels, hashtables, pruning, weight update).
#include "gala/core/bsp_louvain.hpp"

#include <gtest/gtest.h>

#include "gala/core/gala.hpp"
#include "gala/core/modularity.hpp"
#include "gala/core/sequential_louvain.hpp"
#include "gala/graph/generators.hpp"
#include "test_util.hpp"

namespace gala::core {
namespace {

TEST(BspLouvain, FindsTheTwoTriangles) {
  const auto g = testing::two_triangles();
  BspConfig cfg;
  cfg.parallel = false;
  const auto result = bsp_phase1(g, cfg);
  EXPECT_EQ(result.num_communities, 2u);
  EXPECT_EQ(result.community[0], result.community[1]);
  EXPECT_EQ(result.community[1], result.community[2]);
  EXPECT_EQ(result.community[3], result.community[4]);
  EXPECT_EQ(result.community[4], result.community[5]);
  EXPECT_NE(result.community[0], result.community[3]);
  EXPECT_NEAR(result.modularity, 2.0 * (6.0 / 14 - 0.25), 1e-9);
}

TEST(BspLouvain, ReportedModularityMatchesIndependentAudit) {
  const auto g = testing::small_planted();
  const auto result = bsp_phase1(g, {});
  EXPECT_NEAR(result.modularity, modularity(g, result.community), 1e-9);
}

TEST(BspLouvain, RecoversPlantedCommunities) {
  std::vector<cid_t> truth;
  graph::PlantedPartitionParams p;
  p.num_vertices = 600;
  p.num_communities = 6;
  p.avg_degree = 16;
  p.mixing = 0.1;
  p.seed = 3;
  const auto g = graph::planted_partition(p, &truth);
  // Phase 1 of round 1 plateaus early under BSP (expected); the multi-level
  // pipeline recovers sequential-level quality.
  const auto phase1 = bsp_phase1(g, {});
  EXPECT_GT(phase1.modularity, 0.05);
  const auto full = run_louvain(g);
  EXPECT_GT(full.modularity, 0.65);  // ~ (1 - mu) - 1/k
  EXPECT_EQ(full.num_communities, 6u);
}

TEST(BspLouvain, ComparableToSequentialReference) {
  const auto g = testing::small_planted(17, 500, 10, 0.2);
  const auto seq = sequential_phase1(g);
  const auto bsp = bsp_phase1(g, {});
  // BSP phase 1 should land in the same quality regime as the sequential
  // sweep (it may differ slightly in either direction).
  EXPECT_GT(bsp.modularity, 0.85 * seq.modularity);
}

TEST(BspLouvain, ModularityNeverBelowStartAndConverges) {
  const auto g = testing::small_planted(23);
  const auto result = bsp_phase1(g, {});
  ASSERT_FALSE(result.iterations.empty());
  // Final iteration either moved nothing or gained < theta.
  const auto& last = result.iterations.back();
  EXPECT_TRUE(last.moved == 0 || last.delta_q < 1e-6);
  EXPECT_GT(result.modularity, 0.0);
}

struct AxisParam {
  KernelMode kernel;
  HashTablePolicy hashtable;
  WeightUpdateMode update;
  bool parallel;
};

class BspAxes : public ::testing::TestWithParam<AxisParam> {};

TEST_P(BspAxes, AllConfigurationsAgreeOnModularity) {
  const auto g = testing::small_planted(29, 500, 10, 0.25);
  BspConfig reference;
  reference.parallel = false;
  const auto expect = bsp_phase1(g, reference);

  BspConfig cfg;
  cfg.kernel = GetParam().kernel;
  cfg.hashtable = GetParam().hashtable;
  cfg.weight_update = GetParam().update;
  cfg.parallel = GetParam().parallel;
  const auto got = bsp_phase1(g, cfg);

  // Every kernel/hashtable/update combination computes the same algorithm;
  // decisions are identical so communities and modularity must match.
  EXPECT_NEAR(got.modularity, expect.modularity, 1e-9);
  EXPECT_EQ(got.num_communities, expect.num_communities);
  EXPECT_NEAR(got.modularity, modularity(g, got.community), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllAxes, BspAxes,
    ::testing::Values(
        AxisParam{KernelMode::Auto, HashTablePolicy::Hierarchical, WeightUpdateMode::Delta, true},
        AxisParam{KernelMode::Auto, HashTablePolicy::Hierarchical, WeightUpdateMode::Recompute,
                  true},
        AxisParam{KernelMode::ShuffleOnly, HashTablePolicy::Hierarchical, WeightUpdateMode::Delta,
                  true},
        AxisParam{KernelMode::HashOnly, HashTablePolicy::Hierarchical, WeightUpdateMode::Delta,
                  true},
        AxisParam{KernelMode::HashOnly, HashTablePolicy::Unified, WeightUpdateMode::Delta, true},
        AxisParam{KernelMode::HashOnly, HashTablePolicy::GlobalOnly, WeightUpdateMode::Delta,
                  true},
        AxisParam{KernelMode::Auto, HashTablePolicy::Unified, WeightUpdateMode::Recompute, false},
        AxisParam{KernelMode::HashOnly, HashTablePolicy::GlobalOnly, WeightUpdateMode::Recompute,
                  false}));

TEST(BspLouvain, DeltaWeightUpdateMatchesRecomputeEveryIteration) {
  // Run two engines in lockstep configs and compare the *state* they report
  // through identical final results on several seeds.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto g = testing::small_planted(seed, 300, 6, 0.3);
    BspConfig a, b;
    a.weight_update = WeightUpdateMode::Recompute;
    b.weight_update = WeightUpdateMode::Delta;
    a.parallel = b.parallel = false;
    const auto ra = bsp_phase1(g, a);
    const auto rb = bsp_phase1(g, b);
    ASSERT_EQ(ra.iterations.size(), rb.iterations.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ra.iterations.size(); ++i) {
      EXPECT_NEAR(ra.iterations[i].modularity, rb.iterations[i].modularity, 1e-9)
          << "seed " << seed << " iteration " << i;
      EXPECT_EQ(ra.iterations[i].moved, rb.iterations[i].moved);
    }
    EXPECT_EQ(ra.community, rb.community);
  }
}

TEST(BspLouvain, IsolatedVerticesStaySingletons) {
  graph::GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  // Vertices 3 and 4 are isolated.
  const auto g = b.build();
  const auto result = bsp_phase1(g, {});
  EXPECT_EQ(result.community[3], 3u);
  EXPECT_EQ(result.community[4], 4u);
  EXPECT_EQ(result.num_communities, 3u);
}

TEST(BspLouvain, RejectsEmptyGraph) {
  graph::GraphBuilder b(3);
  const auto g = b.build();
  EXPECT_THROW(bsp_phase1(g, {}), Error);
}

TEST(BspLouvain, DeterministicAcrossRuns) {
  const auto g = testing::small_planted(31);
  const auto a = bsp_phase1(g, {});
  const auto b = bsp_phase1(g, {});
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.iterations.size(), b.iterations.size());
}

TEST(BspLouvain, TrafficAccountingIsPopulated) {
  const auto g = testing::small_planted(37);
  const auto result = bsp_phase1(g, {});
  EXPECT_GT(result.total_traffic.global_reads, 0u);
  EXPECT_GT(result.modeled_ms(), 0.0);
  EXPECT_GT(result.decide_modeled_ms, 0.0);
}

TEST(BspLouvain, ObserverSeesEveryIteration) {
  const auto g = testing::small_planted(41);
  BspConfig cfg;
  int calls = 0;
  cfg.on_iteration = [&](int iter, const IterationStats&, std::span<const std::uint8_t> active,
                         std::span<const std::uint8_t> moved, std::span<const cid_t>) {
    EXPECT_EQ(iter, calls);
    EXPECT_EQ(active.size(), g.num_vertices());
    EXPECT_EQ(moved.size(), g.num_vertices());
    ++calls;
  };
  const auto result = bsp_phase1(g, cfg);
  EXPECT_EQ(static_cast<std::size_t>(calls), result.iterations.size());
}

}  // namespace
}  // namespace gala::core
