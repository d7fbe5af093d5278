// Integration tests for the top-level GALA pipeline (run_louvain).
#include "gala/core/gala.hpp"

#include <gtest/gtest.h>

#include "gala/core/modularity.hpp"
#include "gala/core/sequential_louvain.hpp"
#include "gala/graph/generators.hpp"
#include "gala/metrics/nmi.hpp"
#include "losing_engine.hpp"
#include "test_util.hpp"

namespace gala::core {
namespace {

TEST(Gala, RingOfCliquesRecoveredExactly) {
  const auto g = graph::ring_of_cliques(12, 6);
  const auto r = run_louvain(g);
  EXPECT_EQ(r.num_communities, 12u);
  for (vid_t c = 0; c < 12; ++c) {
    for (vid_t i = 1; i < 6; ++i) EXPECT_EQ(r.assignment[c * 6 + i], r.assignment[c * 6]);
  }
}

TEST(Gala, MatchesSequentialQualityOnPlantedGraphs) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto g = testing::small_planted(seed, 1000, 12, 0.2);
    const auto seq = sequential_louvain(g);
    const auto gala = run_louvain(g);
    EXPECT_GT(gala.modularity, 0.97 * seq.modularity) << "seed " << seed;
    EXPECT_NEAR(gala.modularity, modularity(g, gala.assignment), 1e-9);
  }
}

TEST(Gala, RecoversGroundTruthOnSharpGraphs) {
  graph::PlantedPartitionParams p;
  p.num_vertices = 2000;
  p.num_communities = 20;
  p.avg_degree = 16;
  p.mixing = 0.05;
  p.seed = 12;
  std::vector<cid_t> truth;
  const auto g = graph::planted_partition(p, &truth);
  const auto r = run_louvain(g);
  EXPECT_GT(metrics::nmi(r.assignment, truth), 0.95);
}

TEST(Gala, LevelsCompressMonotonically) {
  const auto g = testing::small_planted(7, 3000, 30, 0.2);
  const auto r = run_louvain(g);
  ASSERT_GE(r.levels.size(), 2u);
  for (std::size_t i = 0; i < r.levels.size(); ++i) {
    EXPECT_LE(r.levels[i].communities, r.levels[i].vertices);
    if (i > 0) {
      EXPECT_EQ(r.levels[i].vertices, r.levels[i - 1].communities);
      EXPECT_GE(r.levels[i].modularity + 1e-9, r.levels[i - 1].modularity);
    }
  }
}

TEST(Gala, AssignmentIsDenseAndCovering) {
  const auto g = testing::small_planted(9);
  const auto r = run_louvain(g);
  ASSERT_EQ(r.assignment.size(), g.num_vertices());
  std::vector<bool> used(r.num_communities, false);
  for (const cid_t c : r.assignment) {
    ASSERT_LT(c, r.num_communities);
    used[c] = true;
  }
  for (const bool u : used) EXPECT_TRUE(u);
}

TEST(Gala, KeepFirstRoundCapturesIterationDetail) {
  const auto g = testing::small_planted(11);
  GalaConfig cfg;
  cfg.keep_first_round = true;
  const auto r = run_louvain(g, cfg);
  EXPECT_FALSE(r.first_round.iterations.empty());
  EXPECT_EQ(static_cast<int>(r.first_round.iterations.size()), r.levels[0].iterations);
}

TEST(Gala, NeverFoldsALevelThatLostModularity) {
  // Level 1's phase 1 ends below its start: the run returns the partition it
  // held after level 0 (the refined one under refinement) with that
  // partition's audited modularity.
  const auto g = testing::small_planted(5, 2000, 20, 0.2);
  for (const bool refine : {false, true}) {
    GalaConfig cfg;
    cfg.refine = refine;
    testing::LosingEngine engine(/*losing_level=*/1);
    const auto r = run_louvain(g, cfg, engine);
    GalaConfig one_level = cfg;
    one_level.max_levels = 1;
    const auto held = run_louvain(g, one_level);
    ASSERT_TRUE(r.rejected.has_value()) << "refine " << refine;
    EXPECT_EQ(r.rejected->communities, 1u);
    EXPECT_EQ(r.levels.size(), 1u);
    EXPECT_EQ(r.assignment, held.assignment) << "refine " << refine;
    EXPECT_EQ(r.num_communities, held.num_communities);
    EXPECT_NEAR(r.modularity, modularity(g, r.assignment), 1e-12) << "refine " << refine;
    EXPECT_GT(r.modularity, r.rejected->modularity);
    // The capped run ends holding a (possibly refined) fold: its Q is the
    // held partition's too.
    EXPECT_NEAR(held.modularity, modularity(g, held.assignment), 1e-12) << "refine " << refine;
  }
}

TEST(Gala, WarmLevelThatLostModularityFoldsItsStart) {
  // A warm level 0 whose phase 1 ends below the warm start folds the warm
  // start instead, and the deeper levels go on from its contraction.
  const auto g = testing::small_planted(5, 2000, 20, 0.2);
  GalaConfig one_level;
  one_level.max_levels = 1;
  const auto warm = run_louvain(g, one_level).assignment;
  testing::LosingEngine engine(/*losing_level=*/0);
  GalaConfig cfg;
  cfg.keep_first_round = true;
  const auto r = run_louvain(g, cfg, engine, warm);
  EXPECT_LT(r.first_round.modularity, r.first_round.start_modularity);
  EXPECT_FALSE(r.rejected.has_value());
  ASSERT_GE(r.levels.size(), 2u);
  EXPECT_EQ(r.levels[0].communities, count_communities(warm));
  EXPECT_NEAR(r.levels[0].modularity, modularity(g, warm), 1e-12);
  EXPECT_GT(r.modularity, r.levels[0].modularity);
  EXPECT_NEAR(r.modularity, modularity(g, r.assignment), 1e-9);
  // Folding the warm start is folding the cold run's level 0.
  EXPECT_EQ(r.assignment, run_louvain(g).assignment);
}

TEST(Gala, DeterministicAcrossRuns) {
  const auto g = testing::small_planted(13);
  const auto a = run_louvain(g);
  const auto b = run_louvain(g);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.modularity, b.modularity);
}

TEST(Gala, AllPruningStrategiesReachSimilarQuality) {
  const auto g = testing::small_planted(15, 1500, 15, 0.25);
  GalaConfig base;
  const auto baseline = run_louvain(g, base);
  for (const auto strategy :
       {PruningStrategy::None, PruningStrategy::Strict, PruningStrategy::Relaxed,
        PruningStrategy::Probabilistic, PruningStrategy::MgPlusRelaxed}) {
    GalaConfig cfg;
    cfg.bsp.pruning = strategy;
    const auto r = run_louvain(g, cfg);
    EXPECT_GT(r.modularity, baseline.modularity - 0.02) << to_string(strategy);
  }
}

TEST(Gala, ModeledTimeAccumulatesAcrossLevels) {
  const auto g = testing::small_planted(17);
  const auto r = run_louvain(g);
  EXPECT_GT(r.modeled_ms, 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(Gala, WeightedGraphsRespectWeights) {
  graph::GraphBuilder b(6);
  // Two weighted triangles bridged by a heavy edge: the heavy bridge glues
  // everything into one community.
  for (const auto& [u, v] :
       {std::pair<vid_t, vid_t>{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}) {
    b.add_edge(u, v, 0.1);
  }
  b.add_edge(2, 3, 50.0);
  const auto g = b.build();
  const auto r = run_louvain(g);
  EXPECT_EQ(r.assignment[2], r.assignment[3]);
}

}  // namespace
}  // namespace gala::core
