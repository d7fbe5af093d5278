// Dendrogram: cuts, monotone coarsening, modularity consistency per level,
// and block-collective traffic accounting.
#include "gala/core/dendrogram.hpp"

#include <gtest/gtest.h>

#include "gala/core/modularity.hpp"
#include "gala/gpusim/block.hpp"
#include "test_util.hpp"

namespace gala::core {
namespace {

TEST(Dendrogram, CutZeroIsSingletons) {
  const auto g = testing::small_planted(3, 300, 6, 0.2);
  const auto d = build_dendrogram(g);
  const auto cut0 = d.cut(0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(cut0[v], v);
}

TEST(Dendrogram, CutsCoarsenMonotonically) {
  const auto g = testing::small_planted(5, 2000, 20, 0.2);
  const auto d = build_dendrogram(g);
  ASSERT_GE(d.num_levels(), 2u);
  vid_t prev_k = g.num_vertices() + 1;
  for (std::size_t depth = 0; depth <= d.num_levels(); ++depth) {
    const vid_t k = count_communities(d.cut(depth));
    EXPECT_LE(k, prev_k) << "depth " << depth;
    prev_k = k;
  }
}

TEST(Dendrogram, DeeperCutsRefine) {
  // A deeper cut merges whole communities of the shallower cut: same cut-d
  // community implies same cut-(d+1) community.
  const auto g = testing::small_planted(7, 1000, 10, 0.25);
  const auto d = build_dendrogram(g);
  ASSERT_GE(d.num_levels(), 2u);
  const auto fine = d.cut(1);
  const auto coarse = d.cut(2);
  std::vector<cid_t> mapped(count_communities(fine), kInvalidCid);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    auto& m = mapped[fine[v]];
    if (m == kInvalidCid) {
      m = coarse[v];
    } else {
      EXPECT_EQ(m, coarse[v]) << "vertex " << v;
    }
  }
}

TEST(Dendrogram, PerLevelModularityMatchesAudit) {
  // Under refinement an intermediate level folds the refined partition,
  // whose Q differs from the level's phase-1 Q; the level reports the fold's.
  const auto g = testing::small_planted(9, 800, 8, 0.2);
  for (const bool refine : {false, true}) {
    GalaConfig cfg;
    cfg.refine = refine;
    const auto d = build_dendrogram(g, cfg);
    for (std::size_t depth = 1; depth <= d.num_levels(); ++depth) {
      const auto cut = d.cut(depth);
      EXPECT_NEAR(modularity(g, cut), d.level(depth - 1).modularity, 1e-9)
          << "depth " << depth << " refine " << refine;
    }
  }
}

TEST(Dendrogram, FinalCutIsTheRunsPartition) {
  // The dendrogram reads its levels off run_louvain, so its deepest cut is
  // the run's partition under either engine, the final below-theta fold
  // included.
  const auto g = testing::small_planted(17, 3000, 30, 0.3);
  for (const Backend backend : {Backend::Bsp, Backend::Blas}) {
    GalaConfig cfg;
    cfg.backend = backend;
    const auto run = run_louvain(g, cfg);
    const auto d = build_dendrogram(g, cfg);
    ASSERT_EQ(d.num_levels(), run.levels.size()) << to_string(backend);
    auto cut = d.cut(d.num_levels());
    renumber_communities(cut);
    EXPECT_EQ(cut, run.assignment) << to_string(backend);
    EXPECT_EQ(d.level(d.num_levels() - 1).num_communities, run.num_communities)
        << to_string(backend);
  }
}

TEST(Dendrogram, CutAtMostRespectsBound) {
  const auto g = testing::small_planted(11, 2000, 25, 0.2);
  const auto d = build_dendrogram(g);
  const vid_t final_k = d.level(d.num_levels() - 1).num_communities;
  const auto cut = d.cut_at_most(final_k * 3);
  const vid_t k = count_communities(cut);
  EXPECT_LE(k, final_k * 3);
  EXPECT_GE(k, final_k);
  // Unsatisfiable bound falls back to the final partition.
  EXPECT_EQ(count_communities(d.cut_at_most(1)), final_k);
}

TEST(Dendrogram, OutOfRangeCutThrows) {
  const auto g = testing::small_planted(13);
  const auto d = build_dendrogram(g);
  EXPECT_THROW(d.cut(d.num_levels() + 1), Error);
  EXPECT_THROW(d.level(d.num_levels()), Error);
}

TEST(BlockCollectives, TreeReductionChargesLogRounds) {
  gpusim::MemoryStats stats;
  EXPECT_EQ(gpusim::block::charge_tree_reduction(1, stats), 0);
  EXPECT_EQ(stats.shared_reads, 0u);
  EXPECT_EQ(gpusim::block::charge_tree_reduction(256, stats), 8);
  EXPECT_GT(stats.shared_reads, 256u);
}

TEST(BlockCollectives, ArgmaxAndSumAreCorrect) {
  gpusim::MemoryStats stats;
  const std::vector<double> values = {1.0, 5.0, 3.0, 5.0};
  EXPECT_EQ(gpusim::block::reduce_argmax<double>(values, stats), 1u);  // tie -> lower index
  EXPECT_DOUBLE_EQ(gpusim::block::reduce_add<double>(values, stats), 14.0);
  const auto scan = gpusim::block::exclusive_scan<double>(values, stats);
  EXPECT_EQ(scan, (std::vector<double>{0.0, 1.0, 6.0, 9.0}));
}

}  // namespace
}  // namespace gala::core
