// Pruning strategies (§3): the MG zero-false-negative guarantee (Theorem 6)
// as an executable property, the relative behaviour of SM/RM/PM, and the
// compute_active plumbing.
#include "gala/core/pruning.hpp"

#include <gtest/gtest.h>

#include "gala/core/bsp_louvain.hpp"
#include "gala/metrics/confusion.hpp"
#include "test_util.hpp"

namespace gala::core {
namespace {

metrics::ConfusionSummary run_confusion(const graph::Graph& g, PruningStrategy strategy,
                                        std::uint64_t seed = 7) {
  BspConfig cfg;
  cfg.pruning = strategy;
  cfg.track_confusion = true;
  cfg.seed = seed;
  const auto result = bsp_phase1(g, cfg);
  return metrics::summarize_confusion(result.iterations);
}

class ZeroFalseNegatives
    : public ::testing::TestWithParam<std::tuple<PruningStrategy, std::uint64_t>> {};

TEST_P(ZeroFalseNegatives, TheoremHoldsOnRandomGraphs) {
  // Theorem 6 (MG) and Lemma 3 (SM): across every iteration of phase 1, no
  // vertex classified inactive would have moved.
  const auto [strategy, seed] = GetParam();
  const auto g = testing::small_planted(seed, 600, 12, 0.25);
  const auto summary = run_confusion(g, strategy, seed);
  EXPECT_EQ(summary.fn, 0u);
  EXPECT_GT(summary.tn, 0u) << "strategy should prune something";
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSeeds, ZeroFalseNegatives,
    ::testing::Combine(::testing::Values(PruningStrategy::Strict,
                                         PruningStrategy::ModularityGain),
                       ::testing::Values(1, 2, 3, 4, 5)));

TEST(Pruning, MgPrunesMoreThanStrict) {
  const auto g = testing::small_planted(11, 800, 16, 0.2);
  const auto sm = run_confusion(g, PruningStrategy::Strict);
  const auto mg = run_confusion(g, PruningStrategy::ModularityGain);
  // Lower FPR == more of the truly-unmoved vertices pruned.
  EXPECT_LT(mg.fpr(), sm.fpr());
}

TEST(Pruning, RelaxedCanMissMoves) {
  // RM admits false negatives in principle; across several seeds it should
  // never *increase* quality beyond MG and usually shows fn > 0 somewhere.
  std::uint64_t total_fn = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    const auto g = testing::small_planted(seed, 500, 10, 0.3);
    total_fn += run_confusion(g, PruningStrategy::Relaxed, seed).fn;
  }
  EXPECT_GT(total_fn, 0u) << "expected at least one RM false negative across seeds";
}

TEST(Pruning, MgPlusRelaxedPrunesAtLeastAsMuchAsEither) {
  const auto g = testing::small_planted(13, 600, 12, 0.25);
  const auto mg = run_confusion(g, PruningStrategy::ModularityGain);
  const auto combo = run_confusion(g, PruningStrategy::MgPlusRelaxed);
  // The union of inactive sets can only shrink the active set.
  EXPECT_LE(combo.fp + combo.tp, mg.fp + mg.tp);
}

TEST(Pruning, ProbabilisticPrunesRoughlyAlphaOfUnmoved) {
  const auto g = testing::small_planted(17, 2000, 20, 0.2);
  BspConfig cfg;
  cfg.pruning = PruningStrategy::Probabilistic;
  cfg.pm_alpha = 0.25;
  cfg.track_confusion = true;
  const auto result = bsp_phase1(g, cfg);
  const auto summary = metrics::summarize_confusion(result.iterations);
  // FPR should approach 1 - alpha (each unmoved vertex survives pruning
  // with probability 1 - alpha).
  EXPECT_NEAR(summary.fpr(), 0.75, 0.1);
}

TEST(Pruning, MgPredicateMatchesEquationSix) {
  // Hand-built context: one vertex, all terms chosen to sit exactly on the
  // boundary of Equation 6.
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 4.0);
  const auto g = b.build();
  std::vector<cid_t> comm = {0, 0};
  std::vector<wt_t> weight = {4.0, 4.0};  // both vertices fully internal
  std::vector<wt_t> total = {8.0, 0.0};
  std::vector<std::uint8_t> moved = {0, 0}, changed = {0, 0};
  PruningContext ctx{&g, comm, weight, total, /*min_comm_total=*/8.0, g.two_m(),
                     moved, changed, /*iteration=*/1};
  // lhs = 2*4 - 4 + (8-8)*4/8 = 4 >= 0 -> inactive.
  EXPECT_TRUE(mg_is_inactive(ctx, 0));
  // Shrink the vertex's community weight: 2*1 - 4 = -2 < 0 -> active.
  weight[0] = 1.0;
  EXPECT_FALSE(mg_is_inactive(ctx, 0));
}

TEST(Pruning, HistoryStrategiesActivateEverythingOnIterationZero) {
  const auto g = testing::two_triangles();
  std::vector<cid_t> comm = {0, 1, 2, 3, 4, 5};
  std::vector<wt_t> weight(6, 0), total(6, 2);
  std::vector<std::uint8_t> moved(6, 0), changed(6, 0);
  PruningContext ctx{&g, comm, weight, total, 2.0, g.two_m(), moved, changed, 0};
  Xoshiro256 rng(1);
  std::vector<std::uint8_t> active(6, 0);
  ThreadPool serial_pool(1);
  for (const auto strategy :
       {PruningStrategy::Strict, PruningStrategy::Relaxed, PruningStrategy::Probabilistic}) {
    compute_active(strategy, ctx, 0.25, rng, active, serial_pool);
    for (const auto a : active) EXPECT_EQ(a, 1) << to_string(strategy);
  }
}

TEST(Pruning, ComputeActiveParallelMatchesSerial) {
  const auto g = testing::small_planted(19, 1000, 10, 0.2);
  // Build a plausible mid-run context from a short engine run.
  BspConfig cfg;
  cfg.max_iterations = 3;
  const auto result = bsp_phase1(g, cfg);
  std::vector<cid_t> comm = result.community;
  std::vector<wt_t> total(g.num_vertices(), 0);
  std::vector<wt_t> weight(g.num_vertices(), 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) total[comm[v]] += g.degree(v);
  std::vector<std::uint8_t> moved(g.num_vertices(), 0), changed(g.num_vertices(), 0);
  for (vid_t v = 0; v < g.num_vertices(); v += 3) moved[v] = 1;
  for (vid_t v = 0; v < g.num_vertices(); v += 5) changed[v % 17] = 1;
  wt_t min_total = 1e300;
  for (vid_t c = 0; c < g.num_vertices(); ++c) {
    if (total[c] > 0) min_total = std::min(min_total, total[c]);
  }
  const PruningContext ctx{&g, comm, weight, total, min_total, g.two_m(), moved, changed, 2};

  ThreadPool serial_pool(1);
  for (const auto strategy :
       {PruningStrategy::Strict, PruningStrategy::Relaxed, PruningStrategy::Probabilistic,
        PruningStrategy::ModularityGain, PruningStrategy::MgPlusRelaxed}) {
    std::vector<std::uint8_t> serial(g.num_vertices()), parallel(g.num_vertices());
    Xoshiro256 r1(42), r2(42);
    compute_active(strategy, ctx, 0.25, r1, serial, serial_pool);
    compute_active(strategy, ctx, 0.25, r2, parallel, ThreadPool::global());
    EXPECT_EQ(serial, parallel) << to_string(strategy);
  }
}

TEST(Pruning, StrategyNames) {
  EXPECT_EQ(to_string(PruningStrategy::None), "none");
  EXPECT_EQ(to_string(PruningStrategy::Strict), "SM");
  EXPECT_EQ(to_string(PruningStrategy::Relaxed), "RM");
  EXPECT_EQ(to_string(PruningStrategy::Probabilistic), "PM");
  EXPECT_EQ(to_string(PruningStrategy::ModularityGain), "MG");
  EXPECT_EQ(to_string(PruningStrategy::MgPlusRelaxed), "MG+RM");
}

TEST(Pruning, MgAndStrictPreserveTheExactTrajectory) {
  // Zero false negatives implies the pruned run takes the same moves as the
  // unpruned run — communities must be identical, not just similar.
  for (const std::uint64_t seed : {2ull, 4ull, 8ull}) {
    const auto g = testing::small_planted(seed, 400, 8, 0.3);
    BspConfig none_cfg;
    none_cfg.pruning = PruningStrategy::None;
    const auto baseline = bsp_phase1(g, none_cfg);
    for (const auto strategy : {PruningStrategy::ModularityGain, PruningStrategy::Strict}) {
      BspConfig cfg;
      cfg.pruning = strategy;
      const auto pruned = bsp_phase1(g, cfg);
      EXPECT_EQ(pruned.community, baseline.community) << to_string(strategy) << " seed " << seed;
      EXPECT_DOUBLE_EQ(pruned.modularity, baseline.modularity);
    }
  }
}

}  // namespace
}  // namespace gala::core
