// BSP vs blas backend parity over the full stand-in suite (the CI
// backend-parity job runs exactly this binary), and the distributed engine
// against both on warm starts.
//
// The two engines share the phase-1 driver (pruning, move guard, oracle
// pass, bookkeeping, convergence test) and the SpGEMM contraction, and both
// accumulate per-community weights in adjacency encounter order — so on the
// integer-weight stand-ins their trajectories are bit-identical: same
// assignment, same modularity, iteration for iteration.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gala/core/blas_louvain.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/incremental.hpp"
#include "gala/graph/generators.hpp"
#include "gala/graph/standin.hpp"
#include "gala/multigpu/dist_louvain.hpp"
#include "test_util.hpp"

namespace gala {
namespace {

constexpr double kScale = 0.05;

/// One phase-1 iteration as seen through BspConfig::on_iteration.
struct IterationRecord {
  int iteration = 0;
  core::IterationStats stats;
  std::vector<cid_t> community;
};

/// Points `cfg.on_iteration` at `log` (every level of the pipeline appends).
void record_iterations(core::BspConfig& cfg, std::vector<IterationRecord>& log) {
  log.clear();
  cfg.on_iteration = [&log](int iter, const core::IterationStats& stats, auto, auto,
                            std::span<const cid_t> community) {
    log.push_back({iter, stats, {community.begin(), community.end()}});
  };
}

class BackendParity : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendParity, BlasMatchesBspOnStandIn) {
  const graph::Graph g = graph::make_standin(GetParam(), kScale);

  core::GalaConfig cfg;
  cfg.bsp.parallel = false;
  cfg.backend = core::Backend::Bsp;
  std::vector<IterationRecord> bsp_iters;
  record_iterations(cfg.bsp, bsp_iters);
  const core::GalaResult bsp = core::run_louvain(g, cfg);

  cfg.backend = core::Backend::Blas;
  std::vector<IterationRecord> blas_iters;
  record_iterations(cfg.bsp, blas_iters);
  const core::GalaResult blas1 = core::run_louvain(g, cfg);
  cfg.bsp.on_iteration = nullptr;
  const core::GalaResult blas2 = core::run_louvain(g, cfg);

  // Per-iteration parity across every level: the same trajectory, not just
  // the same level summaries.
  ASSERT_EQ(bsp_iters.size(), blas_iters.size());
  for (std::size_t i = 0; i < bsp_iters.size(); ++i) {
    const IterationRecord& a = bsp_iters[i];
    const IterationRecord& b = blas_iters[i];
    EXPECT_EQ(a.iteration, b.iteration) << "record " << i;
    EXPECT_EQ(a.stats.active, b.stats.active) << "record " << i;
    EXPECT_EQ(a.stats.moved, b.stats.moved) << "record " << i;
    EXPECT_EQ(a.stats.modularity, b.stats.modularity) << "record " << i;
    EXPECT_EQ(a.stats.delta_q, b.stats.delta_q) << "record " << i;
    EXPECT_EQ(a.community, b.community) << "record " << i;
  }

  // Determinism of the blas backend across runs.
  EXPECT_EQ(blas1.assignment, blas2.assignment);
  EXPECT_EQ(blas1.modularity, blas2.modularity);

  // Cross-backend parity: identical hierarchy on exact-weight graphs.
  EXPECT_EQ(bsp.assignment, blas1.assignment);
  EXPECT_EQ(bsp.num_communities, blas1.num_communities);
  EXPECT_NEAR(bsp.modularity, blas1.modularity, 1e-9);
  ASSERT_EQ(bsp.levels.size(), blas1.levels.size());
  for (std::size_t i = 0; i < bsp.levels.size(); ++i) {
    EXPECT_EQ(bsp.levels[i].communities, blas1.levels[i].communities) << "level " << i;
    EXPECT_EQ(bsp.levels[i].iterations, blas1.levels[i].iterations) << "level " << i;
    EXPECT_NEAR(bsp.levels[i].modularity, blas1.levels[i].modularity, 1e-9) << "level " << i;
  }
  EXPECT_GT(blas1.modularity, 0.2);
}

TEST_P(BackendParity, BlasCompletesUnderParallelExecution) {
  const graph::Graph g = graph::make_standin(GetParam(), kScale);
  core::GalaConfig cfg;
  cfg.backend = core::Backend::Blas;
  cfg.bsp.parallel = true;
  const core::GalaResult result = core::run_louvain(g, cfg);
  EXPECT_GT(result.modularity, 0.2);
  EXPECT_GT(result.num_communities, 0u);
  EXPECT_EQ(result.workspace.outstanding_bytes, 0u);
}

// The oracle pass belongs to the shared driver, so confusion tracking works
// on the blas backend too and counts exactly what the BSP engine counts.
TEST(BackendParity, ConfusionMatrixMatchesBsp) {
  const graph::Graph g = graph::make_standin("LJ", kScale);
  core::BspConfig cfg;
  cfg.parallel = false;
  cfg.track_confusion = true;
  const core::Phase1Result bsp = core::bsp_phase1(g, cfg);
  const core::Phase1Result blas = core::blas_phase1(g, cfg);

  ASSERT_EQ(bsp.iterations.size(), blas.iterations.size());
  vid_t pruned = 0;
  for (std::size_t i = 0; i < bsp.iterations.size(); ++i) {
    const core::IterationStats& a = bsp.iterations[i];
    const core::IterationStats& b = blas.iterations[i];
    EXPECT_EQ(a.tp, b.tp) << "iteration " << i;
    EXPECT_EQ(a.fp, b.fp) << "iteration " << i;
    EXPECT_EQ(a.tn, b.tn) << "iteration " << i;
    EXPECT_EQ(a.fn, b.fn) << "iteration " << i;
    EXPECT_EQ(a.tp + a.fp + a.tn + a.fn, g.num_vertices()) << "iteration " << i;
    pruned += a.tn + a.fn;
  }
  EXPECT_GT(pruned, 0u);  // the oracle actually evaluated pruned vertices
}

// The repair's warm-started pipeline keeps the two engines on one trajectory
// whether its level 0 is kept or rejected (a rejected level folds the warm
// start on both, and the deeper levels go on from its contraction).
TEST(BackendParity, WarmStartMatchesBspWhetherLevelZeroIsKeptOrRejected) {
  // The repair sweep of Incremental.RepairNeverReturnsLessThanThePartitionItWasGiven,
  // on bsp, blas and three distributed devices (overlapped, compressed).
  multigpu::Exchange exchange;
  exchange.num_gpus = 3;
  exchange.overlap = true;
  exchange.compress = true;
  multigpu::DistributedBackend distributed(exchange);
  int kept = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    graph::RmatParams params;
    params.scale = 9;
    params.seed = seed;
    graph::Graph g = graph::rmat(params);
    std::vector<cid_t> warm = core::run_louvain(g).assignment;
    Xoshiro256 rng(seed);
    for (int epoch = 0; epoch < 4; ++epoch) {
      g = core::apply_edge_updates(g, testing::random_insertions(g.num_vertices(), 50, rng));
      core::GalaConfig cfg;
      cfg.bsp.parallel = false;
      cfg.keep_first_round = true;
      core::GalaResult bsp = core::run_louvain(g, cfg, warm);
      const core::GalaResult dist = core::run_louvain(g, cfg, distributed, warm);
      cfg.backend = core::Backend::Blas;
      const core::GalaResult blas = core::run_louvain(g, cfg, warm);

      const std::string at = "seed " + std::to_string(seed) + " epoch " + std::to_string(epoch);
      const core::Phase1Result& round = bsp.first_round;
      ++(round.modularity < round.start_modularity ? rejected : kept);
      for (const auto& [name, other] :
           {std::pair{"blas", &blas}, std::pair{"distributed", &dist}}) {
        EXPECT_EQ(bsp.first_round.community, other->first_round.community) << at << " " << name;
        EXPECT_EQ(bsp.first_round.start_modularity, other->first_round.start_modularity)
            << at << " " << name;
        EXPECT_EQ(bsp.assignment, other->assignment) << at << " " << name;
        EXPECT_NEAR(bsp.modularity, other->modularity, 1e-9) << at << " " << name;
        ASSERT_EQ(bsp.levels.size(), other->levels.size()) << at << " " << name;
        for (std::size_t i = 0; i < bsp.levels.size(); ++i) {
          EXPECT_EQ(bsp.levels[i].iterations, other->levels[i].iterations)
              << at << " " << name << " level " << i;
          EXPECT_EQ(bsp.levels[i].communities, other->levels[i].communities)
              << at << " " << name << " level " << i;
        }
      }
      warm = std::move(bsp.assignment);
    }
  }
  EXPECT_GT(kept, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(StandInSuite, BackendParity,
                         ::testing::ValuesIn(graph::standin_abbrs()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace gala
