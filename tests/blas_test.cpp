// gala::blas primitives and the linear-algebra engine: SpGEMM contraction
// parity against the historical edge-list builder, hash/sorted accumulator
// bit-identity, governor-forced degradation, pull/push direction
// equivalence, determinism, the steady-state zero-allocation gate, and the
// masked weight update's bit parity with a full recompute.
#include <gtest/gtest.h>

#include <vector>

#include "gala/blas/blas.hpp"
#include "gala/blas/spgemm.hpp"
#include "gala/blas/spmv.hpp"
#include "gala/common/prng.hpp"
#include "gala/core/aggregation.hpp"
#include "gala/core/blas_louvain.hpp"
#include "gala/core/bsp_louvain.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/modularity.hpp"
#include "gala/exec/context.hpp"
#include "gala/scope/run_scope.hpp"
#include "test_util.hpp"

namespace gala {
namespace {

using exec::ExecutionContext;
using testing::expect_same_graph;

/// The pre-SpGEMM contraction, verbatim: emit each undirected fine edge once
/// from the u >= v side into the edge-list builder. The SpGEMM must
/// reproduce this graph bit-for-bit on exact-weight inputs.
graph::Graph legacy_contract(const graph::Graph& g, std::span<const cid_t> fine_to_coarse,
                             vid_t num_coarse) {
  graph::GraphBuilder builder(num_coarse);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const cid_t cv = fine_to_coarse[v];
    auto nbrs = g.neighbors(v);
    auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vid_t u = nbrs[i];
      if (u < v) continue;
      builder.add_edge(cv, fine_to_coarse[u], ws[i]);
    }
  }
  return builder.build();
}

/// A dense community map with a mix of singletons, merged pairs, and one
/// large community — deterministic in n.
std::vector<cid_t> mixed_partition(vid_t n, vid_t num_coarse) {
  std::vector<cid_t> fc(n);
  for (vid_t v = 0; v < n; ++v) fc[v] = (v * 7 + 3) % num_coarse;
  return fc;
}

TEST(BlasSpgemm, ContractMatchesLegacyBuilderBitExact) {
  for (const auto& g :
       {testing::two_triangles(), testing::small_planted(5, 300, 6, 0.2)}) {
    const vid_t num_coarse = std::max<vid_t>(2, g.num_vertices() / 7);
    const auto fc = mixed_partition(g.num_vertices(), num_coarse);
    const graph::Graph reference = legacy_contract(g, fc, num_coarse);
    for (const blas::Accumulator acc : {blas::Accumulator::Hash, blas::Accumulator::Sorted}) {
      blas::Tuning tuning;
      tuning.accumulator = acc;
      blas::SpgemmStats stats;
      const graph::Graph coarse =
          blas::contract_csr(g, fc, num_coarse, nullptr, tuning, &stats);
      SCOPED_TRACE(blas::to_string(acc));
      expect_same_graph(reference, coarse);
      EXPECT_EQ(stats.accumulator, acc);
      EXPECT_FALSE(stats.governor_forced);
      EXPECT_EQ(stats.nnz, coarse.num_adjacency());
      EXPECT_GT(stats.flops, 0u);
    }
  }
}

TEST(BlasSpgemm, WorkspaceAndHeapScratchAgree) {
  const auto g = testing::small_planted(9, 250, 5, 0.25);
  const auto fc = mixed_partition(g.num_vertices(), 31);
  ExecutionContext ctx;
  const graph::Graph pooled = blas::contract_csr(g, fc, 31, &ctx.workspace());
  const graph::Graph heap = blas::contract_csr(g, fc, 31, nullptr);
  expect_same_graph(pooled, heap);
  EXPECT_EQ(ctx.workspace().stats().outstanding_bytes, 0u);
}

TEST(BlasSpgemm, ModularityInvariantUnderContraction) {
  const auto g = testing::small_planted(7, 280, 7, 0.2);
  core::BspConfig cfg;
  cfg.parallel = false;
  const auto phase1 = core::bsp_phase1(g, cfg);
  const auto agg = core::aggregate(g, phase1.community);
  // Q of the contracted graph under singleton assignment equals Q of the
  // fine graph under the phase-1 partition (the §2.2 invariant the
  // historical builder was pinned by).
  std::vector<cid_t> singletons(agg.coarse.num_vertices());
  for (vid_t v = 0; v < agg.coarse.num_vertices(); ++v) singletons[v] = v;
  EXPECT_NEAR(core::modularity(agg.coarse, singletons),
              core::modularity(g, phase1.community), 1e-12);
}

TEST(BlasSpgemm, GovernorRungTwoForcesSortedWithIdenticalOutput) {
  const auto g = testing::small_planted(13, 260, 6, 0.25);
  const auto fc = mixed_partition(g.num_vertices(), 29);
  const graph::Graph reference = blas::contract_csr(g, fc, 29, nullptr);

  {
    RunScope scope;
    scope.governor().install({.total_bytes = 1000});
    // A transient pressure spike: admitted, then given back.
    scope.memory().release(scope.governor().admit("test.pressure", 870, /*may_throw=*/false));
    ASSERT_TRUE(scope.governor().force_sorted_accumulator());

    blas::SpgemmStats stats;
    const graph::Graph coarse =
        blas::contract_csr(g, fc, 29, nullptr, blas::Tuning{}, &stats);
    EXPECT_EQ(stats.accumulator, blas::Accumulator::Sorted);
    EXPECT_TRUE(stats.governor_forced);
    expect_same_graph(reference, coarse);
  }
}

TEST(BlasEngine, MatchesBspTrajectoryOnPlantedGraph) {
  const auto g = testing::small_planted(5, 400, 8, 0.15);
  core::BspConfig cfg;
  cfg.parallel = false;
  const auto bsp = core::bsp_phase1(g, cfg);
  const auto blas_result = core::blas_phase1(g, cfg);
  ASSERT_EQ(bsp.community.size(), blas_result.community.size());
  EXPECT_EQ(bsp.community, blas_result.community);
  EXPECT_EQ(bsp.num_communities, blas_result.num_communities);
  EXPECT_NEAR(bsp.modularity, blas_result.modularity, 1e-12);
  EXPECT_EQ(bsp.iterations.size(), blas_result.iterations.size());
}

TEST(BlasEngine, PullAndPushDirectionsAgree) {
  const auto g = testing::small_planted(8, 350, 7, 0.2);
  core::BspConfig cfg;
  cfg.parallel = false;
  blas::Tuning pull;
  pull.pull_threshold = 0.0;  // density >= 0 always: pure pull
  blas::Tuning push;
  push.pull_threshold = 1.1;  // density can never reach it: pure push
  core::BlasPhase1Stats pull_stats;
  core::BlasPhase1Stats push_stats;
  const auto a = core::blas_phase1(g, cfg, pull, &pull_stats);
  const auto b = core::blas_phase1(g, cfg, push, &push_stats);
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.modularity, b.modularity);
  EXPECT_EQ(pull_stats.push_iterations, 0);
  EXPECT_EQ(push_stats.pull_iterations, 0);
  EXPECT_EQ(pull_stats.gathered_rows, push_stats.gathered_rows);
}

TEST(BlasEngine, ParallelMatchesSequential) {
  const auto g = testing::small_planted(6, 320, 8, 0.2);
  core::BspConfig seq;
  seq.parallel = false;
  core::BspConfig par;
  par.parallel = true;
  const auto a = core::blas_phase1(g, seq);
  const auto b = core::blas_phase1(g, par);
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.modularity, b.modularity);
}

TEST(BlasEngine, SteadyStateIterationsAllocateNothing) {
  const auto g = testing::small_planted(11, 500, 8, 0.3);
  for (const double threshold : {0.0, 1.1}) {  // pure pull, then pure push
    ExecutionContext ctx;
    core::BspConfig cfg;
    cfg.context = &ctx;
    cfg.parallel = false;
    cfg.pruning = core::PruningStrategy::Relaxed;
    blas::Tuning tuning;
    tuning.pull_threshold = threshold;
    const auto result = core::blas_phase1(g, cfg, tuning);
    SCOPED_TRACE(threshold);
    ASSERT_GE(result.iterations.size(), 2u) << "graph converged too fast to test steady state";
    EXPECT_GT(result.iterations[0].ws_allocs, 0u);
    for (std::size_t i = 1; i < result.iterations.size(); ++i) {
      EXPECT_EQ(result.iterations[i].ws_allocs, 0u) << "iteration " << i << " hit the heap";
    }
    EXPECT_GT(result.workspace.reuse_rate(), 0.5);
  }
}

TEST(BlasEngine, FullPipelineRunsAndIsDeterministic) {
  const auto g = testing::small_planted(4, 380, 8, 0.2);
  core::GalaConfig cfg;
  cfg.backend = core::Backend::Blas;
  cfg.bsp.parallel = false;
  const auto a = core::run_louvain(g, cfg);
  const auto b = core::run_louvain(g, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.modularity, b.modularity);
  EXPECT_GT(a.modularity, 0.4);
  EXPECT_GE(a.levels.size(), 1u);

  core::GalaConfig bsp_cfg = cfg;
  bsp_cfg.backend = core::Backend::Bsp;
  const auto c = core::run_louvain(g, bsp_cfg);
  EXPECT_EQ(a.assignment, c.assignment);
  EXPECT_NEAR(a.modularity, c.modularity, 1e-12);
}

/// small_planted's topology with real weights in [0.5, 2.5): every sum then
/// depends on its order, so bit parity pins the summation order too.
graph::Graph real_weighted_planted(std::uint64_t seed) {
  const auto g = testing::small_planted(seed, 600, 10, 0.25);
  Xoshiro256 rng(seed);
  graph::GraphBuilder builder(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (const vid_t u : g.neighbors(v)) {
      if (u > v) builder.add_edge(v, u, 0.5 + 2 * rng.next_double());
    }
  }
  return builder.build();
}

/// Every iteration's modularity and post-iteration assignment.
struct Trajectory {
  std::vector<wt_t> modularity;
  std::vector<std::vector<cid_t>> community;
};

core::Phase1Result run_blas(const graph::Graph& g, core::WeightUpdateMode mode, bool parallel,
                            Trajectory* trajectory, core::BlasPhase1Stats* stats = nullptr) {
  core::BspConfig cfg;
  cfg.weight_update = mode;
  cfg.parallel = parallel;
  cfg.on_iteration = [trajectory](int, const core::IterationStats& it,
                                  std::span<const std::uint8_t>, std::span<const std::uint8_t>,
                                  std::span<const cid_t> comm) {
    trajectory->modularity.push_back(it.modularity);
    trajectory->community.emplace_back(comm.begin(), comm.end());
  };
  return core::blas_phase1(g, cfg, {}, stats);
}

TEST(BlasWeightUpdate, MaskedDotEqualsTheGatheredColumn) {
  // The dot sums one column from 0; the SPA starts it at its first term.
  // On positive weights both are the same value bit for bit, and rows the
  // mask leaves out keep what they held.
  const auto g = real_weighted_planted(3);
  const vid_t n = g.num_vertices();
  std::vector<cid_t> comm(n);
  for (vid_t v = 0; v < n; ++v) comm[v] = (v * 13) % 17;
  std::vector<std::uint8_t> all(n, 1);
  std::vector<std::uint8_t> odd(n);
  for (vid_t v = 0; v < n; ++v) odd[v] = v % 2;

  ExecutionContext ctx;
  ThreadPool serial(1);
  std::vector<wt_t> gathered(n, -1);
  blas::masked_gather(
      g, comm, all, {}, blas::Direction::Pull, ctx.device(), serial,
      [&](vid_t v, std::span<const cid_t> touched, const wt_t* vals, gpusim::MemoryStats&) {
        gathered[v] = 0;
        for (const cid_t c : touched) {
          if (c == comm[v]) gathered[v] = vals[c];
        }
      },
      "test_gather");
  std::vector<wt_t> dot(n, -1);
  const auto stats = blas::masked_dot(g, comm, odd, dot, ctx.device(), ThreadPool::global(),
                                      "test_dot");
  EXPECT_EQ(stats.rows, n / 2);
  for (vid_t v = 0; v < n; ++v) {
    EXPECT_EQ(dot[v], odd[v] ? gathered[v] : -1) << "row " << v;
  }
}

TEST(BlasWeightUpdate, DeltaMatchesRecomputeBitForBit) {
  for (const bool real_weights : {false, true}) {
    const auto g = real_weights ? real_weighted_planted(7) : testing::small_planted(7, 600, 10, 0.2);
    for (const bool parallel : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "real_weights " << real_weights << " parallel "
                                        << parallel);
      Trajectory delta;
      Trajectory recompute;
      const auto a = run_blas(g, core::WeightUpdateMode::Delta, parallel, &delta);
      const auto b = run_blas(g, core::WeightUpdateMode::Recompute, parallel, &recompute);
      ASSERT_GE(delta.modularity.size(), 3u);
      EXPECT_EQ(delta.modularity, recompute.modularity);
      EXPECT_EQ(delta.community, recompute.community);
      EXPECT_EQ(a.community, b.community);
      EXPECT_EQ(a.modularity, b.modularity);
    }
  }
}

TEST(BlasWeightUpdate, DeltaRecomputesOnlyTheRecipientRows) {
  const auto g = testing::small_planted(5, 2000, 20, 0.2);
  const std::uint64_t n = g.num_vertices();
  Trajectory delta;
  Trajectory recompute;
  core::BlasPhase1Stats delta_stats;
  core::BlasPhase1Stats recompute_stats;
  const auto a = run_blas(g, core::WeightUpdateMode::Delta, true, &delta, &delta_stats);
  const auto b = run_blas(g, core::WeightUpdateMode::Recompute, true, &recompute, &recompute_stats);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  const std::uint64_t full = n * a.iterations.size();
  EXPECT_EQ(recompute_stats.updated_rows, full);
  EXPECT_GT(delta_stats.updated_rows, 0u);
  EXPECT_LT(delta_stats.updated_rows, full);
  EXPECT_EQ(delta.modularity, recompute.modularity);
}

}  // namespace
}  // namespace gala
