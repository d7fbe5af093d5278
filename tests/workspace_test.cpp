// gala::exec Workspace/ExecutionContext: pooled-checkout semantics, epoch
// invalidation, determinism of the pooled engine against fresh allocation,
// and the zero-steady-state-allocation property of the BSP hot loop.
#include "gala/exec/workspace.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "gala/common/thread_pool.hpp"
#include "gala/core/backend.hpp"
#include "gala/core/bsp_louvain.hpp"
#include "gala/core/gala.hpp"
#include "gala/exec/context.hpp"
#include "gala/graph/generators.hpp"
#include "test_util.hpp"

namespace gala::exec {
namespace {

// ---- checkout / return ------------------------------------------------------

TEST(Workspace, CheckoutRoundTrip) {
  Workspace ws;
  {
    auto lease = ws.take<std::uint32_t>(100, "test.a");
    ASSERT_TRUE(lease);
    EXPECT_EQ(lease.size(), 100u);
    EXPECT_GE(lease.capacity(), 100u);
    for (std::size_t i = 0; i < lease.size(); ++i) lease[i] = static_cast<std::uint32_t>(i);
    EXPECT_EQ(lease.span()[99], 99u);
    const auto s = ws.stats();
    EXPECT_EQ(s.checkouts, 1u);
    EXPECT_EQ(s.heap_allocs, 1u);
    EXPECT_GT(s.outstanding_bytes, 0u);
  }
  const auto s = ws.stats();
  EXPECT_EQ(s.outstanding_bytes, 0u);
  EXPECT_GT(s.pooled_bytes, 0u);  // the slab went back to the pool
}

TEST(Workspace, ReuseServesFromPoolWithTagAffinity) {
  Workspace ws;
  {
    auto a = ws.take<double>(64, "test.a");
    auto b = ws.take<double>(64, "test.b");  // both live: two distinct slabs
  }
  // Same class, matching tag: must pick the "test.a" slab even though
  // "test.b" was returned more recently.
  auto lease = ws.take<double>(64, "test.a");
  EXPECT_TRUE(lease.recycled_same_tag());
  const auto s = ws.stats();
  EXPECT_EQ(s.heap_allocs, 2u);
  EXPECT_EQ(s.reuse_hits, 1u);
  EXPECT_EQ(s.tag_hits, 1u);
}

TEST(Workspace, SizeClassesArePowersOfTwoAndBestFit) {
  Workspace ws;
  {
    auto lease = ws.take<std::byte>(100, "test.a");  // class 128
    EXPECT_EQ(lease.capacity(), 128u);
  }
  {
    // 64-byte request: its own (empty) class, so best-fit takes the pooled
    // 128-byte slab rather than heap-allocating.
    auto lease = ws.take<std::byte>(33, "test.a");
    EXPECT_EQ(lease.capacity(), 128u);
    EXPECT_TRUE(lease.recycled_same_tag());
  }
  EXPECT_EQ(ws.stats().heap_allocs, 1u);
}

TEST(Workspace, DirtyReuseKeepsSameTagBytesZeroClears) {
  Workspace ws;
  {
    auto lease = ws.take<std::uint8_t>(64, "test.a");
    std::memset(lease.data(), 0xAB, 64);
  }
  {
    auto lease = ws.take<std::uint8_t>(64, "test.a", Fill::Dirty);
    ASSERT_TRUE(lease.recycled_same_tag());
    EXPECT_EQ(lease[0], 0xAB);  // dirty checkout: previous holder's bytes
    EXPECT_EQ(lease[63], 0xAB);
  }
  {
    auto lease = ws.take<std::uint8_t>(64, "test.a", Fill::Zero);
    EXPECT_EQ(lease[0], 0u);
    EXPECT_EQ(lease[63], 0u);
  }
}

// ---- epoch invalidation -----------------------------------------------------

TEST(Workspace, ResetLevelTrapsStaleLeases) {
  Workspace ws;
  auto lease = ws.take<int>(16, "test.a");
  EXPECT_NO_THROW(lease.span());
  ws.reset_level();
  EXPECT_THROW(lease.span(), gala::Error);  // use-after-reset, always-on trap
  lease.release();                          // tolerated, but counted
  EXPECT_EQ(ws.stats().stale_releases, 1u);
  EXPECT_EQ(ws.stats().levels, 1u);
}

TEST(Workspace, ResetLevelRecordsLevelPeak) {
  Workspace ws;
  ws.take<std::byte>(1024, "test.a").release();
  EXPECT_GE(ws.stats().level_peak_bytes, 1024u);
  ws.reset_level();
  // New epoch starts from current outstanding (zero here).
  EXPECT_EQ(ws.stats().level_peak_bytes, 0u);
}

// ---- pooling off ------------------------------------------------------------

TEST(Workspace, PoolingOffAllocatesEveryCheckout) {
  Workspace ws(/*pooling=*/false);
  ws.take<double>(64, "test.a").release();
  ws.take<double>(64, "test.a").release();
  const auto s = ws.stats();
  EXPECT_EQ(s.heap_allocs, 2u);
  EXPECT_EQ(s.reuse_hits, 0u);
  EXPECT_EQ(s.pooled_bytes, 0u);  // returns free instead of pooling
  EXPECT_EQ(s.outstanding_bytes, 0u);
}

TEST(Workspace, TrimFreesIdleSlabs) {
  Workspace ws;
  ws.take<std::byte>(4096, "test.a").release();
  EXPECT_GT(ws.stats().pooled_bytes, 0u);
  EXPECT_GE(ws.trim(), 4096u);
  EXPECT_EQ(ws.stats().pooled_bytes, 0u);
}

// ---- PooledVec --------------------------------------------------------------

TEST(PooledVec, GrowPreservesContentsClearKeepsCapacity) {
  Workspace ws;
  PooledVec<std::uint32_t> vec(ws, "test.vec");
  for (std::uint32_t i = 0; i < 100; ++i) vec.push_back(i);
  ASSERT_EQ(vec.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(vec[i], i);

  const auto allocs_after_fill = ws.stats().heap_allocs;
  const std::size_t cap = vec.capacity();
  vec.clear();
  EXPECT_EQ(vec.size(), 0u);
  EXPECT_EQ(vec.capacity(), cap);
  for (std::uint32_t i = 0; i < 100; ++i) vec.push_back(i + 7);
  EXPECT_EQ(vec[99], 106u);
  // Refilling within capacity touches neither the pool nor the heap.
  EXPECT_EQ(ws.stats().heap_allocs, allocs_after_fill);
}

// ---- engine integration -----------------------------------------------------

// Regression for the old `thread_local std::vector<HashBucket>` scratch: a
// run must leave nothing checked out, and all idle memory must be owned by
// the (trimmable) pool — not pinned to pool threads.
TEST(WorkspaceEngine, ScratchReturnedAfterRun) {
  const auto g = testing::small_planted();
  ExecutionContext ctx;
  core::BspConfig cfg;
  cfg.context = &ctx;
  cfg.parallel = true;  // exercise checkout from pool worker threads
  const auto result = core::bsp_phase1(g, cfg);
  EXPECT_GT(result.modularity, 0.0);

  const auto s = ctx.workspace().stats();
  EXPECT_GT(s.checkouts, 0u);
  EXPECT_EQ(s.outstanding_bytes, 0u);  // every lease returned with the engine
  EXPECT_GT(s.pooled_bytes, 0u);
  EXPECT_GT(ctx.workspace().trim(), 0u);  // the pool owns it all, reclaimable
  EXPECT_EQ(ctx.workspace().stats().pooled_bytes, 0u);
}

// Acceptance: with pooling on, the BSP move loop performs zero heap
// allocations after the first iteration of a level (iteration 0 sizes the
// working set; Relaxed pruning activates everything there, so later
// iterations' demand is a subset).
TEST(WorkspaceEngine, SteadyStateIterationsAllocateNothing) {
  const auto g = testing::small_planted(11, 500, 8, 0.3);
  ExecutionContext ctx;
  core::BspConfig cfg;
  cfg.context = &ctx;
  cfg.parallel = false;
  cfg.pruning = core::PruningStrategy::Relaxed;
  const auto result = core::bsp_phase1(g, cfg);
  ASSERT_GE(result.iterations.size(), 2u) << "graph converged too fast to test steady state";
  EXPECT_GT(result.iterations[0].ws_allocs, 0u);
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_EQ(result.iterations[i].ws_allocs, 0u) << "iteration " << i << " hit the heap";
  }
  EXPECT_GT(result.workspace.reuse_rate(), 0.5);
}

// A launch chunk holds its kernel scratch — the BSP hash scratch, the blas
// gather's SPA — for every block it runs, as it holds its arena. So an
// iteration checks out at most (chunks per launch) × (slabs per chunk) per
// launch, however many hash-kernel vertices or 128-row blocks it runs.
TEST(WorkspaceEngine, CheckoutsPerIterationBoundedByChunksNotBlocks) {
  graph::PlantedPartitionParams p;
  p.num_vertices = 20000;
  p.num_communities = 50;
  p.avg_degree = 40;
  p.mixing = 0.3;
  p.seed = 9;
  const auto g = graph::planted_partition(p);
  vid_t hash_vertices = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) hash_vertices += g.out_degree(v) >= 32 ? 1 : 0;
  const std::uint64_t blocks = (g.num_vertices() + 127) / 128;

  ThreadPool pool(4);
  // ThreadPool splits a call into at most 4 chunks per thread.
  const std::uint64_t chunks = 4 * pool.size();
  // Per chunk: the arena, plus the kernel scratch's slabs. BSP runs two
  // decide launches, each chunk's hash scratch taken once and regrown at
  // most twice on these degrees; blas runs a gather (three SPA slabs) and
  // the weight update's two launches (arena only).
  const std::uint64_t bsp_bound = 2 * chunks * (1 + 3);
  const std::uint64_t blas_bound = chunks * (1 + 3) + 2 * chunks;
  constexpr std::uint64_t kDriverSlack = 16;  // the run's own arrays, list growth
  ASSERT_GT(hash_vertices, 10 * bsp_bound) << "too few hash-kernel vertices to tell";
  ASSERT_GT(3 * blocks, 2 * blas_bound) << "too few gather blocks to tell";

  for (const core::Backend backend : {core::Backend::Bsp, core::Backend::Blas}) {
    SCOPED_TRACE(core::to_string(backend));
    ExecutionContext ctx({}, 7, /*pooling=*/true, &pool);
    core::BspConfig cfg;
    cfg.context = &ctx;
    cfg.parallel = true;
    std::vector<std::uint64_t> checkouts{ctx.workspace().stats().checkouts};
    cfg.on_iteration = [&](int, const core::IterationStats&, std::span<const std::uint8_t>,
                           std::span<const std::uint8_t>, std::span<const cid_t>) {
      checkouts.push_back(ctx.workspace().stats().checkouts);
    };
    const auto result = core::make_backend(backend)->run_level(g, cfg);
    ASSERT_GE(result.iterations.size(), 2u);
    ASSERT_EQ(checkouts.size(), result.iterations.size() + 1);
    const std::uint64_t bound = backend == core::Backend::Bsp ? bsp_bound : blas_bound;
    for (std::size_t i = 1; i < checkouts.size(); ++i) {
      EXPECT_LE(checkouts[i] - checkouts[i - 1], bound + kDriverSlack)
          << "iteration " << i - 1 << " of " << result.iterations[i - 1].active
          << " active vertices";
    }
  }
}

// Multi-level pipeline: level N+1 runs entirely out of level N's slabs.
TEST(WorkspaceEngine, LaterLevelsReuseLevelOneSlabs) {
  const auto g = testing::small_planted();
  const auto result = core::run_louvain(g);
  ASSERT_GE(result.levels.size(), 2u);
  EXPECT_GE(result.workspace.levels, 1u);
  EXPECT_GT(result.workspace.reuse_rate(), 0.5);
  EXPECT_EQ(result.workspace.outstanding_bytes, 0u);
}

// ---- determinism: pooled == fresh-allocation --------------------------------

core::Phase1Result run_engine(const graph::Graph& g, core::PruningStrategy pruning,
                              core::HashTablePolicy policy, bool pooling) {
  ExecutionContext ctx({}, /*seed=*/7, pooling);
  core::BspConfig cfg;
  cfg.context = &ctx;
  cfg.parallel = false;
  cfg.pruning = pruning;
  cfg.hashtable = policy;
  return core::bsp_phase1(g, cfg);
}

TEST(WorkspaceDeterminism, PoolingOnOffBitIdenticalAcrossConfigs) {
  const auto g = testing::small_planted(13, 300, 6, 0.25);
  const core::PruningStrategy prunings[] = {
      core::PruningStrategy::Strict, core::PruningStrategy::Relaxed,
      core::PruningStrategy::Probabilistic, core::PruningStrategy::ModularityGain};
  const core::HashTablePolicy policies[] = {core::HashTablePolicy::GlobalOnly,
                                            core::HashTablePolicy::Unified,
                                            core::HashTablePolicy::Hierarchical};
  for (const auto pruning : prunings) {
    for (const auto policy : policies) {
      const auto pooled = run_engine(g, pruning, policy, /*pooling=*/true);
      const auto fresh = run_engine(g, pruning, policy, /*pooling=*/false);
      SCOPED_TRACE(core::to_string(pruning) + " / " + core::to_string(policy));
      EXPECT_EQ(pooled.community, fresh.community);  // bit-identical partition
      EXPECT_EQ(pooled.modularity, fresh.modularity);
      EXPECT_EQ(pooled.iterations.size(), fresh.iterations.size());
      EXPECT_EQ(pooled.total_traffic.global_reads, fresh.total_traffic.global_reads);
      EXPECT_EQ(pooled.total_traffic.shared_reads, fresh.total_traffic.shared_reads);
      // Pooling-off must not reuse anything; pooling-on must.
      EXPECT_EQ(fresh.workspace.reuse_hits, 0u);
      EXPECT_GT(pooled.workspace.reuse_hits, 0u);
    }
  }
}

TEST(WorkspaceDeterminism, FullPipelinePoolingOnOffIdentical) {
  const auto g = testing::small_planted();
  ExecutionContext pooled_ctx({}, 7, /*pooling=*/true);
  ExecutionContext fresh_ctx({}, 7, /*pooling=*/false);
  core::GalaConfig cfg;
  cfg.bsp.parallel = false;
  cfg.bsp.context = &pooled_ctx;
  const auto pooled = core::run_louvain(g, cfg);
  cfg.bsp.context = &fresh_ctx;
  const auto fresh = core::run_louvain(g, cfg);
  EXPECT_EQ(pooled.assignment, fresh.assignment);
  EXPECT_EQ(pooled.modularity, fresh.modularity);
  EXPECT_EQ(pooled.levels.size(), fresh.levels.size());
}

}  // namespace
}  // namespace gala::exec
