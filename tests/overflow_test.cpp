// Overflow paths: shared-arena exhaustion, global-scratch growth, and the
// shuffle kernel's multi-chunk spill — the resource edges the degradation
// ladder is built on. Every test exercises a *real* overflow (no fault
// injection): tiny arenas, pre-filled arenas, high-degree vertices.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gala/core/hashtables.hpp"
#include "gala/core/kernels.hpp"
#include "gala/gpusim/shared_memory.hpp"
#include "gala/scope/run_scope.hpp"
#include "test_util.hpp"

namespace gala::core {
namespace {

constexpr std::uint64_t kSalt = 0x5eedULL;

/// A hub vertex 0 with `leaves` spokes, every leaf in its own community —
/// the worst case for per-vertex table capacity and for warp chunking.
graph::Graph star(vid_t leaves) {
  graph::GraphBuilder b(leaves + 1);
  for (vid_t i = 1; i <= leaves; ++i) b.add_edge(0, i, 1.0 + 0.25 * (i % 4));
  return b.build();
}

/// Identity partition + its community totals, packaged for the kernels.
struct DecideFixture {
  graph::Graph g;
  std::vector<cid_t> comm;
  std::vector<wt_t> comm_total;

  explicit DecideFixture(graph::Graph graph) : g(std::move(graph)) {
    comm.resize(g.num_vertices());
    comm_total.resize(g.num_vertices());
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      comm[v] = v;
      comm_total[v] = g.degree(v);
    }
  }

  DecideInput input() const { return {&g, comm, comm_total, g.two_m(), 1.0}; }
};

void expect_same_decision(const Decision& a, const Decision& b) {
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  EXPECT_DOUBLE_EQ(a.curr_score, b.curr_score);
  EXPECT_DOUBLE_EQ(a.weight_to_curr, b.weight_to_curr);
}

// ---- shared arena ----------------------------------------------------------

TEST(ArenaOverflowTest, AllocateBeyondCapacityThrowsResourceExhausted) {
  gpusim::SharedMemoryArena arena(64);
  EXPECT_FALSE(arena.fits<HashBucket>(10));
  EXPECT_THROW(arena.allocate<HashBucket>(10), ResourceExhausted);
  // A failed allocation leaves the arena usable.
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_NO_THROW(arena.allocate<HashBucket>(2));
}

TEST(ArenaOverflowTest, ExhaustionMessageIsStructured) {
  gpusim::SharedMemoryArena arena(32);
  try {
    arena.allocate<HashBucket>(100);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shared memory overflow"), std::string::npos);
    EXPECT_NE(what.find("capacity 32B"), std::string::npos);
  }
}

TEST(ArenaOverflowTest, PrefilledArenaFailsTableConstruction) {
  // GlobalOnly never touches the arena, so a full arena must only break the
  // shared-placement policies.
  for (const HashTablePolicy policy : {HashTablePolicy::Hierarchical, HashTablePolicy::Unified}) {
    gpusim::SharedMemoryArena arena(8 * sizeof(HashBucket));
    arena.allocate<HashBucket>(8);  // another kernel's tables own the block
    HashScratch scratch;
    gpusim::MemoryStats stats;
    EXPECT_THROW(
        NeighborCommunityTable(policy, arena, scratch, /*capacity_hint=*/4, kSalt, stats),
        ResourceExhausted)
        << to_string(policy);
  }
  gpusim::SharedMemoryArena arena(8 * sizeof(HashBucket));
  arena.allocate<HashBucket>(8);
  HashScratch scratch;
  gpusim::MemoryStats stats;
  EXPECT_NO_THROW(
      NeighborCommunityTable(HashTablePolicy::GlobalOnly, arena, scratch, 4, kSalt, stats));
}

// ---- hash kernel degradation -----------------------------------------------

TEST(HashKernelOverflowTest, ExhaustedArenaDegradesToGlobalOnlyWithSameDecision) {
  const DecideFixture fx(gala::testing::two_triangles());
  const DecideInput in = fx.input();

  gpusim::SharedMemoryArena fresh(48 * 1024);
  HashScratch scratch_a;
  gpusim::MemoryStats stats_a;
  const Decision reference =
      hash_decide(in, /*v=*/2, HashTablePolicy::GlobalOnly, fresh, scratch_a, kSalt, stats_a);

  RunScope scope;
  gpusim::SharedMemoryArena full(4 * sizeof(HashBucket));
  full.allocate<HashBucket>(4);
  HashScratch scratch_b;
  gpusim::MemoryStats stats_b;
  const Decision degraded =
      hash_decide(in, /*v=*/2, HashTablePolicy::Hierarchical, full, scratch_b, kSalt, stats_b);

  expect_same_decision(reference, degraded);
  EXPECT_EQ(scope.registry().counter("resilience.hashtable_fallbacks").value(), 1u);
}

TEST(HashKernelOverflowTest, AllPoliciesAgreeOnEveryVertex) {
  const DecideFixture fx(gala::testing::small_planted());
  const DecideInput in = fx.input();
  gpusim::SharedMemoryArena arena(48 * 1024);
  HashScratch scratch;
  for (vid_t v = 0; v < fx.g.num_vertices(); v += 37) {
    arena.reset();
    gpusim::MemoryStats s0, s1, s2;
    const Decision a = hash_decide(in, v, HashTablePolicy::GlobalOnly, arena, scratch, kSalt, s0);
    arena.reset();
    const Decision b = hash_decide(in, v, HashTablePolicy::Unified, arena, scratch, kSalt, s1);
    arena.reset();
    const Decision c =
        hash_decide(in, v, HashTablePolicy::Hierarchical, arena, scratch, kSalt, s2);
    expect_same_decision(a, b);
    expect_same_decision(a, c);
  }
}

// ---- global-scratch growth --------------------------------------------------

TEST(ScratchGrowthTest, AllPoliciesGrowScratchToPowerOfTwoCapacity) {
  for (const HashTablePolicy policy :
       {HashTablePolicy::GlobalOnly, HashTablePolicy::Unified, HashTablePolicy::Hierarchical}) {
    gpusim::SharedMemoryArena arena(48 * 1024);
    HashScratch scratch;  // starts empty: first table must grow it
    gpusim::MemoryStats stats;
    {
      NeighborCommunityTable table(policy, arena, scratch, /*capacity_hint=*/10, kSalt, stats);
      // want = bit_ceil(10 * 2) = 32 global buckets for every policy.
      EXPECT_EQ(table.global_buckets(), 32u) << to_string(policy);
    }
    EXPECT_GE(scratch.size(), 32u) << to_string(policy);

    // A second, bigger table grows the same scratch in place; a smaller one
    // reuses it without shrinking.
    const std::size_t grown = scratch.size();
    gpusim::MemoryStats stats2;
    arena.reset();
    { NeighborCommunityTable t2(policy, arena, scratch, 100, kSalt, stats2); }
    EXPECT_GE(scratch.size(), 256u) << to_string(policy);
    gpusim::MemoryStats stats3;
    arena.reset();
    { NeighborCommunityTable t3(policy, arena, scratch, 3, kSalt, stats3); }
    EXPECT_GE(scratch.size(), std::max<std::size_t>(grown, 256)) << to_string(policy);
  }
}

TEST(ScratchGrowthTest, TablesWorkAfterGrowth) {
  // Fill a freshly-grown table past its shared capacity so entries provably
  // land in (and read back from) the global part.
  const DecideFixture fx(star(100));
  gpusim::SharedMemoryArena arena(4 * sizeof(HashBucket));  // only 4 shared buckets
  HashScratch scratch;
  gpusim::MemoryStats stats;
  NeighborCommunityTable table(HashTablePolicy::Hierarchical, arena, scratch,
                               /*capacity_hint=*/100, kSalt, stats);
  for (cid_t c = 1; c <= 100; ++c) {
    table.upsert(c, 1.0, [&](cid_t id) { return fx.comm_total[id]; });
  }
  EXPECT_EQ(table.size(), 100u);
  EXPECT_GT(stats.ht_maintain_global, 0u);  // shared part (4 buckets) overflowed
  wt_t sum = 0;
  table.for_each([&](cid_t, wt_t w, wt_t) { sum += w; });
  EXPECT_DOUBLE_EQ(sum, 100.0);
}

// ---- shuffle multi-chunk spill ----------------------------------------------

TEST(ShuffleSpillTest, MultiChunkSpillMatchesHashKernel) {
  // Degree 40 > warp size forces the chunked spill-and-merge path.
  const DecideFixture fx(star(40));
  const DecideInput in = fx.input();

  gpusim::SharedMemoryArena spill(48 * 1024);
  gpusim::MemoryStats shuffle_stats;
  const Decision via_shuffle = shuffle_decide(in, /*v=*/0, spill, shuffle_stats);
  EXPECT_GT(shuffle_stats.shared_writes, 0u);  // leaders spilled to shared memory

  gpusim::SharedMemoryArena arena(48 * 1024);
  HashScratch scratch;
  gpusim::MemoryStats hash_stats;
  const Decision via_hash =
      hash_decide(in, /*v=*/0, HashTablePolicy::GlobalOnly, arena, scratch, kSalt, hash_stats);

  expect_same_decision(via_shuffle, via_hash);
}

TEST(ShuffleSpillTest, SingleChunkNeverTouchesSpillArena) {
  const DecideFixture fx(star(32));  // deg == warp size: registers only
  gpusim::SharedMemoryArena spill(0);  // any touch would throw
  gpusim::MemoryStats stats;
  EXPECT_NO_THROW(shuffle_decide(fx.input(), 0, spill, stats));
  EXPECT_EQ(spill.used_bytes(), 0u);
}

TEST(ShuffleSpillTest, TinySpillArenaFailsClosed) {
  const DecideFixture fx(star(40));
  gpusim::SharedMemoryArena spill(64);  // deg-40 spill list needs 640B
  gpusim::MemoryStats stats;
  EXPECT_THROW(shuffle_decide(fx.input(), 0, spill, stats), ResourceExhausted);
}

}  // namespace
}  // namespace gala::core
