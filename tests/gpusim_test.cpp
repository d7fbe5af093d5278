// Tests for the GPU execution-model simulator: warp collectives (against
// scalar references, property-swept over random lane values and masks),
// the shared-memory arena, the device scheduler, and the cost model.
#include <gtest/gtest.h>

#include "gala/common/prng.hpp"
#include "gala/gpusim/device.hpp"
#include "gala/gpusim/shared_memory.hpp"
#include "gala/gpusim/warp.hpp"

namespace gala::gpusim {
namespace {

TEST(Warp, MatchAnyGroupsEqualValues) {
  WarpValues<int> v{};
  for (int i = 0; i < kWarpSize; ++i) v[i] = i % 3;
  MemoryStats stats;
  const auto masks = warp::match_any(kFullMask, v, stats);
  for (int i = 0; i < kWarpSize; ++i) {
    for (int j = 0; j < kWarpSize; ++j) {
      const bool same = v[i] == v[j];
      EXPECT_EQ(((masks[i] >> j) & 1u) != 0, same) << i << "," << j;
    }
    EXPECT_TRUE(masks[i] & (1u << i)) << "lane must match itself";
  }
  EXPECT_EQ(stats.shuffle_ops, 1u);
}

TEST(Warp, MatchAnyRespectsInactiveLanes) {
  WarpValues<int> v{};
  v.fill(7);
  MemoryStats stats;
  const LaneMask active = 0x0000ffffu;
  const auto masks = warp::match_any(active, v, stats);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(masks[i], active);
  for (int i = 16; i < kWarpSize; ++i) EXPECT_EQ(masks[i], 0u);
}

class WarpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WarpProperty, SegmentedReduceMatchesScalarReference) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    WarpValues<int> keys{};
    WarpValues<double> vals{};
    const LaneMask active = static_cast<LaneMask>(rng() | 1);  // at least lane 0
    for (int i = 0; i < kWarpSize; ++i) {
      keys[i] = static_cast<int>(rng.next_below(6));
      vals[i] = rng.next_double();
    }
    MemoryStats stats;
    const auto masks = warp::match_any(active, keys, stats);
    const auto sums = warp::segmented_reduce_add(active, masks, vals, stats);
    for (int i = 0; i < kWarpSize; ++i) {
      if (!((active >> i) & 1u)) continue;
      double expect = 0;
      for (int j = 0; j < kWarpSize; ++j) {
        if (((active >> j) & 1u) && keys[j] == keys[i]) expect += vals[j];
      }
      EXPECT_NEAR(sums[i], expect, 1e-12) << "lane " << i;
    }
  }
}

TEST_P(WarpProperty, ReduceMaxAndAddMatchScalarReference) {
  Xoshiro256 rng(GetParam() ^ 0x1234);
  for (int trial = 0; trial < 50; ++trial) {
    WarpValues<double> vals{};
    const LaneMask active = static_cast<LaneMask>(rng() | 1);
    double expect_max = -1e300, expect_sum = 0;
    for (int i = 0; i < kWarpSize; ++i) {
      vals[i] = rng.next_double() - 0.5;
      if ((active >> i) & 1u) {
        expect_max = std::max(expect_max, vals[i]);
        expect_sum += vals[i];
      }
    }
    MemoryStats stats;
    EXPECT_DOUBLE_EQ(warp::reduce_max(active, vals, stats), expect_max);
    EXPECT_NEAR(warp::reduce_add(active, vals, stats), expect_sum, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarpProperty, ::testing::Values(1, 2, 3, 4));

TEST(Warp, BallotCollectsPredicates) {
  WarpValues<bool> preds{};
  preds[0] = preds[5] = preds[31] = true;
  MemoryStats stats;
  EXPECT_EQ(warp::ballot(kFullMask, preds, stats), (1u << 0) | (1u << 5) | (1u << 31));
  // Inactive lanes do not contribute.
  EXPECT_EQ(warp::ballot(0x1u, preds, stats), 1u);
}

TEST(Warp, ShflBroadcastsSourceLane) {
  WarpValues<int> vals{};
  for (int i = 0; i < kWarpSize; ++i) vals[i] = i * 10;
  MemoryStats stats;
  EXPECT_EQ(warp::shfl(kFullMask, vals, 7, stats), 70);
}

TEST(Warp, LeaderLaneAndFirstLanes) {
  EXPECT_EQ(warp::leader_lane(0), -1);
  EXPECT_EQ(warp::leader_lane(0b1000), 3);
  EXPECT_EQ(warp::first_lanes(0), 0u);
  EXPECT_EQ(warp::first_lanes(3), 0b111u);
  EXPECT_EQ(warp::first_lanes(32), kFullMask);
}

TEST(Warp, SegmentedReduceChargesOneOpPerGroup) {
  WarpValues<int> keys{};
  for (int i = 0; i < kWarpSize; ++i) keys[i] = i % 4;  // 4 groups
  WarpValues<double> vals{};
  MemoryStats stats;
  const auto masks = warp::match_any(kFullMask, keys, stats);
  stats = MemoryStats{};
  warp::segmented_reduce_add(kFullMask, masks, vals, stats);
  EXPECT_EQ(stats.shuffle_ops, 4u);
}

TEST(Warp, GatherTransactionsModelCoalescing) {
  MemoryStats stats;
  WarpValues<std::uint32_t> addrs{};
  // Perfectly coalesced: lanes hit consecutive addresses in one segment.
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = 64 + i;
  EXPECT_EQ(warp::gather_transactions(kFullMask, addrs, stats), 1);
  // Fully scattered: every lane in its own segment.
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = static_cast<std::uint32_t>(i) * 1000;
  EXPECT_EQ(warp::gather_transactions(kFullMask, addrs, stats), kWarpSize);
  // Two segments.
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = i < 16 ? 0 : 4096;
  EXPECT_EQ(warp::gather_transactions(kFullMask, addrs, stats), 2);
  // Inactive lanes do not generate transactions.
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = static_cast<std::uint32_t>(i) * 1000;
  EXPECT_EQ(warp::gather_transactions(0x3u, addrs, stats), 2);
  EXPECT_EQ(stats.gather_requests, 4u);
  EXPECT_DOUBLE_EQ(stats.transactions_per_gather(), (1.0 + 32 + 2 + 2) / 4);
}

TEST(SharedMemoryArena, AllocatesUntilCapacityThenThrows) {
  SharedMemoryArena arena(64);
  auto a = arena.allocate<std::uint32_t>(8);  // 32 bytes
  EXPECT_EQ(a.size(), 8u);
  EXPECT_TRUE(arena.fits<std::uint32_t>(8));
  auto b = arena.allocate<std::uint32_t>(8);  // 64 bytes total
  EXPECT_EQ(b.size(), 8u);
  EXPECT_FALSE(arena.fits<std::uint32_t>(1));
  EXPECT_THROW(arena.allocate<std::uint32_t>(1), Error);
}

TEST(SharedMemoryArena, ResetReclaimsEverything) {
  SharedMemoryArena arena(128);
  arena.allocate<double>(16);
  EXPECT_EQ(arena.used_bytes(), 128u);
  arena.reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.allocate<double>(16).size(), 16u);
}

TEST(SharedMemoryArena, AllocationsAreValueInitialised) {
  SharedMemoryArena arena(256);
  auto a = arena.allocate<int>(4);
  a[0] = 42;
  arena.reset();
  auto b = arena.allocate<int>(4);
  EXPECT_EQ(b[0], 0) << "fresh allocation must be zeroed";
}

TEST(SharedMemoryArena, RespectsAlignment) {
  SharedMemoryArena arena(256);
  arena.allocate<char>(1);
  auto d = arena.allocate<double>(1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
}

TEST(Device, ParallelAndSequentialLaunchesChargeIdenticalTraffic) {
  exec::Workspace ws;
  Device device({}, ws);
  ThreadPool pool(4);
  ThreadPool serial(1);
  auto body = [](BlockContext& ctx) {
    ctx.stats->global_reads += ctx.block_id + 1;
    ctx.shared->allocate<int>(4);
  };
  const auto par = device.launch(pool, 100, body);
  const auto seq = device.launch(serial, 100, body);
  EXPECT_EQ(par.traffic.global_reads, seq.traffic.global_reads);
  EXPECT_EQ(par.traffic.global_reads, 100u * 101u / 2);
  EXPECT_DOUBLE_EQ(par.modeled_cycles, seq.modeled_cycles);
}

TEST(Device, SharedArenaResetBetweenBlocks) {
  exec::Workspace ws;
  Device device({}, ws);
  ThreadPool serial(1);
  device.launch(serial, 10, [](BlockContext& ctx) {
    // Each block can claim the full budget: the arena was reset.
    ctx.shared->allocate<std::byte>(ctx.shared->capacity_bytes());
  });
}

TEST(CostModel, CyclesAreLinearInTraffic) {
  CostModel model;
  MemoryStats s;
  s.global_reads = 10;
  s.shared_reads = 10;
  s.register_ops = 10;
  const double base = model.cycles(s);
  MemoryStats d = s;
  d += s;
  EXPECT_DOUBLE_EQ(model.cycles(d), 2 * base);
  EXPECT_GT(model.global_cycles, model.shared_cycles);
  EXPECT_GT(model.shared_cycles, model.register_cycles);
}

TEST(MemoryStats, RatesComputedFromCounters) {
  MemoryStats s;
  EXPECT_DOUBLE_EQ(s.maintenance_rate(), 0.0);
  s.ht_maintain_shared = 3;
  s.ht_maintain_global = 1;
  s.ht_access_shared = 9;
  s.ht_access_global = 1;
  EXPECT_DOUBLE_EQ(s.maintenance_rate(), 0.75);
  EXPECT_DOUBLE_EQ(s.access_rate(), 0.9);
}

}  // namespace
}  // namespace gala::gpusim
