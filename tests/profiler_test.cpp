// Hardware-counter emulation: every profiler counter checked against a
// hand-computable scenario — coalescing, divergence, bank conflicts, probe
// chains, occupancy, load imbalance, and the roofline report shape.
#include "gala/profiler/profiler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gala/common/json.hpp"
#include "gala/core/hashtables.hpp"
#include "gala/gpusim/device.hpp"
#include "gala/gpusim/shared_memory.hpp"
#include "gala/gpusim/warp.hpp"
#include "gala/scope/run_scope.hpp"

namespace gala {
namespace {

using gpusim::kWarpSize;
using gpusim::MemoryStats;
using gpusim::WarpValues;

// ---------------------------------------------------------------------------
// Coalescing: gather transactions per warp request.

TEST(Coalescing, ConsecutiveAddressesAreOneTransaction) {
  MemoryStats stats;
  WarpValues<std::uint32_t> addrs{};
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = static_cast<std::uint32_t>(i);
  const int transactions = gpusim::warp::gather_transactions(gpusim::kFullMask, addrs, stats);
  EXPECT_EQ(transactions, 1);
  EXPECT_EQ(stats.gather_requests, 1u);
  EXPECT_EQ(stats.gather_transactions, 1u);
  EXPECT_DOUBLE_EQ(stats.coalescing_efficiency(), 1.0);
}

TEST(Coalescing, Stride32IsFullyScattered) {
  MemoryStats stats;
  WarpValues<std::uint32_t> addrs{};
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = static_cast<std::uint32_t>(i * kWarpSize);
  const int transactions = gpusim::warp::gather_transactions(gpusim::kFullMask, addrs, stats);
  EXPECT_EQ(transactions, 32);
  EXPECT_DOUBLE_EQ(stats.coalescing_efficiency(), 1.0 / 32.0);
  EXPECT_DOUBLE_EQ(stats.transactions_per_gather(), 32.0);
}

TEST(Coalescing, EfficiencyDefaultsToPerfectWithNoGathers) {
  MemoryStats stats;
  EXPECT_DOUBLE_EQ(stats.coalescing_efficiency(), 1.0);
}

// ---------------------------------------------------------------------------
// Branch divergence: active-lane fraction per warp-wide issue.

TEST(Divergence, QuarterActiveWarpScoresQuarterEfficiency) {
  MemoryStats stats;
  gpusim::warp::charge_simt_issue(gpusim::warp::first_lanes(8), stats);
  EXPECT_EQ(stats.simt_lane_slots, 32u);
  EXPECT_EQ(stats.simt_active_lanes, 8u);
  EXPECT_DOUBLE_EQ(stats.divergence_efficiency(), 0.25);
}

TEST(Divergence, CollectivesChargeTheirActiveMask) {
  MemoryStats stats;
  WarpValues<double> values{};
  for (int i = 0; i < 16; ++i) values[i] = 1.0;
  const double sum = gpusim::warp::reduce_add(gpusim::warp::first_lanes(16), values, stats);
  EXPECT_DOUBLE_EQ(sum, 16.0);
  EXPECT_DOUBLE_EQ(stats.divergence_efficiency(), 0.5);
}

TEST(Divergence, FullWarpIsPerfect) {
  MemoryStats stats;
  WarpValues<double> values{};
  gpusim::warp::reduce_add(gpusim::kFullMask, values, stats);
  EXPECT_DOUBLE_EQ(stats.divergence_efficiency(), 1.0);
}

// ---------------------------------------------------------------------------
// Shared-memory bank conflicts.

TEST(BankConflicts, WarpWideSameBankSerialisesInto32Waves) {
  MemoryStats stats;
  WarpValues<std::uint64_t> words{};
  // 32 distinct words, all congruent mod 32: one bank, 32 waves.
  for (int i = 0; i < kWarpSize; ++i) words[i] = static_cast<std::uint64_t>(i) * kWarpSize;
  const int waves = gpusim::warp::shared_transactions(gpusim::kFullMask, words, stats);
  EXPECT_EQ(waves, 32);
  EXPECT_EQ(stats.bank_conflicts(), 31u);
  EXPECT_DOUBLE_EQ(stats.bank_conflict_factor(), 32.0);
}

TEST(BankConflicts, ConsecutiveWordsAreConflictFree) {
  MemoryStats stats;
  WarpValues<std::uint64_t> words{};
  for (int i = 0; i < kWarpSize; ++i) words[i] = static_cast<std::uint64_t>(i);
  EXPECT_EQ(gpusim::warp::shared_transactions(gpusim::kFullMask, words, stats), 1);
  EXPECT_EQ(stats.bank_conflicts(), 0u);
  EXPECT_DOUBLE_EQ(stats.bank_conflict_factor(), 1.0);
}

TEST(BankConflicts, SameWordBroadcastsInOneWave) {
  MemoryStats stats;
  WarpValues<std::uint64_t> words{};
  for (int i = 0; i < kWarpSize; ++i) words[i] = 7;
  EXPECT_EQ(gpusim::warp::shared_transactions(gpusim::kFullMask, words, stats), 1);
  EXPECT_EQ(stats.bank_conflicts(), 0u);
}

TEST(BankConflictModel, RegroupsSequentialAccessesIntoWarps) {
  // 32 sequential accesses striding one bank: one warp request, 32 waves.
  MemoryStats conflicted;
  {
    gpusim::BankConflictModel model(conflicted);
    for (int i = 0; i < kWarpSize; ++i) {
      model.observe_word(static_cast<std::uint64_t>(i) * kWarpSize);
    }
  }
  EXPECT_EQ(conflicted.shared_requests, 1u);
  EXPECT_EQ(conflicted.shared_waves, 32u);

  MemoryStats clean;
  {
    gpusim::BankConflictModel model(clean);
    for (int i = 0; i < kWarpSize; ++i) model.observe_word(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(clean.shared_requests, 1u);
  EXPECT_EQ(clean.shared_waves, 1u);
}

TEST(BankConflictModel, DestructorFlushesAPartialWarp) {
  MemoryStats stats;
  {
    gpusim::BankConflictModel model(stats);
    model.observe_word(0);
    model.observe_word(gpusim::kSharedBanks);  // second word in bank 0
  }
  // Two distinct words in bank 0: one request, two waves.
  EXPECT_EQ(stats.shared_requests, 1u);
  EXPECT_EQ(stats.shared_waves, 2u);
}

// ---------------------------------------------------------------------------
// Hashtable probe chains and occupancy.

struct TableHarness {
  gpusim::SharedMemoryArena arena;
  core::HashScratch scratch;
  MemoryStats stats;

  explicit TableHarness(std::size_t shared_buckets)
      : arena(shared_buckets * sizeof(core::HashBucket)) {}

  core::NeighborCommunityTable make(core::HashTablePolicy policy, vid_t capacity,
                                    std::uint64_t salt = 42) {
    return core::NeighborCommunityTable(policy, arena, scratch, capacity, salt, stats);
  }
};

TEST(ProbeHistogram, RepeatedKeyIsFiveSingleProbeLookups) {
  TableHarness h(16);
  {
    auto table = h.make(core::HashTablePolicy::GlobalOnly, 16);
    for (int i = 0; i < 5; ++i) table.upsert(9, 1.0, [](cid_t) { return 0.0; });
  }
  EXPECT_EQ(h.stats.ht_lookups, 5u);
  EXPECT_EQ(h.stats.ht_probes, 5u);
  EXPECT_EQ(h.stats.ht_probe_hist[1], 5u);
  EXPECT_DOUBLE_EQ(h.stats.mean_probe_length(), 1.0);
}

TEST(ProbeHistogram, HierarchicalFallThroughIsATwoProbeChain) {
  // One shared bucket: the first key claims it, the second key's shared
  // probe misses and falls through to global — a 2-probe chain each access.
  TableHarness h(1);
  {
    auto table = h.make(core::HashTablePolicy::Hierarchical, 16);
    table.upsert(1, 1.0, [](cid_t) { return 0.0; });  // shared, 1 probe
    table.upsert(2, 1.0, [](cid_t) { return 0.0; });  // falls through, 2 probes
    table.upsert(2, 1.0, [](cid_t) { return 0.0; });  // same chain again
  }
  EXPECT_EQ(h.stats.ht_lookups, 3u);
  EXPECT_EQ(h.stats.ht_probe_hist[1], 1u);
  EXPECT_EQ(h.stats.ht_probe_hist[2], 2u);
  EXPECT_DOUBLE_EQ(h.stats.mean_probe_length(), 5.0 / 3.0);
}

TEST(Occupancy, RecordedOncePerTableOnFirstReset) {
  TableHarness h(16);
  {
    auto table = h.make(core::HashTablePolicy::GlobalOnly, 16);
    table.upsert(1, 1.0, [](cid_t) { return 0.0; });
    table.reset();
    table.reset();  // second reset (and the destructor) must not resample
  }
  EXPECT_EQ(h.stats.ht_tables, 1u);
}

TEST(Occupancy, DecileBucketsFollowTheLoadFactor) {
  MemoryStats stats;
  stats.record_table_occupancy(5, 10);   // 50% -> decile 5
  stats.record_table_occupancy(10, 10);  // full -> last bucket
  stats.record_table_occupancy(0, 10);   // empty -> decile 0
  EXPECT_EQ(stats.ht_occupancy_hist[5], 1u);
  EXPECT_EQ(stats.ht_occupancy_hist[10], 1u);
  EXPECT_EQ(stats.ht_occupancy_hist[0], 1u);
  EXPECT_EQ(stats.ht_tables, 3u);
}

// ---------------------------------------------------------------------------
// Gini / DRAM-byte helpers.

TEST(Gini, HandComputedValues) {
  const std::vector<double> skewed{10, 0, 0, 0};
  EXPECT_DOUBLE_EQ(profiler::gini(skewed), 0.75);
  const std::vector<double> equal{3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(profiler::gini(equal), 0.0);
  EXPECT_DOUBLE_EQ(profiler::gini({}), 0.0);
  const std::vector<double> one{5};
  EXPECT_DOUBLE_EQ(profiler::gini(one), 0.0);
}

TEST(DramBytes, FourPerWordEightPerAtomic) {
  MemoryStats stats;
  stats.global_reads = 10;
  stats.global_writes = 5;
  stats.global_atomics = 2;
  stats.shared_reads = 100;  // shared traffic never reaches DRAM
  EXPECT_DOUBLE_EQ(profiler::modeled_dram_bytes(stats), 4.0 * 15 + 8.0 * 2);
}

// ---------------------------------------------------------------------------
// Profiler aggregation and the report document.

class ProfilerFixture : public ::testing::Test {
 protected:
  void SetUp() override { prof.set_enabled(true); }

  RunScope scope;
  profiler::Profiler& prof = scope.profiler();
  ThreadPool serial{1};  // launches run in block order on the test thread
};

TEST_F(ProfilerFixture, DeviceLaunchRecordsLoadImbalance) {
  exec::Workspace ws;
  gpusim::Device device({}, ws);
  // Block 0 does all the work: per-block cycles [10 * 400, 0, 0, 0].
  device.launch(
      serial, 4,
      [](gpusim::BlockContext& ctx) {
        if (ctx.block_id == 0) ctx.stats->global_reads += 10;
      },
      "imbalance_kernel");
  const auto kernels = prof.snapshot();
  ASSERT_EQ(kernels.size(), 1u);
  const auto& k = kernels[0];
  EXPECT_EQ(k.name, "imbalance_kernel");
  EXPECT_EQ(k.launches, 1u);
  EXPECT_EQ(k.blocks, 4u);
  EXPECT_EQ(k.traffic.global_reads, 10u);
  EXPECT_EQ(k.imbalance_samples, 1u);
  EXPECT_DOUBLE_EQ(k.mean_max_over_mean(), 4.0);
  EXPECT_DOUBLE_EQ(k.worst_max_over_mean, 4.0);
  EXPECT_DOUBLE_EQ(k.mean_gini(), 0.75);
}

TEST_F(ProfilerFixture, LaunchesUnderOneNameAggregate) {
  exec::Workspace ws;
  gpusim::Device device({}, ws);
  const auto body = [](gpusim::BlockContext& ctx) { ctx.stats->global_reads += 1; };
  device.launch(serial, 2, body, "k");
  device.launch(serial, 3, body, "k");
  const auto kernels = prof.snapshot();
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].launches, 2u);
  EXPECT_EQ(kernels[0].blocks, 5u);
  EXPECT_EQ(kernels[0].traffic.global_reads, 5u);
}

TEST_F(ProfilerFixture, DisabledProfilerRecordsNothing) {
  prof.set_enabled(false);
  exec::Workspace ws;
  gpusim::Device device({}, ws);
  device.launch(
      serial, 1, [](gpusim::BlockContext& ctx) { ctx.stats->global_reads += 1; }, "k");
  EXPECT_TRUE(prof.snapshot().empty());
}

TEST_F(ProfilerFixture, ReportJsonHasTheDocumentedShape) {
  exec::Workspace ws;
  gpusim::Device device({}, ws);
  device.launch(
      serial, 2,
      [](gpusim::BlockContext& ctx) {
        ctx.stats->global_reads += 4;
        ctx.stats->register_ops += 8;
        ctx.stats->record_probe_chain(2);
        ctx.stats->record_table_occupancy(1, 2);
      },
      "shape_kernel");
  const JsonValue doc = parse_json(prof.report_json());
  EXPECT_EQ(doc.at("profile_schema").number, 1.0);
  EXPECT_DOUBLE_EQ(doc.at("ceilings").at("dram_gbps").number, 1555.0);
  const auto& kernels = doc.at("kernels");
  ASSERT_EQ(kernels.array.size(), 1u);
  const JsonValue& k = kernels.array[0];
  EXPECT_EQ(k.at("name").string, "shape_kernel");
  EXPECT_EQ(k.at("launches").number, 1.0);
  EXPECT_EQ(k.at("counters").at("global_reads").number, 8.0);
  EXPECT_EQ(k.at("hashtable").at("lookups").number, 2.0);
  EXPECT_EQ(k.at("hashtable").at("probe_hist").array.size(), 1u);
  EXPECT_EQ(k.at("hashtable").at("probe_hist").array[0].at("len").number, 2.0);
  EXPECT_EQ(k.at("hashtable").at("probe_hist").array[0].at("count").number, 2.0);
  // dram_bytes = 4 * 8 global reads; AI = 16 register ops / 32 bytes.
  EXPECT_DOUBLE_EQ(k.at("roofline").at("dram_bytes").number, 32.0);
  EXPECT_DOUBLE_EQ(k.at("roofline").at("arithmetic_intensity").number, 0.5);
  EXPECT_EQ(k.at("roofline").at("bound").string, "memory");
  EXPECT_DOUBLE_EQ(k.at("divergence_efficiency").number, 1.0);
  EXPECT_DOUBLE_EQ(k.at("bank_conflict_factor").number, 1.0);
}

TEST_F(ProfilerFixture, ResetForgetsKernelsButKeepsCeilings) {
  profiler::RooflineCeilings custom;
  custom.dram_gbps = 900.0;
  auto& p = prof;
  p.set_ceilings(custom);
  exec::Workspace ws;
  gpusim::Device device({}, ws);
  device.launch(
      serial, 1, [](gpusim::BlockContext& ctx) { ctx.stats->global_reads += 1; }, "k");
  p.reset();
  EXPECT_TRUE(p.snapshot().empty());
  EXPECT_DOUBLE_EQ(p.ceilings().dram_gbps, 900.0);
}

TEST(MemoryStatsMerge, HistogramsAndCountersAdd) {
  MemoryStats a, b;
  a.record_probe_chain(1);
  b.record_probe_chain(1);
  b.record_probe_chain(30);  // beyond the last bucket boundary? no: bucket 16 absorbs >= 16
  b.simt_lane_slots = 32;
  b.simt_active_lanes = 16;
  a += b;
  EXPECT_EQ(a.ht_lookups, 3u);
  EXPECT_EQ(a.ht_probe_hist[1], 2u);
  EXPECT_EQ(a.ht_probe_hist[MemoryStats::kProbeBuckets - 1], 1u);
  EXPECT_EQ(a.simt_active_lanes, 16u);
}

}  // namespace
}  // namespace gala
