// Multi-GPU layer: collectives, distributed/single-device parity (phase 1
// and the whole pipeline), and the dense/sparse synchronisation behaviour.
#include <gtest/gtest.h>

#include <thread>

#include "gala/codec/delta_codec.hpp"
#include "gala/core/bsp_louvain.hpp"
#include "gala/core/gala.hpp"
#include "gala/graph/standin.hpp"
#include "gala/multigpu/dist_louvain.hpp"
#include "gala/scope/run_scope.hpp"
#include "test_util.hpp"

namespace gala::multigpu {
namespace {

TEST(Collectives, AllGatherVConcatenatesInRankOrder) {
  constexpr std::size_t P = 4;
  Communicator comm(P);
  std::vector<std::vector<int>> results(P);
  std::vector<CommStats> stats(P);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < P; ++r) {
    threads.emplace_back([&, r] {
      std::vector<int> local(r + 1, static_cast<int>(r));  // rank r sends r+1 copies of r
      results[r] = comm.all_gather_v<int>(r, local, stats[r]);
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<int> expect = {0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
  for (std::size_t r = 0; r < P; ++r) {
    EXPECT_EQ(results[r], expect) << "rank " << r;
    EXPECT_EQ(stats[r].collectives, 1u);
    EXPECT_EQ(stats[r].bytes, expect.size() * sizeof(int));
    EXPECT_GT(stats[r].modeled_us, 0.0);
  }
}

TEST(Collectives, AllGatherVHandlesEmptyContributions) {
  constexpr std::size_t P = 3;
  Communicator comm(P);
  std::vector<std::vector<double>> results(P);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < P; ++r) {
    threads.emplace_back([&, r] {
      CommStats stats;
      std::vector<double> local;
      if (r == 1) local = {3.5};
      results[r] = comm.all_gather_v<double>(r, local, stats);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t r = 0; r < P; ++r) EXPECT_EQ(results[r], std::vector<double>{3.5});
}

TEST(Collectives, AllReduceSumIsExactAndRepeatable) {
  constexpr std::size_t P = 4;
  Communicator comm(P);
  std::vector<std::thread> threads;
  std::vector<std::array<double, 3>> data(P);
  for (std::size_t r = 0; r < P; ++r) data[r] = {1.0 * r, 2.0, -1.0 * r};
  for (std::size_t r = 0; r < P; ++r) {
    threads.emplace_back([&, r] {
      CommStats stats;
      // Two rounds: the buffer must be cleanly reset between collectives.
      comm.all_reduce_sum(r, data[r], stats);
      comm.all_reduce_sum(r, data[r], stats);
    });
  }
  for (auto& t : threads) t.join();
  // Round 1: {0+1+2+3, 8, -6} = {6, 8, -6}; round 2 sums the reduced copies.
  for (std::size_t r = 0; r < P; ++r) {
    EXPECT_DOUBLE_EQ(data[r][0], 24.0);
    EXPECT_DOUBLE_EQ(data[r][1], 32.0);
    EXPECT_DOUBLE_EQ(data[r][2], -24.0);
  }
}

TEST(Collectives, AllReduceMin) {
  constexpr std::size_t P = 3;
  Communicator comm(P);
  std::vector<double> results(P);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < P; ++r) {
    threads.emplace_back([&, r] {
      CommStats stats;
      results[r] = comm.all_reduce_min(r, 10.0 - static_cast<double>(r), stats);
    });
  }
  for (auto& t : threads) t.join();
  for (const double v : results) EXPECT_DOUBLE_EQ(v, 8.0);
}

TEST(CommCostModel, AlphaBetaShape) {
  CommCostModel cost;
  EXPECT_DOUBLE_EQ(cost.microseconds(0), cost.alpha_us);
  EXPECT_GT(cost.microseconds(1 << 20), cost.microseconds(1 << 10));
}

// Both byte-charging conventions against their closed forms: canonical
// charges the full payload, ring charges the NCCL ring volumes — AllGather
// moves (P-1)/P of the total per device, AllReduce 2·(P-1)/P of its buffer.
TEST(CommCostModel, CanonicalAndRingConventionsMatchClosedForms) {
  constexpr std::size_t P = 4;
  constexpr std::size_t kPerRank = 6;  // ints gathered per rank
  constexpr std::size_t kReduceLen = 5;
  for (const bool ring : {false, true}) {
    CommCostModel cost;
    cost.ring_convention = ring;
    Communicator comm(P, cost);
    std::vector<CommStats> stats(P);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < P; ++r) {
      threads.emplace_back([&, r] {
        std::vector<int> local(kPerRank, static_cast<int>(r));
        (void)comm.all_gather_v<int>(r, local, stats[r]);
        std::vector<double> buf(kReduceLen, 1.0);
        comm.all_reduce_sum(r, buf, stats[r]);
        (void)comm.all_reduce_min(r, static_cast<double>(r), stats[r]);
      });
    }
    for (auto& t : threads) t.join();
    const std::size_t gather_total = P * kPerRank * sizeof(int);
    const std::size_t reduce_payload = kReduceLen * sizeof(double);
    const std::size_t min_payload = P * sizeof(double);  // modeled as a scalar gather
    const std::size_t expect =
        ring ? gather_total * (P - 1) / P + 2 * reduce_payload * (P - 1) / P +
                   min_payload * (P - 1) / P
             : gather_total + reduce_payload + min_payload;
    for (std::size_t r = 0; r < P; ++r) {
      EXPECT_EQ(stats[r].bytes, expect) << (ring ? "ring" : "canonical") << " rank " << r;
      EXPECT_EQ(stats[r].collectives, 3u);
    }
  }
}

// The posted (post/complete) form must be byte- and data-identical to the
// blocking form; overlap credit turns modeled time into hidden time without
// touching the byte accounting.
TEST(Collectives, PostCompleteMatchesBlockingAndCreditsOverlap) {
  constexpr std::size_t P = 3;
  Communicator comm(P);
  std::vector<std::vector<int>> results(P);
  std::vector<CommStats> stats(P);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < P; ++r) {
    threads.emplace_back([&, r] {
      std::vector<int> local(r + 1, static_cast<int>(r));
      // Round 1: enough credit to hide the whole collective.
      auto pending = comm.post_gather_v<int>(r, local);
      comm.complete_gather_v<int>(std::move(pending), stats[r], results[r], /*credit=*/1e9);
      EXPECT_FALSE(pending.active());
      // Round 2: zero credit — fully exposed.
      auto pending2 = comm.post_gather_v<int>(r, local);
      std::vector<int> out2;
      comm.complete_gather_v<int>(std::move(pending2), stats[r], out2);
      EXPECT_EQ(out2, results[r]);
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<int> expect = {0, 1, 1, 2, 2, 2};
  const std::size_t round_bytes = expect.size() * sizeof(int);
  for (std::size_t r = 0; r < P; ++r) {
    EXPECT_EQ(results[r], expect);
    EXPECT_EQ(stats[r].collectives, 2u);
    EXPECT_EQ(stats[r].posted, 2u);
    EXPECT_EQ(stats[r].bytes, 2 * round_bytes);
    // Round 1 fully hidden, round 2 fully exposed: hidden == half of modeled.
    EXPECT_NEAR(stats[r].hidden_us, stats[r].modeled_us / 2, 1e-9);
    EXPECT_NEAR(stats[r].wait_us(), stats[r].modeled_us / 2, 1e-9);
    EXPECT_NEAR(stats[r].overlap_ratio(), 0.5, 1e-9);
  }
}

// ---- sparse-delta codec ----------------------------------------------------

TEST(DeltaCodec, RoundTripsEdgeCaseMoveSets) {
  constexpr vid_t n = 32;
  std::vector<codec::MoveRecord> all;
  for (vid_t v = 0; v < n; ++v) all.push_back({v, static_cast<cid_t>(n - 1 - v)});
  const std::vector<std::vector<codec::MoveRecord>> cases = {
      {},                                 // empty move set
      {{7, 3}},                           // single move
      all,                                // every vertex moves
      {{0, 5}, {1, 5}, {31, 5}},          // one destination community
      {{2, 9}, {3, 1}, {5, 9}, {30, 1}},  // repeating dictionary entries
  };
  for (const auto& moves : cases) {
    std::vector<std::byte> wire;
    codec::encode_moves(moves, wire);
    std::vector<codec::MoveRecord> back;
    codec::decode_moves(wire, n, back);
    EXPECT_EQ(back.size(), moves.size());
    EXPECT_TRUE(std::equal(back.begin(), back.end(), moves.begin()));
  }
}

TEST(DeltaCodec, ConcatenatedFramesDecodeInRankOrder) {
  constexpr vid_t n = 100;
  const std::vector<codec::MoveRecord> rank0 = {{1, 4}, {2, 4}, {9, 8}};
  const std::vector<codec::MoveRecord> rank1 = {};  // empty contribution: zero bytes
  const std::vector<codec::MoveRecord> rank2 = {{50, 4}, {77, 12}};
  std::vector<std::byte> wire;
  codec::encode_moves(rank0, wire);
  codec::encode_moves(rank2, wire);  // rank 1 contributed nothing
  (void)rank1;
  std::vector<codec::MoveRecord> back;
  codec::decode_moves(wire, n, back);
  std::vector<codec::MoveRecord> expect = rank0;
  expect.insert(expect.end(), rank2.begin(), rank2.end());
  ASSERT_EQ(back.size(), expect.size());
  EXPECT_TRUE(std::equal(back.begin(), back.end(), expect.begin()));
}

TEST(DeltaCodec, CompressesDenseMoveRuns) {
  // Sorted dense runs with few destinations: the codec's target shape. The
  // encoded frame must be well under the raw 8-byte records.
  constexpr vid_t n = 4096;
  std::vector<codec::MoveRecord> moves;
  for (vid_t v = 0; v < n; v += 2) moves.push_back({v, static_cast<cid_t>(v % 16)});
  std::vector<std::byte> wire;
  codec::encode_moves(moves, wire);
  EXPECT_LT(wire.size(), moves.size() * sizeof(codec::MoveRecord) / 2);
}

TEST(DeltaCodec, EveryTruncationRaisesCollectiveFault) {
  constexpr vid_t n = 48;
  std::vector<codec::MoveRecord> moves;
  for (vid_t v = 0; v < n; v += 2) moves.push_back({v, static_cast<cid_t>(v % 5)});
  std::vector<std::byte> wire;
  codec::encode_moves(moves, wire);
  // len = 0 is excluded: an empty concatenation is the legitimate
  // "no rank moved anything" payload and decodes to zero records.
  for (std::size_t len = 1; len < wire.size(); ++len) {
    std::vector<std::byte> cut(wire.begin(), wire.begin() + len);
    std::vector<codec::MoveRecord> out;
    EXPECT_THROW(codec::decode_moves(cut, n, out), CollectiveFault)
        << "prefix of " << len << " bytes";
  }
}

TEST(DeltaCodec, RejectsOutOfRangeAndNonMonotoneStreams) {
  constexpr vid_t n = 10;
  std::vector<codec::MoveRecord> out;
  // Vertex id beyond num_vertices: valid frame for a bigger graph, rejected
  // when decoded against the smaller one.
  std::vector<std::byte> wire;
  codec::encode_moves(std::vector<codec::MoveRecord>{{15, 2}}, wire);
  EXPECT_THROW(codec::decode_moves(wire, n, out), CollectiveFault);
  // Encoder refuses non-ascending input outright (it cannot build a frame
  // the decoder would reject).
  std::vector<std::byte> bad;
  EXPECT_THROW(codec::encode_moves(std::vector<codec::MoveRecord>{{5, 1}, {5, 2}}, bad), Error);
  EXPECT_THROW(codec::encode_moves(std::vector<codec::MoveRecord>{{5, 1}, {3, 2}}, bad), Error);
}

class DeviceCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeviceCounts, MatchesSingleEngineTrajectoryExactly) {
  const auto g = testing::small_planted(41, 800, 16, 0.25);
  core::BspConfig single_cfg;
  single_cfg.parallel = false;
  const auto single = core::bsp_phase1(g, single_cfg);

  DistributedConfig cfg;
  cfg.num_gpus = GetParam();
  const auto dist = distributed_phase1(g, cfg);
  EXPECT_EQ(dist.phase1.community, single.community);
  EXPECT_NEAR(dist.phase1.modularity, single.modularity, 1e-9);
  EXPECT_EQ(dist.phase1.iterations.size(), single.iterations.size());
}

INSTANTIATE_TEST_SUITE_P(OneToEight, DeviceCounts, ::testing::Values(1, 2, 3, 4, 8));

TEST(Distributed, AllSyncModesProduceTheSameResult) {
  const auto g = testing::small_planted(43, 600, 12, 0.3);
  std::vector<std::vector<cid_t>> communities;
  for (const auto mode : {SyncMode::Dense, SyncMode::Sparse, SyncMode::Adaptive}) {
    DistributedConfig cfg;
    cfg.num_gpus = 4;
    cfg.sync = mode;
    communities.push_back(distributed_phase1(g, cfg).phase1.community);
  }
  EXPECT_EQ(communities[0], communities[1]);
  EXPECT_EQ(communities[1], communities[2]);
}

TEST(Distributed, AdaptiveSwitchesToSparseInLateIterations) {
  const auto g = testing::small_planted(47, 2000, 20, 0.2);
  DistributedConfig cfg;
  cfg.num_gpus = 4;
  cfg.sync = SyncMode::Adaptive;
  const auto r = distributed_phase1(g, cfg);
  ASSERT_GT(r.iteration_log.size(), 2u);
  // Moves decay over iterations, so the tail must be sparse.
  EXPECT_TRUE(r.iteration_log.back().sparse_sync);
  // Sparse payloads must be smaller than the dense payload for the switch
  // to have been correct.
  const std::uint64_t dense_bytes = static_cast<std::uint64_t>(g.num_vertices()) * sizeof(cid_t);
  for (const auto& it : r.iteration_log) {
    if (it.sparse_sync) {
      EXPECT_LT(it.sync_bytes, dense_bytes);
    }
  }
}

TEST(Distributed, SparseMovesFewerBytesThanDenseOverall) {
  const auto g = testing::small_planted(49, 1500, 15, 0.25);
  auto total_bytes = [&](SyncMode mode) {
    DistributedConfig cfg;
    cfg.num_gpus = 4;
    cfg.sync = mode;
    const auto r = distributed_phase1(g, cfg);
    std::uint64_t bytes = 0;
    for (const auto& it : r.iteration_log) bytes += it.sync_bytes;
    return bytes;
  };
  const auto dense = total_bytes(SyncMode::Dense);
  const auto adaptive = total_bytes(SyncMode::Adaptive);
  EXPECT_LE(adaptive, dense);
}

TEST(Distributed, ComputeTrafficSplitsAcrossDevices) {
  const auto g = testing::small_planted(51, 2000, 20, 0.25);
  DistributedConfig one, four;
  one.num_gpus = 1;
  four.num_gpus = 4;
  const auto r1 = distributed_phase1(g, one);
  const auto r4 = distributed_phase1(g, four);
  // Per-device decide traffic must shrink substantially with more devices.
  EXPECT_LT(r4.max_compute_modeled_ms(), 0.6 * r1.max_compute_modeled_ms());
  // The union of all devices' traffic is the single-device traffic plus the
  // replicated bookkeeping scans (totals/modularity reductions and the
  // next_comm seed copy are per-replica O(n) kernels, so their charge grows
  // with P by design) — decide/emission traffic itself must not duplicate.
  std::uint64_t reads4 = 0;
  for (const auto& d : r4.devices) reads4 += d.traffic.global_reads;
  const auto reads1 = static_cast<double>(r1.devices[0].traffic.global_reads);
  EXPECT_GT(static_cast<double>(reads4), 0.9 * reads1);
  const double replicated_bound =
      4.0 * 4.0 * static_cast<double>(g.num_vertices()) *
      static_cast<double>(r4.phase1.iterations.size());  // 4 ranks x ~4n replicated reads/iter
  EXPECT_LT(static_cast<double>(reads4), 1.1 * reads1 + replicated_bound);
}

TEST(Distributed, PruningStrategiesMatchSingleEngineExactly) {
  // The deterministic strategies must produce the single-engine trajectory
  // under distribution (same decisions, same pruning, exact sync).
  const auto g = testing::small_planted(53, 500, 10, 0.3);
  for (const auto strategy :
       {core::PruningStrategy::None, core::PruningStrategy::Strict,
        core::PruningStrategy::Relaxed, core::PruningStrategy::ModularityGain,
        core::PruningStrategy::MgPlusRelaxed}) {
    core::BspConfig single_cfg;
    single_cfg.pruning = strategy;
    single_cfg.parallel = false;
    const auto single = core::bsp_phase1(g, single_cfg);
    DistributedConfig cfg;
    cfg.num_gpus = 3;
    cfg.pruning = strategy;
    const auto r = distributed_phase1(g, cfg);
    EXPECT_EQ(r.phase1.community, single.community) << core::to_string(strategy);
  }
}

TEST(Distributed, OverlapIsBitIdenticalAndHidesCommunication) {
  // Ring of cliques: interior clique vertices have fully rank-local
  // neighbourhoods, so the local frontier covers most of the graph and the
  // windows carry real work into the posted exchanges. Few modeled lanes
  // (a small simulated device) keep the window compute comparable to the
  // collective alpha, the regime overlap exists for.
  const auto g = graph::ring_of_cliques(24, 64);
  DistributedConfig off;
  off.num_gpus = 4;
  off.device.model_parallel_lanes = 128;
  DistributedConfig on = off;
  on.overlap = true;
  const auto r_off = distributed_phase1(g, off);
  const auto r_on = distributed_phase1(g, on);

  EXPECT_EQ(r_on.phase1.community, r_off.phase1.community);
  EXPECT_EQ(r_on.phase1.iterations.size(), r_off.phase1.iterations.size());
  EXPECT_NEAR(r_on.phase1.modularity, r_off.phase1.modularity, 1e-12);

  double hidden_on = 0, hidden_off = 0;
  std::uint64_t posted_on = 0;
  for (const auto& d : r_on.devices) {
    hidden_on += d.comm.hidden_us;
    posted_on += d.comm.posted;
  }
  for (const auto& d : r_off.devices) hidden_off += d.comm.hidden_us;
  EXPECT_EQ(hidden_off, 0.0);  // blocking runs hide nothing
  EXPECT_GT(hidden_on, 0.0);
  EXPECT_GT(posted_on, 0u);
  // The acceptance bar: exposed communication shrinks by >= 20% on the
  // slowest device, and the end-to-end modeled time never regresses.
  EXPECT_LT(r_on.max_comm_modeled_ms(), 0.8 * r_off.max_comm_modeled_ms());
  EXPECT_LE(r_on.modeled_ms(), r_off.modeled_ms());
  // Hiding time does not change what was charged for the wire.
  for (const auto& d : r_on.devices) {
    EXPECT_NEAR(d.comm_full_modeled_ms(), d.comm_modeled_ms() + d.comm.hidden_us / 1e3, 1e-9);
  }
}

TEST(Distributed, CompressionShrinksSparsePayloadBitIdentically) {
  const auto g = testing::small_planted(59, 1500, 15, 0.25);
  DistributedConfig raw;
  raw.num_gpus = 4;
  raw.sync = SyncMode::Adaptive;
  DistributedConfig packed = raw;
  packed.compress = true;
  const auto r_raw = distributed_phase1(g, raw);
  const auto r_packed = distributed_phase1(g, packed);

  EXPECT_EQ(r_packed.phase1.community, r_raw.phase1.community);
  EXPECT_EQ(r_packed.phase1.iterations.size(), r_raw.phase1.iterations.size());

  std::uint64_t bytes_raw = 0, bytes_packed = 0;
  bool saw_sparse_savings = false;
  for (const auto& it : r_raw.iteration_log) bytes_raw += it.sync_bytes;
  for (const auto& it : r_packed.iteration_log) {
    bytes_packed += it.sync_bytes;
    // The log records both the wire payload and what raw records would have
    // cost. Framing overhead can exceed raw for a handful of movers, but
    // the mid-run sparse iterations must show real savings.
    if (it.sparse_sync && it.sync_bytes < it.sync_raw_bytes) saw_sparse_savings = true;
  }
  EXPECT_TRUE(saw_sparse_savings);
  EXPECT_LT(bytes_packed, bytes_raw);
}

TEST(Distributed, ExhaustedDecideRaisesResourceExhaustedOnEveryRank) {
  // A rank whose decide runs out of budget fails every rank closed at the
  // next reduce; the caller must still see the exhaustion (what a budget
  // probe counts as infeasible), not a generic collective failure.
  const auto g = gala::testing::small_planted();
  for (const std::size_t P : {2, 4}) {
    DistributedConfig cfg;
    cfg.num_gpus = P;
    cfg.kernel = core::KernelMode::HashOnly;
    cfg.hashtable = core::HashTablePolicy::GlobalOnly;  // every decide needs hash scratch
    RunScope scope;
    scope.governor().install({.subsystem_caps = {{"core", 1}}});
    try {
      (void)distributed_phase1(g, cfg);
      ADD_FAILURE() << "P=" << P << ": run completed under a 1-byte core budget";
    } catch (const ResourceExhausted& e) {
      EXPECT_NE(std::string(e.what()).find("decide phase failed on rank"), std::string::npos)
          << "P=" << P << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "P=" << P << ": expected ResourceExhausted, got: " << e.what();
    }
  }
}

TEST(Distributed, RejectsZeroDevices) {
  const auto g = testing::two_triangles();
  DistributedConfig cfg;
  cfg.num_gpus = 0;
  EXPECT_THROW(distributed_phase1(g, cfg), Error);
}

TEST(Distributed, RefusesSettingsTheRanksDoNotHonour) {
  // Ranks always run the owner-computed delta update and would count the
  // confusion matrix rank-locally: both settings fail, naming themselves.
  const auto g = testing::two_triangles();
  DistributedBackend engine(Exchange{});
  core::GalaConfig recompute;
  recompute.bsp.weight_update = core::WeightUpdateMode::Recompute;
  core::GalaConfig confusion;
  confusion.bsp.track_confusion = true;
  for (const auto& [cfg, field] : {std::pair{recompute, "weight_update"},
                                   std::pair{confusion, "track_confusion"}}) {
    try {
      (void)core::run_louvain(g, cfg, engine);
      ADD_FAILURE() << field << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
}

// ---- the distributed engine in run_louvain's level loop ---------------------

std::vector<std::string> pipeline_graphs() {
  std::vector<std::string> names = graph::standin_abbrs();
  names.push_back("planted");
  names.push_back("ring");
  return names;
}

graph::Graph pipeline_graph(const std::string& name) {
  if (name == "planted") {
    graph::PlantedPartitionParams p;
    p.num_vertices = 2000;
    p.num_communities = 20;
    p.mixing = 0.1;
    return graph::planted_partition(p);
  }
  // Level 1 of the ring has 3 vertices: at P = 16 most ranks own nothing.
  if (name == "ring") return graph::ring_of_cliques(3, 4);
  return graph::make_standin(name, 0.05);
}

void expect_same_run(const core::GalaResult& dist, const core::GalaResult& ref,
                     const std::string& at) {
  EXPECT_EQ(dist.assignment, ref.assignment) << at;
  EXPECT_NEAR(dist.modularity, ref.modularity, 1e-9) << at;
  EXPECT_EQ(dist.rejected.has_value(), ref.rejected.has_value()) << at;
  ASSERT_EQ(dist.levels.size(), ref.levels.size()) << at;
  for (std::size_t i = 0; i < ref.levels.size(); ++i) {
    EXPECT_EQ(dist.levels[i].vertices, ref.levels[i].vertices) << at << " level " << i;
    EXPECT_EQ(dist.levels[i].communities, ref.levels[i].communities) << at << " level " << i;
    EXPECT_EQ(dist.levels[i].iterations, ref.levels[i].iterations) << at << " level " << i;
    EXPECT_NEAR(dist.levels[i].modularity, ref.levels[i].modularity, 1e-9)
        << at << " level " << i;
  }
}

class DistributedPipeline : public ::testing::TestWithParam<std::string> {};

TEST_P(DistributedPipeline, MatchesTheSingleDevicePipeline) {
  const graph::Graph g = pipeline_graph(GetParam());
  const core::GalaResult ref = core::run_louvain(g);
  const auto check = [&](const Exchange& exchange) {
    DistributedBackend engine(exchange);
    expect_same_run(core::run_louvain(g, {}, engine), ref,
                    "P=" + std::to_string(exchange.num_gpus) + " sync=" +
                        to_string(exchange.sync) + " overlap+compress=" +
                        std::to_string(exchange.overlap));
  };
  for (const std::size_t P : {1, 2, 3, 4, 7, 16}) {
    for (const bool both : {false, true}) {
      Exchange exchange;
      exchange.num_gpus = P;
      exchange.overlap = both;
      exchange.compress = both;
      check(exchange);
    }
  }
  for (const auto sync : {SyncMode::Dense, SyncMode::Sparse, SyncMode::Adaptive}) {
    Exchange exchange;
    exchange.num_gpus = 4;
    exchange.sync = sync;
    check(exchange);
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, DistributedPipeline, ::testing::ValuesIn(pipeline_graphs()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace gala::multigpu
