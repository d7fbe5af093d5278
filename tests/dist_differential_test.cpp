// Randomized differential harness for the distributed engine: every
// distributed configuration — device counts, sync modes, pruning and
// hashtable policies, overlap and compression on or off — must produce a
// partition bit-identical to the single-GPU engine's sequential trajectory.
//
// The base seed rotates in CI (GALA_DIFF_SEED, derived from the commit SHA)
// so every run explores fresh graphs; on failure each assertion prints the
// reproducing (seed, config) tuple. Re-run locally with
//   GALA_DIFF_SEED=<seed> ./dist_differential_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "gala/codec/delta_codec.hpp"
#include "gala/core/bsp_louvain.hpp"
#include "gala/graph/generators.hpp"
#include "gala/multigpu/dist_louvain.hpp"
#include "gala/scope/run_scope.hpp"
#include "test_util.hpp"

namespace gala::multigpu {
namespace {

std::uint64_t base_seed() {
  if (const char* env = std::getenv("GALA_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260807ULL;  // fixed default: local runs are reproducible as-is
}

/// One trial's generated graph plus everything needed to reproduce it.
struct TrialGraph {
  graph::Graph g;
  std::string recipe;
};

TrialGraph make_graph(std::uint64_t seed) {
  // Alternate generator families so the harness sees both community-
  // structured and unstructured topologies (the sync payloads differ a lot).
  const std::uint64_t pick = splitmix64(seed);
  std::ostringstream recipe;
  if (pick % 2 == 0) {
    graph::PlantedPartitionParams p;
    p.num_vertices = 100 + static_cast<vid_t>(splitmix64(seed ^ 1) % 400);
    p.num_communities = 4 + static_cast<vid_t>(splitmix64(seed ^ 2) % 12);
    p.avg_degree = 6.0 + static_cast<double>(splitmix64(seed ^ 3) % 10);
    p.mixing = 0.1 + 0.05 * static_cast<double>(splitmix64(seed ^ 4) % 6);
    p.seed = seed;
    recipe << "planted{n=" << p.num_vertices << " k=" << p.num_communities
           << " deg=" << p.avg_degree << " mix=" << p.mixing << " seed=" << seed << "}";
    return {graph::planted_partition(p), recipe.str()};
  }
  const vid_t n = 60 + static_cast<vid_t>(splitmix64(seed ^ 5) % 300);
  const eid_t m = static_cast<eid_t>(n) * (2 + splitmix64(seed ^ 6) % 5);
  recipe << "erdos_renyi{n=" << n << " m=" << m << " seed=" << seed << "}";
  return {graph::erdos_renyi(n, m, seed), recipe.str()};
}

std::string repro_tuple(std::uint64_t seed, const std::string& graph_recipe,
                        const DistributedConfig& cfg) {
  std::ostringstream os;
  os << "repro: GALA_DIFF_SEED=" << base_seed() << " trial_seed=" << seed << " graph="
     << graph_recipe << " P=" << cfg.num_gpus << " sync=" << to_string(cfg.sync)
     << " pruning=" << core::to_string(cfg.pruning)
     << " hashtable=" << core::to_string(cfg.hashtable) << " overlap=" << cfg.overlap
     << " compress=" << cfg.compress;
  return os.str();
}

/// Reference trajectory: the sequential single-GPU engine with the same
/// phase-1 settings (deterministic launch order, so its partition is exact).
core::Phase1Result single_reference(const graph::Graph& g, const DistributedConfig& cfg) {
  core::BspConfig single = cfg;
  single.parallel = false;
  return core::bsp_phase1(g, single);
}

TEST(DistDifferential, RandomizedTrialsMatchSingleEngineBitIdentically) {
  const std::uint64_t base = base_seed();
  std::cout << "[harness] GALA_DIFF_SEED=" << base << "\n";
  constexpr int kTrials = 8;
  const core::PruningStrategy strategies[] = {
      core::PruningStrategy::None,          core::PruningStrategy::Strict,
      core::PruningStrategy::Relaxed,       core::PruningStrategy::ModularityGain,
      core::PruningStrategy::MgPlusRelaxed, core::PruningStrategy::Probabilistic,
  };
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = splitmix64(base ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
    const TrialGraph tg = make_graph(seed);

    DistributedConfig proto;
    proto.pruning = strategies[trial % std::size(strategies)];
    proto.hashtable = static_cast<core::HashTablePolicy>(trial % 3);
    proto.seed = seed;
    const auto reference = single_reference(tg.g, proto);

    for (const std::size_t P : {1, 2, 4}) {
      for (const auto sync : {SyncMode::Dense, SyncMode::Sparse, SyncMode::Adaptive}) {
        for (const bool overlap : {false, true}) {
          for (const bool compress : {false, true}) {
            DistributedConfig cfg = proto;
            cfg.num_gpus = P;
            cfg.sync = sync;
            cfg.overlap = overlap;
            cfg.compress = compress;
            const auto dist = distributed_phase1(tg.g, cfg);
            ASSERT_EQ(dist.phase1.community, reference.community)
                << repro_tuple(seed, tg.recipe, cfg);
            ASSERT_EQ(dist.phase1.iterations.size(), reference.iterations.size())
                << repro_tuple(seed, tg.recipe, cfg);
            ASSERT_NEAR(dist.phase1.modularity, reference.modularity, 1e-9)
                << repro_tuple(seed, tg.recipe, cfg);
          }
        }
      }
    }
  }
}

TEST(DistDifferential, ProbabilisticPruningIsConfigInvariantAcrossTheGrid) {
  // PM pruning seeds its per-iteration coins from the phase-1 driver's
  // stream, which every engine shares, so it matches the single engine
  // (checked by the two tests around this one); here every compressed
  // distributed configuration must also agree with every other bit-for-bit.
  const std::uint64_t base = base_seed();
  for (int trial = 0; trial < 3; ++trial) {
    const std::uint64_t seed = splitmix64(base ^ (0xbf58476d1ce4e5b9ULL * (trial + 1)));
    const TrialGraph tg = make_graph(seed);
    DistributedConfig proto;
    proto.pruning = core::PruningStrategy::Probabilistic;
    proto.seed = seed;
    proto.num_gpus = 1;
    proto.sync = SyncMode::Dense;
    const auto reference = distributed_phase1(tg.g, proto);
    for (const std::size_t P : {2, 4}) {
      for (const auto sync : {SyncMode::Sparse, SyncMode::Adaptive}) {
        for (const bool overlap : {false, true}) {
          DistributedConfig cfg = proto;
          cfg.num_gpus = P;
          cfg.sync = sync;
          cfg.overlap = overlap;
          cfg.compress = true;
          const auto dist = distributed_phase1(tg.g, cfg);
          ASSERT_EQ(dist.phase1.community, reference.phase1.community)
              << repro_tuple(seed, tg.recipe, cfg);
        }
      }
    }
  }
}

TEST(DistDifferential, FullPolicyGridOnFixedGraph) {
  // Exhaustive (non-random) sweep on one fixed mid-size graph: the
  // acceptance grid of pruning × hashtable × sync × overlap × compress.
  const auto g = gala::testing::small_planted(61, 300, 8, 0.25);
  const core::PruningStrategy strategies[] = {
      core::PruningStrategy::None,          core::PruningStrategy::Strict,
      core::PruningStrategy::Relaxed,       core::PruningStrategy::ModularityGain,
      core::PruningStrategy::MgPlusRelaxed, core::PruningStrategy::Probabilistic,
  };
  const core::HashTablePolicy hashtables[] = {
      core::HashTablePolicy::GlobalOnly,
      core::HashTablePolicy::Unified,
      core::HashTablePolicy::Hierarchical,
  };
  for (const auto pruning : strategies) {
    for (const auto hashtable : hashtables) {
      DistributedConfig proto;
      proto.pruning = pruning;
      proto.hashtable = hashtable;
      const auto reference = single_reference(g, proto);
      for (const auto sync : {SyncMode::Dense, SyncMode::Sparse, SyncMode::Adaptive}) {
        for (const bool overlap : {false, true}) {
          for (const bool compress : {false, true}) {
            DistributedConfig cfg = proto;
            cfg.num_gpus = 3;
            cfg.sync = sync;
            cfg.overlap = overlap;
            cfg.compress = compress;
            const auto dist = distributed_phase1(g, cfg);
            ASSERT_EQ(dist.phase1.community, reference.community) << repro_tuple(0, "fixed", cfg);
          }
        }
      }
    }
  }
}

TEST(DistDifferential, BudgetSweepKeepsEveryEngineBitIdentical) {
  // Memory pressure must never change the answer: the governor's ladder
  // (global-only tables, forced sparse sync, chunked frontiers) is exercised
  // by sweeping budgets from the unbudgeted peak down to the minimum
  // feasible one, on both the single engine and P=4 overlapped, and every
  // governed partition must equal the ungoverned single-engine reference.
  const auto g = gala::testing::small_planted(61, 300, 8, 0.25);
  DistributedConfig proto;  // defaults: MG pruning, hierarchical tables
  const auto reference = single_reference(g, proto);

  // Each run in its own scope: its budget (0 = none) and a memory registry
  // that sees that run alone.
  const auto run_dist = [&g, &proto](std::size_t P, bool overlap, std::uint64_t budget,
                                     memtrace::MemReport& rep) {
    DistributedConfig cfg = proto;
    cfg.num_gpus = P;
    cfg.overlap = overlap;
    cfg.compress = overlap;
    RunScope scope;
    if (budget != 0) scope.governor().install({.total_bytes = budget});
    std::vector<cid_t> community = distributed_phase1(g, cfg).phase1.community;
    rep = scope.memory().report();
    return community;
  };
  for (const auto& [P, overlap] : {std::pair<std::size_t, bool>{1, false}, {4, true}}) {
    memtrace::MemReport ungoverned;
    ASSERT_EQ(run_dist(P, overlap, 0, ungoverned), reference.community) << "ungoverned P=" << P;
    const std::uint64_t peak = ungoverned.peak_total_bytes();
    ASSERT_GT(peak, 0u);

    const auto feasible = [&](std::uint64_t budget) {
      memtrace::MemReport rep;
      std::vector<cid_t> partition;
      try {
        partition = run_dist(P, overlap, budget, rep);
      } catch (const ResourceExhausted&) {
        return false;
      }
      return rep.peak_total_bytes() <= budget && rep.leak_free() &&
             partition == reference.community;
    };
    // Throws, naming the ceiling, when even the unbudgeted peak is infeasible.
    std::uint64_t min_budget = 0;
    ASSERT_NO_THROW(min_budget = governor::min_feasible_budget(peak, feasible))
        << "P=" << P << " overlap=" << overlap;
    for (const std::uint64_t budget :
         {std::max(peak, min_budget), std::max(peak * 3 / 4, min_budget),
          std::max(peak / 2, min_budget), min_budget}) {
      EXPECT_TRUE(feasible(budget)) << "P=" << P << " overlap=" << overlap
                                    << " budget=" << budget << " peak=" << peak
                                    << " min_feasible=" << min_budget;
    }
  }
}

TEST(DistDifferential, CodecRoundTripsRandomMoveSets) {
  const std::uint64_t base = base_seed();
  for (int trial = 0; trial < 32; ++trial) {
    const std::uint64_t seed = splitmix64(base ^ (0x94d049bb133111ebULL * (trial + 1)));
    const vid_t n = 16 + static_cast<vid_t>(splitmix64(seed) % 5000);
    // Random sorted subset of [0, n) with random destinations.
    std::vector<codec::MoveRecord> moves;
    std::uint64_t s = seed;
    for (vid_t v = 0; v < n; ++v) {
      s = splitmix64(s);
      if (s % 100 < 23) moves.push_back({v, static_cast<cid_t>(splitmix64(s ^ v) % n)});
    }
    std::vector<std::byte> wire;
    codec::encode_moves(moves, wire);
    std::vector<codec::MoveRecord> back;
    codec::decode_moves(wire, n, back);
    ASSERT_EQ(back.size(), moves.size()) << "trial_seed=" << seed << " n=" << n;
    ASSERT_TRUE(std::equal(back.begin(), back.end(), moves.begin()))
        << "trial_seed=" << seed << " n=" << n;
  }
}

TEST(DistDifferential, CodecRejectsEverySingleBitFlip) {
  // A corrupted payload must raise CollectiveFault, never decode garbage.
  const std::uint64_t seed = splitmix64(base_seed() ^ 0xd6e8feb86659fd93ULL);
  constexpr vid_t n = 64;
  std::vector<codec::MoveRecord> moves;
  for (vid_t v = 0; v < n; v += 3) moves.push_back({v, static_cast<cid_t>((v * 7) % n)});
  std::vector<std::byte> wire;
  codec::encode_moves(moves, wire);
  (void)seed;
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::byte> corrupt = wire;
      corrupt[byte] ^= static_cast<std::byte>(1 << bit);
      std::vector<codec::MoveRecord> out;
      EXPECT_THROW(codec::decode_moves(corrupt, n, out), CollectiveFault)
          << "flip at byte " << byte << " bit " << bit << " decoded without fault";
    }
  }
}

}  // namespace
}  // namespace gala::multigpu
