// Cross-implementation consistency fuzzing: on randomized graphs spanning
// several generator families, every engine variant must agree with the
// deterministic single-threaded reference bit-for-bit (same decide
// semantics), and all quality invariants must hold.
#include <gtest/gtest.h>

#include "gala/baselines/baseline.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/modularity.hpp"
#include "gala/core/sequential_louvain.hpp"
#include "gala/graph/generators.hpp"
#include "gala/metrics/nmi.hpp"
#include "gala/multigpu/dist_louvain.hpp"

namespace gala {
namespace {

struct FuzzCase {
  const char* family;
  std::uint64_t seed;
};

graph::Graph make_graph(const FuzzCase& c) {
  Xoshiro256 rng(c.seed * 7919);
  const std::string family = c.family;
  if (family == "planted") {
    graph::PlantedPartitionParams p;
    p.num_vertices = 200 + static_cast<vid_t>(rng.next_below(600));
    p.num_communities = 2 + static_cast<vid_t>(rng.next_below(20));
    p.avg_degree = 6 + static_cast<double>(rng.next_below(20));
    p.mixing = 0.05 + 0.5 * rng.next_double();
    p.degree_exponent = rng.next_double() < 0.5 ? 0.0 : 2.2;
    p.seed = c.seed;
    return graph::planted_partition(p);
  }
  if (family == "er") {
    const vid_t n = 100 + static_cast<vid_t>(rng.next_below(400));
    return graph::erdos_renyi(n, static_cast<eid_t>(n) * (2 + rng.next_below(8)), c.seed);
  }
  if (family == "rmat") {
    graph::RmatParams p;
    p.scale = 8 + static_cast<int>(rng.next_below(3));
    p.edge_factor = 4 + static_cast<double>(rng.next_below(8));
    p.seed = c.seed;
    return graph::rmat(p);
  }
  graph::LfrParams p;
  p.num_vertices = 500 + static_cast<vid_t>(rng.next_below(1000));
  p.mixing = 0.1 + 0.4 * rng.next_double();
  p.min_community = 10;
  p.max_community = 200;
  p.seed = c.seed;
  std::vector<cid_t> truth;
  return graph::lfr(p, truth);
}

class CrossImplementationFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(CrossImplementationFuzz, AllEnginesAgreeAndInvariantsHold) {
  const auto g = make_graph(GetParam());
  ASSERT_GT(g.total_weight(), 0.0);
  g.validate();

  // Reference: deterministic sequential-launch engine.
  core::BspConfig ref_cfg;
  ref_cfg.parallel = false;
  const auto ref = core::bsp_phase1(g, ref_cfg);

  // 1. Parallel engine agrees bit-for-bit.
  const auto par = core::bsp_phase1(g, {});
  EXPECT_EQ(par.community, ref.community);

  // 2. Distributed engine (3 devices) agrees bit-for-bit.
  multigpu::DistributedConfig dist_cfg;
  dist_cfg.num_gpus = 3;
  const auto dist = multigpu::distributed_phase1(g, dist_cfg);
  EXPECT_EQ(dist.phase1.community, ref.community);

  // 3. Hash-only with every hashtable policy agrees.
  for (const auto policy : {core::HashTablePolicy::GlobalOnly, core::HashTablePolicy::Unified,
                            core::HashTablePolicy::Hierarchical}) {
    core::BspConfig cfg;
    cfg.kernel = core::KernelMode::HashOnly;
    cfg.hashtable = policy;
    EXPECT_EQ(core::bsp_phase1(g, cfg).community, ref.community) << to_string(policy);
  }

  // 4. Reported modularity matches the independent audit.
  EXPECT_NEAR(ref.modularity, core::modularity(g, ref.community), 1e-9);

  // 5. The full pipeline never scores below its own phase 1 and lands in
  //    the sequential reference's quality regime.
  const auto full = core::run_louvain(g);
  EXPECT_GE(full.modularity + 1e-9, ref.modularity);
  const auto seq = core::sequential_louvain(g);
  // BSP Louvain trails the sequential sweep most on structureless low-Q
  // graphs (cf. the paper's TW results), so the bound is relative with an
  // absolute floor.
  EXPECT_GT(full.modularity, seq.modularity - std::max(0.09, 0.15 * seq.modularity));

  // 6. Assignment is dense and covering.
  for (const cid_t c : full.assignment) EXPECT_LT(c, full.num_communities);
}

INSTANTIATE_TEST_SUITE_P(
    Families, CrossImplementationFuzz,
    ::testing::Values(FuzzCase{"planted", 1}, FuzzCase{"planted", 2}, FuzzCase{"planted", 3},
                      FuzzCase{"er", 4}, FuzzCase{"er", 5}, FuzzCase{"rmat", 6},
                      FuzzCase{"rmat", 7}, FuzzCase{"lfr", 8}, FuzzCase{"lfr", 9},
                      FuzzCase{"planted", 10}),
    [](const auto& info) {
      return std::string(info.param.family) + "_" + std::to_string(info.param.seed);
    });

TEST(BaselineParityFuzz, EverySystemMatchesGalaOnRandomGraphs) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const auto g = make_graph({"planted", seed});
    const auto all = baselines::run_all_systems(g, {});
    const auto& gala = all.back();
    for (const auto& r : all) {
      EXPECT_EQ(r.community, gala.community) << r.name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace gala
