// Extension features: ARI metric, label propagation, the resolution
// parameter, incremental updates, and the CLI argument parser.
#include <gtest/gtest.h>

#include "gala/baselines/label_propagation.hpp"
#include "gala/common/cli.hpp"
#include "gala/core/bsp_louvain.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/incremental.hpp"
#include "gala/core/refinement.hpp"
#include "gala/core/modularity.hpp"
#include "gala/graph/generators.hpp"
#include "gala/metrics/ari.hpp"
#include "gala/metrics/nmi.hpp"
#include "test_util.hpp"

namespace gala {
namespace {

// ---------------------------------------------------------------- ARI ----
TEST(Ari, IdenticalPartitionsScoreOne) {
  const std::vector<cid_t> a = {0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(metrics::adjusted_rand_index(a, a), 1.0, 1e-12);
  const std::vector<cid_t> relabeled = {7, 7, 3, 3, 9, 9};
  EXPECT_NEAR(metrics::adjusted_rand_index(a, relabeled), 1.0, 1e-12);
}

TEST(Ari, IndependentPartitionsScoreNearZero) {
  Xoshiro256 rng(3);
  std::vector<cid_t> a(20000), b(20000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<cid_t>(rng.next_below(8));
    b[i] = static_cast<cid_t>(rng.next_below(8));
  }
  EXPECT_NEAR(metrics::adjusted_rand_index(a, b), 0.0, 0.01);
}

TEST(Ari, PartialAgreementLandsBetween) {
  std::vector<cid_t> a(1000), b(1000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<cid_t>(i % 4);
    b[i] = static_cast<cid_t>(i % 8);  // refinement of a
  }
  const double v = metrics::adjusted_rand_index(a, b);
  EXPECT_GT(v, 0.2);
  EXPECT_LT(v, 1.0);
}

TEST(Ari, MismatchedSizesThrow) {
  const std::vector<cid_t> a = {0};
  const std::vector<cid_t> b = {0, 1};
  EXPECT_THROW(metrics::adjusted_rand_index(a, b), Error);
}

// ------------------------------------------------------------------ LPA ----
TEST(LabelPropagation, FindsSharpCommunities) {
  graph::PlantedPartitionParams p;
  p.num_vertices = 1000;
  p.num_communities = 10;
  p.avg_degree = 16;
  p.mixing = 0.05;
  p.seed = 5;
  std::vector<cid_t> truth;
  const auto g = graph::planted_partition(p, &truth);
  const auto r = baselines::label_propagation(g);
  EXPECT_GT(metrics::nmi(r.labels, truth), 0.9);
  EXPECT_GT(r.iterations, 0);
}

TEST(LabelPropagation, CliquesGetUniformLabels) {
  const auto g = graph::ring_of_cliques(8, 6);
  const auto r = baselines::label_propagation(g);
  for (vid_t c = 0; c < 8; ++c) {
    for (vid_t i = 1; i < 6; ++i) EXPECT_EQ(r.labels[c * 6 + i], r.labels[c * 6]);
  }
}

TEST(LabelPropagation, SynchronousModeTerminates) {
  const auto g = testing::small_planted(7, 400, 8, 0.2);
  baselines::LpaOptions opts;
  opts.synchronous = true;
  const auto r = baselines::label_propagation(g, opts);
  EXPECT_LE(r.iterations, opts.max_iterations);
  EXPECT_GT(r.num_communities, 0u);
}

TEST(LabelPropagation, LouvainBeatsLpaOnModularity) {
  // LPA optimises no objective; on a moderately mixed graph GALA's
  // modularity should dominate.
  const auto g = testing::small_planted(9, 1000, 10, 0.35);
  const auto lpa = baselines::label_propagation(g);
  const auto gala = core::run_louvain(g);
  EXPECT_GT(gala.modularity, core::modularity(g, lpa.labels));
}

// ----------------------------------------------------------- resolution ----
TEST(Resolution, HigherGammaYieldsMoreCommunities) {
  const auto g = testing::small_planted(11, 1500, 15, 0.15);
  auto communities_at = [&](double gamma) {
    core::GalaConfig cfg;
    cfg.bsp.resolution = gamma;
    return core::run_louvain(g, cfg).num_communities;
  };
  const vid_t low = communities_at(0.2);
  const vid_t mid = communities_at(1.0);
  const vid_t high = communities_at(25.0);  // planted blocks have no internal
  EXPECT_LE(low, mid);                      // structure, so only a large gamma
  EXPECT_LT(mid, high);                     // splits them
}

TEST(Resolution, GammaOneMatchesClassicModularity) {
  const auto g = testing::small_planted(13);
  std::vector<cid_t> comm(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) comm[v] = v % 5;
  EXPECT_DOUBLE_EQ(core::modularity(g, comm), core::modularity(g, comm, 1.0));
  EXPECT_NE(core::modularity(g, comm, 2.0), core::modularity(g, comm, 1.0));
}

TEST(Resolution, ReportedModularityUsesConfiguredGamma) {
  const auto g = testing::small_planted(15);
  core::GalaConfig cfg;
  cfg.bsp.resolution = 2.0;
  const auto r = core::run_louvain(g, cfg);
  EXPECT_NEAR(r.modularity, core::modularity(g, r.assignment, 2.0), 1e-9);
}

TEST(Resolution, MgPruningStillHasZeroFalseNegativesUnderGamma) {
  const auto g = testing::small_planted(17, 500, 10, 0.25);
  for (const double gamma : {0.5, 2.0}) {
    core::BspConfig cfg;
    cfg.resolution = gamma;
    cfg.track_confusion = true;
    const auto r = core::bsp_phase1(g, cfg);
    std::uint64_t fn = 0;
    for (const auto& it : r.iterations) fn += it.fn;
    EXPECT_EQ(fn, 0u) << "gamma " << gamma;
  }
}

// ----------------------------------------------------------- incremental ----
TEST(Incremental, ApplyEdgeUpdatesInsertAndRemove) {
  const auto g = testing::two_triangles();
  std::vector<core::EdgeUpdate> updates = {
      {0, 4, 2.0, false},        // new cross edge
      {2, 3, 1.0, true},         // remove the bridge
  };
  const auto updated = core::apply_edge_updates(g, updates);
  updated.validate();
  EXPECT_EQ(updated.num_edges(), g.num_edges());  // one added, one removed
  // Edge {0,4} exists with weight 2.
  auto nbrs = updated.neighbors(0);
  auto it = std::find(nbrs.begin(), nbrs.end(), 4u);
  ASSERT_NE(it, nbrs.end());
  EXPECT_DOUBLE_EQ(updated.weights(0)[it - nbrs.begin()], 2.0);
  // Bridge gone.
  auto n2 = updated.neighbors(2);
  EXPECT_EQ(std::find(n2.begin(), n2.end(), 3u), n2.end());
}

TEST(Incremental, RemovingMissingEdgeThrows) {
  const auto g = testing::two_triangles();
  std::vector<core::EdgeUpdate> updates = {{0, 5, 1.0, true}};
  EXPECT_THROW(core::apply_edge_updates(g, updates), Error);
}

// Adversarial batches: the update map is keyed on the *undirected* edge, so
// duplicates, both orientations, and mixed add/remove sequences within one
// batch must fold into a single per-edge weight.
TEST(Incremental, DuplicateUpdatesInOneBatchAccumulate) {
  const auto g = testing::two_triangles();
  std::vector<core::EdgeUpdate> updates = {
      {0, 4, 1.5, false},
      {0, 4, 2.5, false},        // same edge again: weights sum to 4
      {2, 3, 0.5, true},
      {2, 3, 0.5, true},         // two partial removals delete the bridge
  };
  const auto updated = core::apply_edge_updates(g, updates);
  updated.validate();
  auto nbrs = updated.neighbors(0);
  auto it = std::find(nbrs.begin(), nbrs.end(), 4u);
  ASSERT_NE(it, nbrs.end());
  EXPECT_DOUBLE_EQ(updated.weights(0)[it - nbrs.begin()], 4.0);
  auto n2 = updated.neighbors(2);
  EXPECT_EQ(std::find(n2.begin(), n2.end(), 3u), n2.end());
}

TEST(Incremental, OverRemovalDeletesTheEdgeCleanly) {
  const auto g = testing::two_triangles();  // bridge {2,3} has weight 1
  std::vector<core::EdgeUpdate> updates = {{2, 3, 5.0, true}};
  const auto updated = core::apply_edge_updates(g, updates);
  updated.validate();
  EXPECT_EQ(updated.num_edges(), g.num_edges() - 1);
  auto n2 = updated.neighbors(2);
  EXPECT_EQ(std::find(n2.begin(), n2.end(), 3u), n2.end());
  // Total weight never goes negative through over-removal.
  EXPECT_DOUBLE_EQ(updated.total_weight(), g.total_weight() - 1.0);
}

TEST(Incremental, BothOrientationsCollideOnOneEdge) {
  const auto g = testing::two_triangles();
  std::vector<core::EdgeUpdate> updates = {
      {0, 4, 1.0, false},
      {4, 0, 3.0, false},        // {v,u} is the same undirected edge as {u,v}
  };
  const auto updated = core::apply_edge_updates(g, updates);
  updated.validate();
  EXPECT_EQ(updated.num_edges(), g.num_edges() + 1);  // one new edge, not two
  auto nbrs = updated.neighbors(4);
  auto it = std::find(nbrs.begin(), nbrs.end(), 0u);
  ASSERT_NE(it, nbrs.end());
  EXPECT_DOUBLE_EQ(updated.weights(4)[it - nbrs.begin()], 4.0);
  // And a removal addressed with the swapped orientation finds the edge.
  std::vector<core::EdgeUpdate> removal = {{4, 0, 4.0, true}};
  const auto reverted = core::apply_edge_updates(updated, removal);
  EXPECT_EQ(reverted.num_edges(), g.num_edges());
}

TEST(Incremental, SelfLoopUpdatesRideTheSamePath) {
  const auto g = testing::two_triangles();
  std::vector<core::EdgeUpdate> add = {{1, 1, 2.0, false}, {1, 1, 1.0, false}};
  const auto with_loop = core::apply_edge_updates(g, add);
  with_loop.validate();
  EXPECT_DOUBLE_EQ(with_loop.self_loop(1), 3.0);
  EXPECT_DOUBLE_EQ(with_loop.total_weight(), g.total_weight() + 3.0);
  // Partial removal keeps the loop; over-removal erases it.
  std::vector<core::EdgeUpdate> partial = {{1, 1, 1.0, true}};
  const auto reduced = core::apply_edge_updates(with_loop, partial);
  EXPECT_DOUBLE_EQ(reduced.self_loop(1), 2.0);
  std::vector<core::EdgeUpdate> all = {{1, 1, 9.0, true}};
  const auto gone = core::apply_edge_updates(with_loop, all);
  EXPECT_DOUBLE_EQ(gone.self_loop(1), 0.0);
  EXPECT_DOUBLE_EQ(gone.total_weight(), g.total_weight());
}

TEST(Incremental, NonPositiveUpdateWeightThrows) {
  const auto g = testing::two_triangles();
  std::vector<core::EdgeUpdate> zero = {{0, 4, 0.0, false}};
  EXPECT_THROW(core::apply_edge_updates(g, zero), Error);
  std::vector<core::EdgeUpdate> negative = {{0, 4, -1.0, true}};
  EXPECT_THROW(core::apply_edge_updates(g, negative), Error);
}

TEST(Incremental, RepairReachesFullRecomputeQuality) {
  const auto g = testing::small_planted(19, 1500, 15, 0.2);
  const auto initial = core::run_louvain(g);

  // Perturb: a sprinkle of random cross-community edges.
  Xoshiro256 rng(4);
  std::vector<core::EdgeUpdate> updates;
  for (int i = 0; i < 30; ++i) {
    const auto u = static_cast<vid_t>(rng.next_below(g.num_vertices()));
    const auto v = static_cast<vid_t>(rng.next_below(g.num_vertices()));
    if (u != v) updates.push_back({u, v, 1.0, false});
  }

  const auto repaired = core::update_communities(g, initial.assignment, updates);
  const auto updated_graph = core::apply_edge_updates(g, updates);
  const auto scratch = core::run_louvain(updated_graph);
  EXPECT_GT(repaired.modularity, 0.98 * scratch.modularity);
  EXPECT_NEAR(repaired.modularity,
              core::modularity(repaired.graph, repaired.assignment), 1e-9);
}

TEST(Incremental, RepairNeverReturnsLessThanThePartitionItWasGiven) {
  // Synchronous moves can lose modularity, and a warm start is no exception:
  // on these RMAT graphs about one warm round in five ends below the
  // partition it started from. The level loop then folds that partition
  // instead, so no repair returns less than it was given.
  int repairs = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    graph::RmatParams params;
    params.scale = 9;
    params.seed = seed;
    graph::Graph g = graph::rmat(params);
    std::vector<cid_t> assignment = core::run_louvain(g).assignment;
    Xoshiro256 rng(seed);
    for (int epoch = 0; epoch < 4; ++epoch) {
      const auto batch = testing::random_insertions(g.num_vertices(), 50, rng);
      auto repaired = core::update_communities(g, assignment, batch);
      const wt_t given = core::modularity(repaired.graph, assignment);
      const wt_t returned = core::modularity(repaired.graph, repaired.assignment);
      EXPECT_GE(returned, given - 1e-12) << "seed " << seed << " epoch " << epoch;
      EXPECT_NEAR(repaired.modularity, returned, 1e-9) << "seed " << seed << " epoch " << epoch;
      g = std::move(repaired.graph);
      assignment = std::move(repaired.assignment);
      ++repairs;
    }
  }
  EXPECT_EQ(repairs, 80);
}

TEST(Incremental, MgScreensOutTheUntouchedBulk) {
  const auto g = testing::small_planted(21, 3000, 30, 0.15);
  const auto initial = core::run_louvain(g);
  std::vector<core::EdgeUpdate> updates = {{0, g.num_vertices() / 2, 5.0, false}};
  const auto repaired = core::update_communities(g, initial.assignment, updates);
  // The repair should evaluate far fewer vertex-decisions than one full
  // sweep of the graph would.
  EXPECT_LT(repaired.evaluated_vertices, g.num_vertices() / 2);
}

TEST(Incremental, DeletionHeavyBatchSplitsCommunities) {
  // Remove every bridge of a ring of cliques: the repair must keep (or
  // restore) one community per clique, and deletions must not corrupt the
  // graph.
  const auto g = graph::ring_of_cliques(6, 5);
  const auto initial = core::run_louvain(g);
  std::vector<core::EdgeUpdate> updates;
  for (vid_t c = 0; c < 6; ++c) {
    const vid_t from = c * 5 + 4;
    const vid_t to = ((c + 1) % 6) * 5;
    updates.push_back({from, to, 1.0, true});
  }
  const auto repaired = core::update_communities(g, initial.assignment, updates);
  repaired.graph.validate();
  EXPECT_EQ(repaired.graph.num_edges(), g.num_edges() - 6);
  EXPECT_EQ(repaired.num_communities, 6u);
  // Disconnected cliques: every community fully internal -> coverage 1.
  EXPECT_TRUE(core::is_partition_connected(repaired.graph, repaired.assignment));
}

TEST(Incremental, EmptyBatchIsAFixedPointOfRepair) {
  // An empty update batch must reproduce the previous partition exactly:
  // same graph, same communities (canonically renumbered), same modularity.
  // The query layer publishes such batches as new epochs that compare equal.
  const auto g = testing::small_planted(27, 800, 10, 0.2);
  const auto initial = core::run_louvain(g);
  const auto repaired = core::update_communities(g, initial.assignment, {});

  repaired.graph.validate();
  EXPECT_EQ(repaired.graph.num_edges(), g.num_edges());
  EXPECT_DOUBLE_EQ(repaired.graph.total_weight(), g.total_weight());

  std::vector<cid_t> canonical(initial.assignment);
  core::renumber_communities(canonical);
  EXPECT_EQ(repaired.assignment, canonical);
  EXPECT_EQ(repaired.num_communities, initial.num_communities);
  EXPECT_DOUBLE_EQ(repaired.modularity, initial.modularity);
}

TEST(Incremental, BatchTouchingEveryVertexStillBeatsFullRerun) {
  // Worst-case batch width: every vertex is an update endpoint (a ring of
  // new cross-community edges). Modularity-gain pruning still screens out
  // vertices with no profitable move, so the warm repair must pay far fewer
  // vertex evaluations than a from-scratch phase 1 on the updated graph,
  // which grinds down from singletons.
  const auto g = testing::small_planted(29, 1200, 12, 0.2);
  const auto initial = core::run_louvain(g);
  std::vector<core::EdgeUpdate> updates;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    updates.push_back({v, static_cast<vid_t>((v + 1) % g.num_vertices()), 2.0, false});
  }
  const auto repaired = core::update_communities(g, initial.assignment, updates);
  EXPECT_GT(repaired.modularity, 0.0);

  const auto updated = core::apply_edge_updates(g, updates);
  core::BspConfig cfg;
  const auto scratch = core::bsp_phase1(updated, cfg);
  std::uint64_t scratch_evaluated = 0;
  for (const auto& it : scratch.iterations) scratch_evaluated += it.active;
  // From scratch, the first sweep alone evaluates all n vertices; the warm
  // repair must come in strictly under that.
  EXPECT_GE(scratch_evaluated, g.num_vertices());
  EXPECT_LT(repaired.evaluated_vertices, scratch_evaluated);
}

TEST(Incremental, RepeatedRepairOfAnIdenticalPartitionIsIdempotent) {
  // Repairing the repair (with no further updates) must be bit-stable:
  // identical assignment vector, identical modularity — the property that
  // lets the query layer assert equal snapshots for repeated publishes.
  const auto g = testing::small_planted(31, 600, 8, 0.25);
  const auto initial = core::run_louvain(g);
  const auto first = core::update_communities(g, initial.assignment, {});
  const auto second = core::update_communities(g, first.assignment, {});
  EXPECT_EQ(second.assignment, first.assignment);
  EXPECT_EQ(second.num_communities, first.num_communities);
  EXPECT_DOUBLE_EQ(second.modularity, first.modularity);
  EXPECT_EQ(second.repair_iterations, first.repair_iterations);
}

TEST(Extensions, AllFlagsComposeInOnePipelineRun) {
  // refine + vertex_following + resolution together must produce a valid,
  // audited result.
  auto base = testing::small_planted(25, 600, 8, 0.2);
  graph::GraphBuilder b(base.num_vertices() + 20);
  for (vid_t v = 0; v < base.num_vertices(); ++v) {
    auto nbrs = base.neighbors(v);
    auto ws = base.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= v) b.add_edge(v, nbrs[i], ws[i]);
    }
  }
  for (vid_t p = 0; p < 20; ++p) b.add_edge(p * 7, base.num_vertices() + p);  // pendants
  const auto g = b.build();

  core::GalaConfig cfg;
  cfg.refine = true;
  cfg.vertex_following = true;
  cfg.bsp.resolution = 1.5;
  const auto r = core::run_louvain(g, cfg);
  EXPECT_NEAR(r.modularity, core::modularity(g, r.assignment, 1.5), 1e-9);
  EXPECT_TRUE(core::is_partition_connected(g, r.assignment));
  for (const cid_t c : r.assignment) EXPECT_LT(c, r.num_communities);
}

// ------------------------------------------------------------------ CLI ----
TEST(ArgParser, ParsesFlagsOptionsAndPositionals) {
  ArgParser args("prog", "test");
  args.add_flag("verbose", "v").add_option("count", "c", "5").add_positional("input", "file");
  const char* argv[] = {"prog", "--verbose", "file.txt", "--count", "9"};
  ASSERT_TRUE(args.parse(5, argv));
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("input"), "file.txt");
  EXPECT_EQ(args.get_int("count"), 9);
}

TEST(ArgParser, EqualsSyntaxAndDefaults) {
  ArgParser args("prog", "test");
  args.add_option("ratio", "r", "0.5");
  const char* argv[] = {"prog", "--ratio=0.75"};
  ASSERT_TRUE(args.parse(2, argv));
  EXPECT_DOUBLE_EQ(args.get_double("ratio"), 0.75);
  ArgParser defaults("prog", "test");
  defaults.add_option("ratio", "r", "0.5");
  const char* argv2[] = {"prog"};
  ASSERT_TRUE(defaults.parse(1, argv2));
  EXPECT_DOUBLE_EQ(defaults.get_double("ratio"), 0.5);
}

TEST(ArgParser, RejectsUnknownAndMalformed) {
  ArgParser args("prog", "test");
  args.add_option("count", "c", "1");
  const char* bad[] = {"prog", "--nope"};
  EXPECT_FALSE(args.parse(2, bad));
  EXPECT_FALSE(args.error().empty());

  ArgParser args2("prog", "test");
  args2.add_option("count", "c", "1");
  const char* missing_value[] = {"prog", "--count"};
  EXPECT_FALSE(args2.parse(2, missing_value));

  ArgParser args3("prog", "test");
  args3.add_option("count", "c", "1");
  const char* argv3[] = {"prog", "--count", "xyz"};
  ASSERT_TRUE(args3.parse(3, argv3));
  EXPECT_THROW(args3.get_int("count"), Error);
}

TEST(ArgParser, MissingRequiredPositionalFails) {
  ArgParser args("prog", "test");
  args.add_positional("input", "file");
  const char* argv[] = {"prog"};
  EXPECT_FALSE(args.parse(1, argv));
}

TEST(ArgParser, LaterValueWins) {
  ArgParser args("prog", "test");
  args.add_option("count", "c", "1");
  const char* argv[] = {"prog", "--count", "2", "--count", "3"};
  ASSERT_TRUE(args.parse(5, argv));
  EXPECT_EQ(args.get_int("count"), 3);
}

}  // namespace
}  // namespace gala
