// Matrix Market / METIS loaders and the vertex reordering utilities.
#include <gtest/gtest.h>

#include <fstream>

#include "gala/core/gala.hpp"
#include "gala/graph/formats.hpp"
#include "gala/graph/reorder.hpp"
#include "test_util.hpp"

namespace gala::graph {
namespace {

/// Loader tests write their inputs into a directory of their own.
class FormatFileTest : public ::testing::Test {
 protected:
  std::string temp_file(const std::string& name, const std::string& content) const {
    const std::string path = tmp_.file(name);
    std::ofstream(path) << content;
    return path;
  }

  testing::ScopedTempDir tmp_;
};
using MatrixMarket = FormatFileTest;
using Metis = FormatFileTest;

TEST_F(MatrixMarket, LoadsSymmetricWeighted) {
  const auto path = temp_file("sym.mtx",
                              "%%MatrixMarket matrix coordinate real symmetric\n"
                              "% a comment\n"
                              "4 4 3\n"
                              "2 1 1.5\n"
                              "3 2 2.0\n"
                              "4 1 0.5\n");
  const Graph g = load_matrix_market(path);
  g.validate();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(g.weights(0)[0], 1.5);  // edge {0,1}
}

TEST_F(MatrixMarket, PatternEntriesGetUnitWeight) {
  const auto path = temp_file("pat.mtx",
                              "%%MatrixMarket matrix coordinate pattern symmetric\n"
                              "3 3 2\n"
                              "2 1\n"
                              "3 1\n");
  const Graph g = load_matrix_market(path);
  EXPECT_DOUBLE_EQ(g.total_weight(), 2.0);
}

TEST_F(MatrixMarket, GeneralMatricesAreSymmetrisedBySumming) {
  const auto path = temp_file("gen.mtx",
                              "%%MatrixMarket matrix coordinate real general\n"
                              "2 2 2\n"
                              "1 2 1.0\n"
                              "2 1 2.0\n");
  const Graph g = load_matrix_market(path);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.weights(0)[0], 3.0);
}

TEST_F(MatrixMarket, DiagonalBecomesSelfLoop) {
  const auto path = temp_file("diag.mtx",
                              "%%MatrixMarket matrix coordinate real symmetric\n"
                              "2 2 2\n"
                              "1 1 4.0\n"
                              "2 1 1.0\n");
  const Graph g = load_matrix_market(path);
  EXPECT_DOUBLE_EQ(g.self_loop(0), 4.0);
}

TEST_F(MatrixMarket, RejectsMalformedInput) {
  EXPECT_THROW(load_matrix_market(temp_file("bad1.mtx", "not a banner\n1 1 0\n")), Error);
  EXPECT_THROW(load_matrix_market(temp_file(
                   "bad2.mtx", "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n")),
               Error);
  EXPECT_THROW(load_matrix_market(temp_file(
                   "bad3.mtx",
                   "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 2 1.0\n")),
               Error);  // truncated
}

TEST_F(Metis, RoundTripThroughSaveAndLoad) {
  const Graph g = testing::small_planted(5, 200, 4, 0.2);
  const auto path = tmp_.file("round.graph");
  save_metis(g, path);
  const Graph loaded = load_metis(path);
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_NEAR(loaded.total_weight(), g.total_weight(), 1e-9);
  loaded.validate();
}

TEST_F(Metis, LoadsUnweightedListing) {
  const auto path = temp_file("plain.graph",
                              "% triangle plus pendant\n"
                              "4 4 0\n"
                              "2 3\n"
                              "1 3\n"
                              "1 2 4\n"
                              "3\n");
  const Graph g = load_metis(path);
  g.validate();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST_F(Metis, HeaderEdgeCountMismatchThrows) {
  const auto path = temp_file("mismatch.graph", "3 5 0\n2\n1 3\n2\n");
  EXPECT_THROW(load_metis(path), Error);
}

TEST_F(Metis, SelfLoopsRejectedOnSave) {
  GraphBuilder b(2);
  b.add_edge(0, 0, 1.0);
  b.add_edge(0, 1, 1.0);
  const Graph g = b.build();
  EXPECT_THROW(save_metis(g, tmp_.file("loops.graph")), Error);
}

// ------------------------------------------------------------- reorder ----

TEST(Reorder, DegreeDescendingPutsHubsFirst) {
  GraphBuilder b(5);
  for (vid_t v = 1; v < 5; ++v) b.add_edge(0, v);  // star: 0 is the hub
  b.add_edge(1, 2);
  const Graph g = b.build();
  const auto perm = degree_descending_order(g);
  validate_permutation(perm, 5);
  EXPECT_EQ(perm[0], 0u);  // hub gets rank 0
  const Graph h = apply_permutation(g, perm);
  for (vid_t v = 1; v < h.num_vertices(); ++v) {
    EXPECT_LE(h.out_degree(v), h.out_degree(v - 1));
  }
}

TEST(Reorder, BfsOrderIsAValidPermutationCoveringComponents) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);  // second component; vertex 5 isolated
  const Graph g = b.build();
  const auto perm = bfs_order(g, 0);
  validate_permutation(perm, 6);
  EXPECT_EQ(perm[0], 0u);
  EXPECT_LT(perm[1], perm[2]);  // BFS layers respected
}

TEST(Reorder, PermutedGraphIsIsomorphic) {
  const Graph g = testing::small_planted(7, 300, 6, 0.25);
  const auto perm = degree_descending_order(g);
  const Graph h = apply_permutation(g, perm);
  h.validate();
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_NEAR(h.total_weight(), g.total_weight(), 1e-9);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(h.out_degree(perm[v]), g.out_degree(v));
    EXPECT_NEAR(h.degree(perm[v]), g.degree(v), 1e-12);
  }
}

TEST(Reorder, CommunityDetectionIsOrderInvariantUpToRelabeling) {
  // Louvain results depend on id-based tie-breaks, so partitions may differ
  // slightly across orders — but quality must match closely.
  const Graph g = testing::small_planted(9, 800, 8, 0.2);
  const auto direct = core::run_louvain(g);
  const auto perm = bfs_order(g, 0);
  const Graph h = apply_permutation(g, perm);
  const auto permuted = core::run_louvain(h);
  const auto back = unpermute_assignment(perm, permuted.assignment);
  EXPECT_NEAR(core::modularity(g, back), direct.modularity, 0.03);
}

TEST(Reorder, UnpermuteInvertsApply) {
  const Graph g = testing::small_planted(11, 100, 4, 0.2);
  const auto perm = degree_descending_order(g);
  // Build an assignment keyed by permuted ids, then map back.
  std::vector<cid_t> permuted(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) permuted[v] = v % 3;
  const auto original = unpermute_assignment(perm, permuted);
  for (vid_t old_id = 0; old_id < g.num_vertices(); ++old_id) {
    EXPECT_EQ(original[old_id], permuted[perm[old_id]]);
  }
}

TEST(Reorder, RejectsInvalidPermutations) {
  const Graph g = testing::two_triangles();
  Permutation bad = {0, 1, 2, 3, 4, 4};  // repeated
  EXPECT_THROW(apply_permutation(g, bad), Error);
  Permutation short_perm = {0, 1};
  EXPECT_THROW(apply_permutation(g, short_perm), Error);
}

}  // namespace
}  // namespace gala::graph
