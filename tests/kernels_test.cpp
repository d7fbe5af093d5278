// The two DecideAndMove kernels against a brute-force reference: identical
// best-community decisions on randomized states, across degrees spanning
// the single-warp and multi-chunk regimes, plus the shared move guard.
#include "gala/core/kernels.hpp"

#include <gtest/gtest.h>

#include <map>
#include <type_traits>

#include "gala/common/prng.hpp"
#include "gala/graph/generators.hpp"
#include "test_util.hpp"

namespace gala::core {
namespace {

/// Brute-force DecideAndMove: exact per-community weights via std::map.
Decision reference_decide(const DecideInput& in, vid_t v) {
  const graph::Graph& g = *in.g;
  const cid_t curr = in.comm[v];
  const wt_t dv = g.degree(v);
  std::map<cid_t, wt_t> acc;
  auto nbrs = g.neighbors(v);
  auto ws = g.weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] != v) acc[in.comm[nbrs[i]]] += ws[i];
  }
  Decision d;
  d.weight_to_curr = acc.count(curr) ? acc[curr] : 0;
  d.curr_score = move_score(d.weight_to_curr, in.comm_total[curr], dv, in.two_m, true);
  d.best = kInvalidCid;
  for (const auto& [c, w] : acc) {
    const wt_t score = move_score(w, in.comm_total[c], dv, in.two_m, c == curr);
    if (d.best == kInvalidCid || score > d.best_score || (score == d.best_score && c < d.best)) {
      d.best = c;
      d.best_score = score;
    }
  }
  if (d.best == kInvalidCid) {
    d.best = curr;
    d.best_score = d.curr_score;
  }
  return d;
}

/// Randomized state: each vertex in one of k communities.
struct State {
  std::vector<cid_t> comm;
  std::vector<wt_t> comm_total;
};

State random_state(const graph::Graph& g, cid_t k, std::uint64_t seed) {
  State s;
  s.comm.resize(g.num_vertices());
  s.comm_total.assign(g.num_vertices(), 0);
  Xoshiro256 rng(seed);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    s.comm[v] = static_cast<cid_t>(rng.next_below(k));
    s.comm_total[s.comm[v]] += g.degree(v);
  }
  return s;
}

void expect_same_decision(const Decision& got, const Decision& want, vid_t v) {
  EXPECT_EQ(got.best, want.best) << "vertex " << v;
  EXPECT_NEAR(got.best_score, want.best_score, 1e-9) << "vertex " << v;
  EXPECT_NEAR(got.curr_score, want.curr_score, 1e-9) << "vertex " << v;
  EXPECT_NEAR(got.weight_to_curr, want.weight_to_curr, 1e-9) << "vertex " << v;
}

// gtest names each case after the bytes of its parameter, so the alignment
// gaps are spelled out as zeroed fields: implicit padding is uninitialised
// and would give the same case a different name from build to build.
struct KernelCase {
  KernelCase(vid_t n_, eid_t m_, cid_t k_, std::uint64_t seed_)
      : n(n_), m(m_), k(k_), seed(seed_) {}

  vid_t n;
  std::uint32_t n_pad = 0;
  eid_t m;
  cid_t k;
  std::uint32_t k_pad = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<KernelCase>,
              "every byte of KernelCase must be a zero-initialised field");

class KernelAgreement : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelAgreement, BothKernelsMatchBruteForce) {
  const auto param = GetParam();
  const auto g = graph::erdos_renyi(param.n, param.m, param.seed);
  const State s = random_state(g, param.k, param.seed ^ 7);
  const DecideInput input{&g, s.comm, s.comm_total, g.two_m()};

  gpusim::SharedMemoryArena arena(48 * 1024);
  HashScratch scratch;
  gpusim::MemoryStats stats;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const Decision want = reference_decide(input, v);
    arena.reset();
    expect_same_decision(shuffle_decide(input, v, arena, stats), want, v);
    for (const auto policy : {HashTablePolicy::GlobalOnly, HashTablePolicy::Unified,
                              HashTablePolicy::Hierarchical}) {
      arena.reset();
      expect_same_decision(hash_decide(input, v, policy, arena, scratch, 99, stats), want, v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegreeRegimes, KernelAgreement,
    ::testing::Values(KernelCase{40, 80, 5, 1},      // small degrees, single warp
                      KernelCase{60, 900, 4, 2},     // medium degrees around 32
                      KernelCase{50, 1100, 12, 3},   // multi-chunk shuffle path
                      KernelCase{30, 420, 29, 4},    // nearly one community per vertex
                      KernelCase{64, 2000, 2, 5}));  // dense, few communities

TEST(Kernels, SelfLoopsAreExcludedFromDecisions) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 0, 100.0);  // huge self-loop must not attract anyone
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  const auto g = b.build();
  State s = random_state(g, 3, 11);
  s.comm = {0, 1, 2};
  s.comm_total.assign(3, 0);
  for (vid_t v = 0; v < 3; ++v) s.comm_total[s.comm[v]] += g.degree(v);
  const DecideInput input{&g, s.comm, s.comm_total, g.two_m()};
  gpusim::SharedMemoryArena arena(48 * 1024);
  HashScratch scratch;
  gpusim::MemoryStats stats;
  const Decision d = shuffle_decide(input, 0, arena, stats);
  // Vertex 0's own self-loop contributes nothing to e_{0,C}.
  EXPECT_DOUBLE_EQ(d.weight_to_curr, 0.0);
  expect_same_decision(d, reference_decide(input, 0), 0);
}

TEST(Kernels, ShuffleChargesRegistersHashChargesTables) {
  const auto g = graph::erdos_renyi(40, 200, 3);
  const State s = random_state(g, 6, 3);
  const DecideInput input{&g, s.comm, s.comm_total, g.two_m()};
  gpusim::SharedMemoryArena arena(48 * 1024);
  HashScratch scratch;

  gpusim::MemoryStats shuffle_stats;
  gpusim::MemoryStats hash_stats;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    arena.reset();
    shuffle_decide(input, v, arena, shuffle_stats);
    arena.reset();
    hash_decide(input, v, HashTablePolicy::Hierarchical, arena, scratch, 1, hash_stats);
  }
  EXPECT_GT(shuffle_stats.shuffle_ops, 0u);
  EXPECT_EQ(hash_stats.shuffle_ops, 0u);
  EXPECT_GT(hash_stats.ht_access_shared + hash_stats.ht_access_global, 0u);
}

TEST(MoveGuard, MovesOnlyOnStrictImprovement) {
  std::vector<vid_t> sizes = {2, 2};
  Decision d;
  d.best = 1;
  d.best_score = 1.0;
  d.curr_score = 1.0;  // tie: stay (Lemma 5 convention)
  EXPECT_EQ(apply_move_guard(d, 0, sizes), 0u);
  d.best_score = 1.5;
  EXPECT_EQ(apply_move_guard(d, 0, sizes), 1u);
  d.best_score = 0.5;
  EXPECT_EQ(apply_move_guard(d, 0, sizes), 0u);
}

TEST(MoveGuard, SingletonSwapOnlyTowardSmallerId) {
  std::vector<vid_t> sizes = {1, 1, 5};
  Decision up;
  up.best = 1;
  up.best_score = 2.0;
  up.curr_score = 0.0;
  EXPECT_EQ(apply_move_guard(up, 0, sizes), 0u) << "singleton->singleton upward blocked";
  Decision down = up;
  down.best = 0;
  EXPECT_EQ(apply_move_guard(down, 1, sizes), 0u) << "downward allowed";
  // Moving into a non-singleton community is always allowed on gain.
  Decision into_big = up;
  into_big.best = 2;
  EXPECT_EQ(apply_move_guard(into_big, 0, sizes), 2u);
}

TEST(MoveGuard, InvalidBestStays) {
  std::vector<vid_t> sizes = {1};
  Decision d;  // best = kInvalidCid
  EXPECT_EQ(apply_move_guard(d, 0, sizes), 0u);
}

}  // namespace
}  // namespace gala::core
