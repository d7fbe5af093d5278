// Randomized differential harness for the query layer: for random graphs,
// random edge-update streams, and random query batches, every executor
// answer must equal a brute-force scan of the same epoch's raw assignment
// vector. The base seed rotates in CI (GALA_DIFF_SEED, derived from the
// commit SHA) exactly like dist_differential_test; re-run locally with
//   GALA_DIFF_SEED=<seed> ./query_differential_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gala/common/prng.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/incremental.hpp"
#include "gala/core/modularity.hpp"
#include "gala/graph/generators.hpp"
#include "gala/query/executor.hpp"
#include "gala/query/store.hpp"
#include "test_util.hpp"

namespace gala::query {
namespace {

std::uint64_t base_seed() {
  if (const char* env = std::getenv("GALA_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260807ULL;  // fixed default: local runs are reproducible as-is
}

struct TrialGraph {
  graph::Graph g;
  std::string recipe;
};

TrialGraph make_graph(std::uint64_t seed) {
  const std::uint64_t pick = splitmix64(seed);
  std::ostringstream recipe;
  if (pick % 2 == 0) {
    graph::PlantedPartitionParams p;
    p.num_vertices = 80 + static_cast<vid_t>(splitmix64(seed ^ 1) % 320);
    p.num_communities = 4 + static_cast<vid_t>(splitmix64(seed ^ 2) % 10);
    p.avg_degree = 6.0 + static_cast<double>(splitmix64(seed ^ 3) % 8);
    p.mixing = 0.1 + 0.05 * static_cast<double>(splitmix64(seed ^ 4) % 6);
    p.seed = seed;
    recipe << "planted{n=" << p.num_vertices << " k=" << p.num_communities
           << " deg=" << p.avg_degree << " mix=" << p.mixing << " seed=" << seed << "}";
    return {graph::planted_partition(p), recipe.str()};
  }
  const vid_t n = 60 + static_cast<vid_t>(splitmix64(seed ^ 5) % 240);
  const eid_t m = static_cast<eid_t>(n) * (2 + splitmix64(seed ^ 6) % 4);
  recipe << "erdos_renyi{n=" << n << " m=" << m << " seed=" << seed << "}";
  return {graph::erdos_renyi(n, m, seed), recipe.str()};
}

/// Random valid update batch against `g`: inserts anywhere, removals only of
/// edges that exist (apply_edge_updates throws on unknown removals).
std::vector<core::EdgeUpdate> make_batch(const graph::Graph& g, std::uint64_t seed) {
  const vid_t n = g.num_vertices();
  std::vector<core::EdgeUpdate> batch;
  std::uint64_t s = seed;
  const int inserts = 1 + static_cast<int>(splitmix64(s ^ 11) % 6);
  for (int i = 0; i < inserts; ++i) {
    const vid_t u = static_cast<vid_t>(splitmix64(s ^ (100 + i)) % n);
    const vid_t v = static_cast<vid_t>(splitmix64(s ^ (200 + i)) % n);
    batch.push_back({u, v, 1.0 + static_cast<wt_t>(splitmix64(s ^ (300 + i)) % 3), false});
  }
  const int removals = static_cast<int>(splitmix64(s ^ 12) % 3);
  for (int i = 0; i < removals; ++i) {
    const vid_t u = static_cast<vid_t>(splitmix64(s ^ (400 + i)) % n);
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    const vid_t v = nbrs[splitmix64(s ^ (500 + i)) % nbrs.size()];
    batch.push_back({u, v, 0.5, true});
  }
  return batch;
}

// ------------------------------------------------- brute-force answers ----
std::vector<vid_t> brute_sizes(std::span<const cid_t> raw, cid_t k) {
  std::vector<vid_t> sizes(k, 0);
  for (cid_t c : raw) ++sizes[c];
  return sizes;
}

std::vector<vid_t> brute_members(std::span<const cid_t> raw, cid_t c) {
  std::vector<vid_t> out;
  for (vid_t v = 0; v < raw.size(); ++v) {
    if (raw[v] == c) out.push_back(v);
  }
  return out;
}

std::vector<cid_t> brute_top_order(std::span<const cid_t> raw, cid_t k) {
  const auto sizes = brute_sizes(raw, k);
  std::vector<cid_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](cid_t a, cid_t b) {
    if (sizes[a] != sizes[b]) return sizes[a] > sizes[b];
    return a < b;
  });
  return order;
}

/// Brute diff: v moved iff the exact member set of its community changed.
std::vector<vid_t> brute_moved(std::span<const cid_t> from, std::span<const cid_t> to) {
  std::vector<vid_t> moved;
  for (vid_t v = 0; v < from.size(); ++v) {
    const auto before = brute_members(from, from[v]);
    const auto after = brute_members(to, to[v]);
    if (before != after) moved.push_back(v);
  }
  return moved;
}

TEST(QueryDifferential, ExecutorMatchesBruteForceOverRandomUpdateStreams) {
  const std::uint64_t base = base_seed();
  std::cout << "[harness] GALA_DIFF_SEED=" << base << "\n";
  constexpr int kTrials = 5;
  constexpr int kEpochsPerTrial = 5;

  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = splitmix64(base ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
    TrialGraph tg = make_graph(seed);
    const std::string repro =
        "repro: GALA_DIFF_SEED=" + std::to_string(base) + " trial_seed=" + std::to_string(seed) +
        " graph=" + tg.recipe;

    StoreOptions opts;
    opts.max_retained = kEpochsPerTrial + 1;
    CommunityStore store(opts);
    // Two executors: one always inline, one forced through the thread pool
    // (tiny grain) — answers must agree with brute force either way.
    QueryExecutor inline_exec(store, nullptr, /*grain=*/1u << 20);
    QueryExecutor pooled_exec(store, nullptr, /*grain=*/16);

    graph::Graph current = tg.g;
    auto louvain = core::run_louvain(current);
    std::vector<cid_t> assignment = louvain.assignment;
    store.publish(current, louvain);
    for (int e = 1; e < kEpochsPerTrial; ++e) {
      const auto batch = make_batch(current, splitmix64(seed ^ (7777ULL * e)));
      auto repaired = core::update_communities(current, assignment, batch);
      store.publish(repaired);
      current = std::move(repaired.graph);
      assignment = std::move(repaired.assignment);
    }
    ASSERT_EQ(store.latest_epoch(), static_cast<std::uint64_t>(kEpochsPerTrial)) << repro;

    for (std::uint64_t epoch = 1; epoch <= store.latest_epoch(); ++epoch) {
      SnapshotRef snap = store.at(epoch);
      ASSERT_TRUE(snap) << repro;
      ASSERT_EQ(snap->validate(), "") << repro;
      const auto raw = snap->assignment();
      const cid_t k = snap->num_communities();
      const auto sizes = brute_sizes(raw, k);

      // Random query batch with repeats.
      std::vector<vid_t> queries(64);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        queries[i] = static_cast<vid_t>(splitmix64(seed ^ epoch ^ (i * 131)) % raw.size());
      }
      for (const QueryExecutor* exec : {&inline_exec, &pooled_exec}) {
        const auto communities = exec->community_of(*snap, queries);
        const auto query_sizes = exec->community_size_of(*snap, queries);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          ASSERT_EQ(communities[i], raw[queries[i]]) << repro << " epoch=" << epoch;
          ASSERT_EQ(query_sizes[i], sizes[raw[queries[i]]]) << repro << " epoch=" << epoch;
        }

        const cid_t probe = static_cast<cid_t>(splitmix64(seed ^ epoch ^ 99) % k);
        ASSERT_EQ(exec->members(*snap, probe), brute_members(raw, probe))
            << repro << " epoch=" << epoch;

        const std::size_t top = 1 + splitmix64(seed ^ epoch ^ 55) % (k + 2);
        const auto got = exec->top_k(*snap, top);
        const auto order = brute_top_order(raw, k);
        ASSERT_EQ(got.size(), std::min<std::size_t>(top, k)) << repro;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].community, order[i]) << repro << " epoch=" << epoch << " i=" << i;
          ASSERT_EQ(got[i].size, sizes[order[i]]) << repro << " epoch=" << epoch;
        }
      }
    }

    // Cross-epoch diffs, every retained pair (i < j), against the brute
    // membership-set definition.
    for (std::uint64_t i = 1; i <= store.latest_epoch(); ++i) {
      for (std::uint64_t j = i; j <= store.latest_epoch(); ++j) {
        SnapshotRef from = store.at(i);
        SnapshotRef to = store.at(j);
        ASSERT_TRUE(from && to) << repro;
        const auto got = pooled_exec.diff(*from, *to);
        const auto want = brute_moved(from->assignment(), to->assignment());
        ASSERT_EQ(got.moved, want) << repro << " diff(" << i << "," << j << ")";
        // Diff is symmetric in *which* vertices changed membership.
        const auto rev = inline_exec.diff(*to, *from);
        ASSERT_EQ(rev.moved, want) << repro << " reverse diff(" << j << "," << i << ")";
      }
    }
  }
}

TEST(QueryDifferential, SparseLabelSpacesCanonicaliseIdentically) {
  // Publishing wild sparse labels must yield the same canonical snapshot as
  // publishing the pre-renumbered assignment.
  const std::uint64_t base = base_seed();
  for (int trial = 0; trial < 4; ++trial) {
    const std::uint64_t seed = splitmix64(base ^ (0xda942042e4dd58b5ULL * (trial + 1)));
    const auto g = testing::small_planted(seed % 1000, 200, 6, 0.2);
    std::vector<cid_t> sparse(g.num_vertices());
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      // Few distinct, widely-scattered labels.
      sparse[v] = static_cast<cid_t>((splitmix64(seed ^ (v % 7)) % 0x3fffffff) | 1u);
    }
    StoreOptions opts;
    opts.max_retained = 2;
    CommunityStore store(opts);
    store.publish(g, sparse);
    std::vector<cid_t> canonical(sparse.begin(), sparse.end());
    core::renumber_communities(canonical);
    store.publish(g, canonical);
    SnapshotRef a = store.at(1);
    SnapshotRef b = store.at(2);
    ASSERT_TRUE(a && b);
    EXPECT_TRUE(a->same_partition(*b)) << "trial_seed=" << seed;
    EXPECT_EQ(std::vector<cid_t>(a->assignment().begin(), a->assignment().end()), canonical)
        << "trial_seed=" << seed;
  }
}

}  // namespace
}  // namespace gala::query
