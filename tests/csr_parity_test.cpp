// The graph paths that adopt a sorted CSR instead of rebuilding it through
// GraphBuilder must produce the rebuilt graph bit for bit:
//  - apply_edge_updates, against the retired std::map + GraphBuilder
//    implementation kept below verbatim, over randomized batches;
//  - load_binary, against the graph that was saved.
//
// The batch seed rotates in CI (GALA_DIFF_SEED, derived from the commit SHA);
// every assertion prints the reproducing tuple. Re-run locally with
//   GALA_DIFF_SEED=<seed> ./csr_parity_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gala/common/prng.hpp"
#include "gala/core/aggregation.hpp"
#include "gala/core/incremental.hpp"
#include "gala/graph/generators.hpp"
#include "gala/graph/io.hpp"
#include "test_util.hpp"

namespace gala {
namespace {

using core::EdgeUpdate;
using testing::expect_same_graph;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("GALA_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20261017ULL;  // fixed default: local runs are reproducible as-is
}

std::uint64_t legacy_edge_key(vid_t u, vid_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// The retired apply_edge_updates, verbatim: copy the upper triangle into a
/// std::map, apply the batch in order, rebuild through GraphBuilder.
graph::Graph legacy_apply_edge_updates(const graph::Graph& g,
                                       std::span<const EdgeUpdate> updates) {
  const vid_t n = g.num_vertices();
  // Collect the undirected edge map once, apply deltas, rebuild.
  std::map<std::uint64_t, wt_t> edges;
  for (vid_t v = 0; v < n; ++v) {
    auto nbrs = g.neighbors(v);
    auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= v) edges[legacy_edge_key(v, nbrs[i])] = ws[i];
    }
  }
  for (const EdgeUpdate& u : updates) {
    GALA_CHECK(u.u < n && u.v < n, "update touches vertex outside the graph");
    GALA_CHECK(u.weight > 0, "update weight must be positive");
    const std::uint64_t key = legacy_edge_key(u.u, u.v);
    if (u.remove) {
      auto it = edges.find(key);
      GALA_CHECK(it != edges.end(), "removing non-existent edge {" << u.u << "," << u.v << "}");
      it->second -= u.weight;
      if (it->second <= 1e-12) edges.erase(it);
    } else {
      edges[key] += u.weight;
    }
  }
  graph::GraphBuilder builder(n);
  for (const auto& [key, w] : edges) {
    builder.add_edge(static_cast<vid_t>(key >> 32), static_cast<vid_t>(key & 0xffffffffu), w);
  }
  return builder.build();
}

/// A unit-weight planted graph, an RMAT graph, and the weighted coarse graph
/// (self-loops, inexact weights) of a fractionally weighted graph.
std::vector<std::pair<std::string, graph::Graph>> parity_graphs(std::uint64_t seed) {
  std::vector<std::pair<std::string, graph::Graph>> out;
  out.emplace_back("planted", testing::small_planted(seed, 300, 6, 0.2));
  graph::RmatParams rp;
  rp.scale = 8;
  rp.seed = seed;
  out.emplace_back("rmat", graph::rmat(rp));

  Xoshiro256 rng(seed ^ 0x5eed);
  const vid_t n = 240;
  graph::GraphBuilder b(n);
  for (int i = 0; i < 1500; ++i) {
    b.add_edge(static_cast<vid_t>(rng.next_below(n)), static_cast<vid_t>(rng.next_below(n)),
               0.05 + 2.0 * rng.next_double());
  }
  const graph::Graph fine = b.build();
  std::vector<cid_t> community(n);
  for (vid_t v = 0; v < n; ++v) community[v] = static_cast<cid_t>(rng.next_below(40));
  out.emplace_back("coarse", core::aggregate(fine, community).coarse);
  return out;
}

/// A random valid batch over `g`: every kind of update the fold must order
/// exactly as the legacy map did. `edges` shadows the legacy map so removals
/// only target edges present at that point of the batch.
std::vector<EdgeUpdate> random_batch(const graph::Graph& g, Xoshiro256& rng, std::size_t size) {
  const vid_t n = g.num_vertices();
  std::map<std::pair<vid_t, vid_t>, wt_t> edges;
  for (vid_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < g.neighbors(v).size(); ++i) {
      if (g.neighbors(v)[i] >= v) edges[{v, g.neighbors(v)[i]}] = g.weights(v)[i];
    }
  }
  std::vector<EdgeUpdate> batch;
  const auto push = [&](vid_t u, vid_t v, wt_t w, bool remove) {
    batch.push_back({u, v, w, remove});
    const std::pair<vid_t, vid_t> key = std::minmax(u, v);
    if (!remove) {
      edges[key] += w;
    } else if ((edges[key] -= w) <= 1e-12) {
      edges.erase(key);
    }
  };
  const auto flip = [&](vid_t& u, vid_t& v) {
    if (rng.next_below(2) == 1) std::swap(u, v);
  };
  const auto weight = [&] { return 0.1 + 3.0 * rng.next_double(); };
  const auto random_vertex = [&] { return static_cast<vid_t>(rng.next_below(n)); };
  const auto existing = [&]() -> std::pair<vid_t, vid_t> {
    auto it = edges.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(edges.size())));
    return it->first;
  };

  while (batch.size() < size) {
    vid_t u = random_vertex();
    vid_t v = random_vertex();
    switch (rng.next_below(9)) {
      case 0:  // new or existing edge, either orientation
        push(u, v, weight(), false);
        break;
      case 1:  // the same edge twice, once in each orientation
        push(u, v, weight(), false);
        push(v, u, weight(), false);
        break;
      case 2: {  // partial removal of an existing edge
        if (edges.empty()) break;
        std::tie(u, v) = existing();
        flip(u, v);
        push(u, v, edges[std::minmax(u, v)] * (0.1 + 0.8 * rng.next_double()), true);
        break;
      }
      case 3: {  // over-removal, then add back: starts from 0
        if (edges.empty()) break;
        std::tie(u, v) = existing();
        push(u, v, edges[std::minmax(u, v)] + weight(), true);
        if (rng.next_below(2) == 1) push(v, u, weight(), false);
        break;
      }
      case 4: {  // exact removal (leaves 0 <= 1e-12)
        if (edges.empty()) break;
        std::tie(u, v) = existing();
        flip(u, v);
        push(u, v, edges[std::minmax(u, v)], true);
        break;
      }
      case 5:  // self-loop add, partial removal, over-removal
        push(u, u, weight(), false);
        push(u, u, edges[{u, u}] * 0.25, true);
        if (rng.next_below(2) == 1) push(u, u, edges[{u, u}] * 2.0, true);
        break;
      case 6:  // remove an edge added earlier in the same batch
        push(u, v, weight(), false);
        push(v, u, edges[std::minmax(u, v)] * (rng.next_below(2) == 1 ? 0.5 : 1.5), true);
        break;
      case 7:  // a removal that leaves a tiny positive remainder
        if (edges.empty()) break;
        std::tie(u, v) = existing();
        push(u, v, edges[std::minmax(u, v)] * (1.0 - 1e-9), true);
        break;
      default:  // exactly representable weights
        push(u, v, 1.0, false);
        break;
    }
  }
  return batch;
}

TEST(CsrParity, ApplyEdgeUpdatesMatchesLegacyOnRandomBatches) {
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const std::uint64_t seed = splitmix64(base_seed() + trial);
    for (auto& [name, g] : parity_graphs(seed)) {
      Xoshiro256 rng(seed);
      graph::Graph current = std::move(g);
      // Chain the batches so later ones run on graphs the merge produced.
      for (int batch_no = 0; batch_no < 3; ++batch_no) {
        const std::size_t size = batch_no == 0 ? 1 : 40 + rng.next_below(200);
        const auto batch = random_batch(current, rng, size);
        SCOPED_TRACE(::testing::Message()
                     << "repro: GALA_DIFF_SEED=" << base_seed() << " trial=" << trial
                     << " graph=" << name << " batch=" << batch_no);
        const graph::Graph expected = legacy_apply_edge_updates(current, batch);
        graph::Graph merged = core::apply_edge_updates(current, batch);
        expect_same_graph(expected, merged);
        merged.validate();
        current = std::move(merged);
      }
      SCOPED_TRACE(name);
      expect_same_graph(legacy_apply_edge_updates(current, {}),
                        core::apply_edge_updates(current, {}));
    }
  }
}

TEST(CsrParity, ApplyEdgeUpdatesRejectsWhatLegacyRejects) {
  const graph::Graph g = testing::two_triangles();
  const std::vector<std::vector<EdgeUpdate>> bad = {
      {{0, 5, 1.0, true}},                     // absent edge
      {{0, 1, 1.0, true}, {1, 0, 1.0, true}},  // erased earlier in the batch
      {{3, 3, 1.0, true}},                     // absent self-loop
      {{0, 6, 1.0, false}},                    // vertex out of range
      {{0, 1, 0.0, false}},                    // non-positive weight
  };
  for (const auto& batch : bad) {
    EXPECT_THROW(legacy_apply_edge_updates(g, batch), Error);
    EXPECT_THROW(core::apply_edge_updates(g, batch), Error);
  }
}

TEST(CsrParity, BinaryRoundTripIsBitIdentical) {
  const testing::ScopedTempDir tmp;
  for (auto& [name, g] : parity_graphs(base_seed())) {
    SCOPED_TRACE(name);
    const std::string path = tmp.file(name + ".galabin");
    graph::save_binary(g, path);
    expect_same_graph(g, graph::load_binary(path));
  }
}

}  // namespace
}  // namespace gala
