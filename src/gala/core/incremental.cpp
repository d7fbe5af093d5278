#include "gala/core/incremental.hpp"

#include <algorithm>

#include "gala/core/modularity.hpp"

namespace gala::core {
namespace {

/// Row-major (row << 32 | col) key: sorting by it orders entries as the CSR does.
std::uint64_t entry_key(vid_t row, vid_t col) {
  return (static_cast<std::uint64_t>(row) << 32) | col;
}

/// One directed adjacency entry the batch changes.
struct EntryChange {
  std::uint64_t key;  // entry_key(row, col)
  wt_t weight;        // new weight (unused for Erase)
  enum Kind : std::uint8_t { Set, Insert, Erase } kind;
};

}  // namespace

graph::Graph apply_edge_updates(const graph::Graph& g, std::span<const EdgeUpdate> updates) {
  const vid_t n = g.num_vertices();
  const auto offsets = g.offsets();
  const auto adj = g.adjacency();
  const auto weights = g.adjacency_weights();

  // Canonical (min, max) key per update; sorting (key, batch index) pairs
  // groups each edge's updates and keeps them in batch order.
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  order.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const EdgeUpdate& u = updates[i];
    GALA_CHECK(u.u < n && u.v < n, "update touches vertex outside the graph");
    GALA_CHECK(u.weight > 0, "update weight must be positive");
    order.emplace_back(entry_key(std::min(u.u, u.v), std::max(u.u, u.v)), i);
  }
  std::sort(order.begin(), order.end());

  // Fold each edge's updates from its current weight (found in row min), the
  // way a per-edge accumulator would: removing an absent edge throws, a
  // removal leaving <= 1e-12 erases it, and a later add starts from 0.
  std::vector<EntryChange> changes;
  changes.reserve(2 * order.size());
  for (std::size_t i = 0; i < order.size();) {
    const std::uint64_t key = order[i].first;
    const auto lo = static_cast<vid_t>(key >> 32);
    const auto hi = static_cast<vid_t>(key & 0xffffffffu);
    const auto row = adj.subspan(offsets[lo], offsets[lo + 1] - offsets[lo]);
    const auto it = std::lower_bound(row.begin(), row.end(), hi);
    const bool existed = it != row.end() && *it == hi;
    bool present = existed;
    wt_t w = existed ? weights[offsets[lo] + static_cast<eid_t>(it - row.begin())] : 0.0;
    for (; i < order.size() && order[i].first == key; ++i) {
      const EdgeUpdate& u = updates[order[i].second];
      if (u.remove) {
        GALA_CHECK(present, "removing non-existent edge {" << u.u << "," << u.v << "}");
        w -= u.weight;
        if (w <= 1e-12) {
          present = false;
          w = 0.0;
        }
      } else {
        w += u.weight;
        present = true;
      }
    }
    if (!existed && !present) continue;
    const auto kind = !present ? EntryChange::Erase
                               : (existed ? EntryChange::Set : EntryChange::Insert);
    changes.push_back({key, w, kind});
    if (lo != hi) changes.push_back({entry_key(hi, lo), w, kind});
  }
  std::sort(changes.begin(), changes.end(),
            [](const EntryChange& a, const EntryChange& b) { return a.key < b.key; });

  // Counting pass: each row's new length.
  std::vector<eid_t> new_offsets(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t v = 0; v < n; ++v) new_offsets[v + 1] = offsets[v + 1] - offsets[v];
  for (const EntryChange& c : changes) {
    const auto row = static_cast<std::size_t>(c.key >> 32);
    if (c.kind == EntryChange::Insert) ++new_offsets[row + 1];
    if (c.kind == EntryChange::Erase) --new_offsets[row + 1];
  }
  for (vid_t v = 0; v < n; ++v) new_offsets[v + 1] += new_offsets[v];

  // Copy pass: every old entry before a change's position moves in one
  // block copy (whole untouched rows included); the change then inserts,
  // replaces or drops the entry at that position.
  const auto total = static_cast<std::size_t>(new_offsets[n]);
  std::vector<vid_t> new_adj(total);
  std::vector<wt_t> new_weights(total);
  eid_t src = 0;  // old entries consumed so far
  eid_t dst = 0;  // new entries written so far
  const auto copy_block = [&](eid_t end) {
    std::copy(adj.begin() + src, adj.begin() + end, new_adj.begin() + dst);
    std::copy(weights.begin() + src, weights.begin() + end, new_weights.begin() + dst);
    dst += end - src;
    src = end;
  };
  for (const EntryChange& ch : changes) {
    const auto row = static_cast<vid_t>(ch.key >> 32);
    const auto col = static_cast<vid_t>(ch.key & 0xffffffffu);
    const auto row_end = adj.begin() + offsets[row + 1];
    const auto pos = std::lower_bound(adj.begin() + std::max(src, offsets[row]), row_end, col);
    copy_block(static_cast<eid_t>(pos - adj.begin()));
    if (ch.kind != EntryChange::Erase) {
      new_adj[dst] = col;
      new_weights[dst++] = ch.weight;
    }
    if (ch.kind != EntryChange::Insert) {
      GALA_ASSERT(pos != row_end && *pos == col);
      ++src;  // the old entry for col, replaced or dropped
    }
  }
  copy_block(g.num_adjacency());
  return graph::GraphBuilder::from_sorted_csr(n, std::move(new_offsets), std::move(new_adj),
                                              std::move(new_weights));
}

IncrementalResult update_communities(const graph::Graph& g, std::span<const cid_t> previous,
                                     std::span<const EdgeUpdate> updates,
                                     const GalaConfig& config) {
  GALA_CHECK(previous.size() == g.num_vertices(), "assignment size mismatch");
  IncrementalResult result;
  result.graph = apply_edge_updates(g, updates);
  std::vector<cid_t> warm(previous.begin(), previous.end());
  renumber_communities(warm);
  GalaConfig repair = config;
  repair.keep_first_round = true;  // level 0 is the warm-started round
  GalaResult run = run_louvain(result.graph, repair, warm);
  result.repair_iterations = static_cast<int>(run.first_round.iterations.size());
  for (const auto& it : run.first_round.iterations) result.evaluated_vertices += it.active;
  result.assignment = std::move(run.assignment);
  result.modularity = run.modularity;
  result.num_communities = run.num_communities;
  return result;
}

}  // namespace gala::core
