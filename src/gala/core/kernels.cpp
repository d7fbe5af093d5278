#include "gala/core/kernels.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "gala/common/error.hpp"
#include "gala/gpusim/block.hpp"
#include "gala/scope/run_scope.hpp"

namespace gala::core {
namespace {

using gpusim::kWarpSize;
using gpusim::LaneMask;
using gpusim::MemoryStats;
using gpusim::WarpValues;

/// (community, partial d_C(v)) pair spilled by chunk leaders.
struct SpillEntry {
  cid_t community;
  wt_t weight;
};

}  // namespace

Decision shuffle_decide(const DecideInput& in, vid_t v, gpusim::SharedMemoryArena& spill_arena,
                        MemoryStats& stats) {
  const graph::Graph& g = *in.g;
  const cid_t curr = in.comm[v];
  const wt_t dv = g.degree(v);
  const auto nbrs = g.neighbors(v);
  const auto ws = g.weights(v);
  const std::size_t deg = nbrs.size();

  Decision result;
  wt_t e_curr = 0;
  BestTracker tracker;

  const bool multi_chunk = deg > static_cast<std::size_t>(kWarpSize);
  std::span<SpillEntry> spill;
  std::size_t spill_count = 0;
  if (multi_chunk) spill = spill_arena.allocate<SpillEntry>(deg);

  for (std::size_t base = 0; base < deg; base += kWarpSize) {
    const int lanes = static_cast<int>(std::min<std::size_t>(kWarpSize, deg - base));
    LaneMask active = gpusim::warp::first_lanes(lanes);
    WarpValues<cid_t> my_c;  // read only on active lanes
    WarpValues<wt_t> my_w;
    for (int i = 0; i < lanes; ++i) {
      const vid_t u = nbrs[base + i];
      // Loads: neighbour id, edge weight, C[u] (Alg. 2 lines 2-4).
      stats.global_reads += 3;
      if (u == v) {
        active &= ~(LaneMask{1} << i);  // self-loops cancel out of every comparison
        continue;
      }
      my_c[i] = in.comm[u];
      my_w[i] = ws[base + i];
    }
    if (active == 0) continue;

    // Coalescing diagnostic: the C[u] lookups gather by neighbour id.
    {
      WarpValues<vid_t> addrs;
      for (int i = 0; i < lanes; ++i) addrs[i] = nbrs[base + i];
      gpusim::warp::gather_transactions(active, addrs, stats);
    }

    const auto masks = gpusim::warp::match_any(active, my_c, stats);  // Alg. 2 line 5
    const auto sums = gpusim::warp::segmented_reduce_add(active, masks, my_w, stats);  // line 6

    if (!multi_chunk) {
      // Score per group leader; __reduce_max_sync picks the winner (lines 7-9).
      WarpValues<wt_t> my_dq;
      for (LaneMask m = active; m != 0; m &= m - 1) {
        const int i = std::countr_zero(m);
        my_dq[i] = std::numeric_limits<wt_t>::lowest();
        if (gpusim::warp::leader_lane(masks[i]) != i) continue;  // one lane per community
        const cid_t c = my_c[i];
        stats.global_reads += 1;  // D_V(C) load
        my_dq[i] = move_score(sums[i], in.comm_total[c], dv, in.two_m, c == curr, in.resolution);
        if (c == curr) e_curr = sums[i];
      }
      const wt_t max_dq = gpusim::warp::reduce_max(active, my_dq, stats);
      // Winner election: among lanes achieving the max, the smallest
      // community id wins (a ballot + min-reduce on hardware).
      stats.shuffle_ops += 1;
      for (LaneMask m = active; m != 0; m &= m - 1) {
        const int i = std::countr_zero(m);
        if (my_dq[i] == max_dq) tracker.offer(my_c[i], my_dq[i]);
      }
    } else {
      // Chunk leaders spill their (community, partial sum) pair to shared
      // memory for the cross-chunk merge. The leaders' stores form one
      // warp-wide shared request; consecutive spill slots keep it (mostly)
      // conflict-free, which the bank model verifies.
      constexpr std::uint64_t kSpillWords = sizeof(SpillEntry) / 4;
      LaneMask leaders = 0;
      WarpValues<std::uint64_t> spill_words{};
      for (LaneMask m = active; m != 0; m &= m - 1) {
        const int i = std::countr_zero(m);
        if (gpusim::warp::leader_lane(masks[i]) != i) continue;
        GALA_ASSERT(spill_count < spill.size());
        leaders |= (LaneMask{1} << i);
        spill_words[i] = static_cast<std::uint64_t>(spill_count) * kSpillWords;
        spill[spill_count++] = {my_c[i], sums[i]};
        stats.shared_writes += 1;
      }
      if (leaders != 0) gpusim::warp::shared_transactions(leaders, spill_words, stats);
    }
  }

  if (multi_chunk) {
    // Consolidate partial sums that belong to the same community across
    // chunks (in-place linear merge over the shared-memory spill list).
    std::size_t unique = 0;
    for (std::size_t j = 0; j < spill_count; ++j) {
      stats.shared_reads += 1;
      bool merged = false;
      for (std::size_t k = 0; k < unique; ++k) {
        stats.shared_reads += 1;
        if (spill[k].community == spill[j].community) {
          spill[k].weight += spill[j].weight;
          stats.shared_writes += 1;
          merged = true;
          break;
        }
      }
      if (!merged) {
        spill[unique] = spill[j];
        stats.shared_writes += 1;
        ++unique;
      }
    }
    for (std::size_t k = 0; k < unique; ++k) {
      stats.shared_reads += 1;
      stats.global_reads += 1;  // D_V(C) load
      const cid_t c = spill[k].community;
      const wt_t score = move_score(spill[k].weight, in.comm_total[c], dv, in.two_m, c == curr, in.resolution);
      stats.register_ops += 1;
      if (c == curr) e_curr = spill[k].weight;
      tracker.offer(c, score);
    }
  }

  result.weight_to_curr = e_curr;
  stats.global_reads += 1;  // D_V(C[v])
  result.curr_score = move_score(e_curr, in.comm_total[curr], dv, in.two_m, /*in_community=*/true, in.resolution);
  if (tracker.best == kInvalidCid) {
    result.best = curr;
    result.best_score = result.curr_score;
  } else {
    result.best = tracker.best;
    result.best_score = tracker.score;
  }
  return result;
}

namespace {

Decision hash_decide_impl(const DecideInput& in, vid_t v, HashTablePolicy policy,
                          gpusim::SharedMemoryArena& arena, HashScratch& global_scratch,
                          std::uint64_t salt, MemoryStats& stats) {
  const graph::Graph& g = *in.g;
  const cid_t curr = in.comm[v];
  const wt_t dv = g.degree(v);
  const auto nbrs = g.neighbors(v);
  const auto ws = g.weights(v);
  const std::size_t deg = nbrs.size();

  Decision result;
  if (deg == 0) {
    result.best = curr;
    stats.global_reads += 1;
    result.curr_score = move_score(0, in.comm_total[curr], dv, in.two_m, true, in.resolution);
    result.best_score = result.curr_score;
    return result;
  }

  NeighborCommunityTable table(policy, arena, global_scratch, static_cast<vid_t>(deg), salt,
                               stats);

  // Threads stride over the adjacency (Alg. 3 lines 4-10); sequentially
  // simulated, identical traffic.
  for (std::size_t i = 0; i < deg; ++i) {
    const vid_t u = nbrs[i];
    stats.global_reads += 3;  // neighbour id, weight, C[u]
    if (u == v) continue;
    table.upsert(in.comm[u], ws[i], [&](cid_t c) { return in.comm_total[c]; });
  }

  // Score every neighbouring community; the block-wide max over the
  // threads' my_best_C candidates (lines 11-15) is a shared-memory tree
  // reduction, charged explicitly.
  BestTracker tracker;
  wt_t e_curr = 0;
  table.for_each([&](cid_t c, wt_t weight, wt_t total) {
    stats.register_ops += 1;
    const wt_t score = move_score(weight, total, dv, in.two_m, c == curr, in.resolution);
    if (c == curr) e_curr = weight;
    tracker.offer(c, score);
  });
  gpusim::block::charge_tree_reduction(std::min<std::size_t>(table.size(), 256), stats);
  table.reset();

  result.weight_to_curr = e_curr;
  stats.global_reads += 1;  // D_V(C[v])
  result.curr_score = move_score(e_curr, in.comm_total[curr], dv, in.two_m, true, in.resolution);
  if (tracker.best == kInvalidCid) {
    result.best = curr;
    result.best_score = result.curr_score;
  } else {
    result.best = tracker.best;
    result.best_score = tracker.score;
  }
  return result;
}

}  // namespace

Decision hash_decide(const DecideInput& in, vid_t v, HashTablePolicy policy,
                     gpusim::SharedMemoryArena& arena, HashScratch& global_scratch,
                     std::uint64_t salt, MemoryStats& stats) {
  if (policy == HashTablePolicy::GlobalOnly) {
    return hash_decide_impl(in, v, policy, arena, global_scratch, salt, stats);
  }
  try {
    return hash_decide_impl(in, v, policy, arena, global_scratch, salt, stats);
  } catch (const ResourceExhausted&) {
    // Degradation ladder (§4.2 read backwards): shared-memory pressure —
    // arena exhaustion, real or injected — retries this vertex with every
    // bucket in global memory. Exhaustion can only be thrown from the table
    // constructor, before any traffic is charged, so the retry accounts
    // cleanly. Decisions are policy-independent: same result, more global
    // traffic.
    RunScope::current().registry().counter("resilience.hashtable_fallbacks").add(1);
    return hash_decide_impl(in, v, HashTablePolicy::GlobalOnly, arena, global_scratch, salt,
                            stats);
  }
}

std::string to_string(KernelMode mode) {
  switch (mode) {
    case KernelMode::Auto:
      return "auto";
    case KernelMode::ShuffleOnly:
      return "shuffle-only";
    case KernelMode::HashOnly:
      return "hash-only";
  }
  return "?";
}

bool use_shuffle_kernel(const graph::Graph& g, vid_t v, const DecideDispatch& d) {
  if (d.mode == KernelMode::ShuffleOnly) return true;
  return d.mode == KernelMode::Auto && g.out_degree(v) < d.shuffle_degree_limit;
}

Decision decide_vertex(const DecideInput& in, vid_t v, const DecideDispatch& d,
                       gpusim::SharedMemoryArena& arena, HashScratch& global_scratch,
                       std::uint64_t salt, MemoryStats& stats) {
  arena.reset();
  if (use_shuffle_kernel(*in.g, v, d)) return shuffle_decide(in, v, arena, stats);
  return hash_decide(in, v, d.hashtable, arena, global_scratch, salt, stats);
}

cid_t apply_move_guard(const Decision& d, cid_t curr, std::span<const vid_t> comm_size) {
  if (d.best == kInvalidCid || d.best == curr) return curr;
  if (d.best_score <= d.curr_score) return curr;  // strict improvement only (Lemma 5)
  // Grappolo's singleton-swap guard: two singleton communities may only
  // merge toward the smaller id, or BSP rounds would swap them forever.
  if (comm_size[curr] == 1 && comm_size[d.best] == 1 && d.best > curr) return curr;
  return d.best;
}

}  // namespace gala::core
