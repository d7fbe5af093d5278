// The two workload-aware DecideAndMove kernels (paper §4).
//
//  - shuffle_decide (Algorithm 2): a warp handles one vertex; each lane owns
//    one neighbour's (community, weight); __match_any_sync groups lanes by
//    community; __reduce_add_sync produces d_C(v) per group; the best gain
//    is selected with __reduce_max_sync. States never leave registers for
//    degree <= 32. For larger degrees in shuffle-only mode, per-chunk group
//    leaders spill (community, partial-sum) pairs into shared memory and a
//    merge pass consolidates them (the natural extension "through loop" the
//    paper sketches).
//
//  - hash_decide (Algorithm 3): a block handles one vertex; threads stride
//    over neighbours, accumulating into a NeighborCommunityTable under the
//    configured placement policy (global-only / unified / hierarchical).
//
// Both return the same Decision and charge their traffic to MemoryStats, so
// the engine can dispatch by degree (the "workload-aware" strategy) and the
// benches can compare them on identical inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gala/common/types.hpp"
#include "gala/core/hashtables.hpp"
#include "gala/core/modularity.hpp"
#include "gala/gpusim/device.hpp"
#include "gala/gpusim/warp.hpp"
#include "gala/graph/csr.hpp"

namespace gala::core {

/// Read-only iteration state a kernel needs to evaluate one vertex.
struct DecideInput {
  const graph::Graph* g = nullptr;
  std::span<const cid_t> comm;        ///< current community id per vertex
  std::span<const wt_t> comm_total;   ///< D_V(C) per community id
  wt_t two_m = 0;
  wt_t resolution = 1.0;              ///< gamma (generalised modularity)
};

/// Outcome of DecideAndMove for one vertex (before the engine's move guard).
struct Decision {
  cid_t best = kInvalidCid;     ///< argmax-score neighbouring community (may equal current)
  wt_t best_score = 0;          ///< score of `best` (DeltaQ * |E|)
  wt_t curr_score = 0;          ///< score of staying in the current community
  wt_t weight_to_curr = 0;      ///< e_{v,C[v]} — reused by the weight-update stage
};

/// Candidate tracker with the tie-break rule every engine shares (smaller
/// community id on equal scores). The rule is enumeration-order independent,
/// which is what lets the blas gather — whose candidate order differs from
/// the hash table's iteration order — reach identical decisions.
struct BestTracker {
  cid_t best = kInvalidCid;
  wt_t score = 0;

  void offer(cid_t c, wt_t s) {
    if (best == kInvalidCid || s > score || (s == score && c < best)) {
      best = c;
      score = s;
    }
  }
};

/// Warp-level shuffle-based kernel. `spill_arena` is only touched when
/// out_degree(v) exceeds a warp (shuffle-only mode on large vertices).
Decision shuffle_decide(const DecideInput& in, vid_t v, gpusim::SharedMemoryArena& spill_arena,
                        gpusim::MemoryStats& stats);

/// Block-level hash-based kernel under the given hashtable policy.
/// `global_scratch` is the reusable global-memory bucket slab.
/// Shared-memory exhaustion (gala::ResourceExhausted from the arena, real or
/// fault-injected) degrades the vertex to GlobalOnly placement and retries —
/// decisions are policy-independent, so the result is unchanged. Each
/// fallback records a `hashtable-fallback` flight event.
Decision hash_decide(const DecideInput& in, vid_t v, HashTablePolicy policy,
                     gpusim::SharedMemoryArena& arena, HashScratch& global_scratch,
                     std::uint64_t salt, gpusim::MemoryStats& stats);

/// Workload-aware kernel selection (paper §4.3). Lives here — not in the
/// engine — so the single-GPU decide phase, the oracle pass, and the
/// multi-GPU ranks' decide all dispatch through the same rule.
enum class KernelMode { Auto, ShuffleOnly, HashOnly };
std::string to_string(KernelMode mode);

/// How one call site dispatches DecideAndMove across the two kernels.
struct DecideDispatch {
  KernelMode mode = KernelMode::Auto;
  HashTablePolicy hashtable = HashTablePolicy::Hierarchical;
  /// Auto dispatch: out_degree(v) < limit -> shuffle kernel (warp-sized).
  vid_t shuffle_degree_limit = 32;
};

/// True when vertex `v` goes to the shuffle kernel under `d`.
bool use_shuffle_kernel(const graph::Graph& g, vid_t v, const DecideDispatch& d);

/// One vertex through the dispatch rule: resets `arena` (every kernel body
/// did this per vertex; keeping it here keeps traffic bit-identical) and
/// runs the selected kernel.
Decision decide_vertex(const DecideInput& in, vid_t v, const DecideDispatch& d,
                       gpusim::SharedMemoryArena& arena, HashScratch& global_scratch,
                       std::uint64_t salt, gpusim::MemoryStats& stats);

/// The move rule shared by every implementation (Grappolo heuristics): move
/// on strictly better score; on ties prefer the smaller community id; never
/// swap two singleton communities upward (prevents BSP oscillation).
/// `comm_size` is indexed by community id.
cid_t apply_move_guard(const Decision& d, cid_t curr, std::span<const vid_t> comm_size);

}  // namespace gala::core
