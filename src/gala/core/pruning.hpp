// Pruning strategies for predicting unmoved vertices (paper §3).
//
//  SM  Strict movement-based [Shi et al.]: v is inactive only if every
//      community touching v (its own and each neighbour's) had no membership
//      change in the previous iteration. Zero false negatives, but almost
//      everything stays active (FPR ≈ 92% in the paper).
//
//  RM  Relaxed movement-based [Leiden / parallel adaptations]: v is inactive
//      if v and all of its neighbours were unmoved in the previous
//      iteration. Good pruning but false negatives (modularity loss): a
//      non-neighbour leaving a neighbouring community changes D_V(C)
//      (Lemma 4's counterexample).
//
//  PM  Probabilistic movement-based [Vite]: if v was unmoved in the previous
//      iteration it is pruned with probability alpha (default 0.25).
//
//  MG  Modularity gain-based (GALA's contribution, §3.3): v is inactive iff
//      Equation 6 holds,
//        2*d_{C[v]}(v) - d(v) + (min_C D_V(C) - D_V(C[v])) * d(v)/(2|E|) >= 0,
//      a sufficient condition for Lemma 5's "no neighbouring community can
//      beat staying", evaluated only from states the BSP model already
//      maintains. Zero false negatives by Theorem 6.
//
//  MG+RM  Union of the two inactive sets (the complementary combination of
//      §5.3) — inherits RM's false negatives but prunes the most.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "gala/common/prng.hpp"
#include "gala/common/thread_pool.hpp"
#include "gala/common/types.hpp"
#include "gala/graph/csr.hpp"

namespace gala::core {

enum class PruningStrategy {
  None,
  Strict,
  Relaxed,
  Probabilistic,
  ModularityGain,
  MgPlusRelaxed,
};

std::string to_string(PruningStrategy s);

/// Iteration state the strategies read. All spans are indexed as noted.
struct PruningContext {
  const graph::Graph* g = nullptr;
  std::span<const cid_t> comm;                ///< per vertex
  std::span<const wt_t> vertex_comm_weight;   ///< e_{v,C[v]} per vertex
  std::span<const wt_t> comm_total;           ///< D_V(C) per community id
  wt_t min_comm_total = 0;                    ///< min over non-empty communities
  wt_t two_m = 0;
  std::span<const std::uint8_t> prev_moved;   ///< v moved in previous iteration
  std::span<const std::uint8_t> comm_changed; ///< community membership changed last iter
  int iteration = 0;                          ///< 0 on the first BSP iteration
  wt_t resolution = 1.0;                      ///< gamma (generalised modularity)
};

/// Fills `active[v]` (1 = process in this iteration). Movement-history
/// strategies activate everything on iteration 0. `rng` is consumed only by
/// PM. Runs on `pool`.
void compute_active(PruningStrategy strategy, const PruningContext& ctx, double pm_alpha,
                    Xoshiro256& rng, std::span<std::uint8_t> active, ThreadPool& pool);

/// Classifies the vertices of [begin, end) flagged in `only` (all of them
/// when `only` is empty) and leaves every other flag untouched.
/// `pm_base` seeds PM's per-vertex coins for this iteration (compute_active
/// draws it from its `rng`). Runs on `pool`.
void classify_range(PruningStrategy strategy, const PruningContext& ctx, double pm_alpha,
                    std::uint64_t pm_base, vid_t begin, vid_t end,
                    std::span<const std::uint8_t> only, std::span<std::uint8_t> active,
                    ThreadPool& pool);

/// The MG predicate (Equation 6) for a single vertex; exposed for tests.
bool mg_is_inactive(const PruningContext& ctx, vid_t v);

/// Per-vertex predicate behind compute_active and classify_range. `pm_base`
/// seeds PM's deterministic per-vertex coin for this iteration.
bool is_inactive(PruningStrategy strategy, const PruningContext& ctx, vid_t v, double pm_alpha,
                 std::uint64_t pm_base);

}  // namespace gala::core
