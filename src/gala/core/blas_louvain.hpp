// The linear-algebra Louvain engine — phase 1 expressed through gala::blas
// primitives (the GraphBLAS formulation of Algorithm 1).
//
// It runs on the shared phase-1 driver (phase1.hpp), like the BSP engine,
// and supplies the driver's two primitives:
//   - DecideAndMove is a masked SpMV (blas::masked_gather): the SPA gathers
//     each active row's neighbour-community weights and the row visitor
//     scores them with the shared move rule (move_score + BestTracker).
//     Direction is chosen per launch from frontier density — pull streams
//     all rows against the active mask, push compacts a frontier (bounded by
//     the governor's rung-4 window).
//   - The community-weight update w(v) = (A ⊗ S_next)[v][C_next[v]] needs
//     one column per row, so it is a masked single-community dot
//     (blas::masked_dot) with no SPA. Its mask is the recipient set of
//     §3.5's deltas: the movers and every neighbour of a mover whose next
//     community is the mover's old or new one, pushed from the movers. Only
//     those rows can change, so the cost follows the moved vertices' degrees
//     as §3.5's delta update does, while each recomputed w is a full sum.
//     BspConfig::weight_update = Recompute marks every row, which is the
//     Fig. 6/8 ablation on this engine too.
//
// Trajectory parity: the SPA sums in adjacency encounter order — the BSP
// hash kernel's upsert order — and scoring and tie-breaks are the same
// rules, while the guard, pruning, bookkeeping and convergence are the
// driver's own; so on exact-weight graphs the two engines produce
// bit-identical assignments per iteration (and 1e-9-close modularity in
// general), confusion-matrix counts included.
#pragma once

#include <cstdint>

#include "gala/blas/blas.hpp"
#include "gala/core/bsp_louvain.hpp"

namespace gala::core {

/// Counters specific to the linear-algebra engine (perf_profile rows).
struct BlasPhase1Stats {
  int pull_iterations = 0;
  int push_iterations = 0;
  /// Iterations whose chosen direction differed from the previous one.
  int direction_switches = 0;
  /// Rows evaluated by decide gathers over the whole run (== Σ active).
  std::uint64_t gathered_rows = 0;
  /// Rows the weight update recomputed over the whole run (V per iteration
  /// under Recompute, the recipient rows under Delta).
  std::uint64_t updated_rows = 0;
};

/// Runs phase 1 through the blas primitives. Accepts the same config as the
/// BSP engine (kernel/hashtable knobs are ignored — there is no hash
/// kernel); `tuning` selects the accumulator and the pull/push threshold.
/// Starts from `initial` like bsp_phase1 (singletons when empty).
Phase1Result blas_phase1(const graph::Graph& g, const BspConfig& config,
                         const blas::Tuning& tuning = {}, BlasPhase1Stats* stats = nullptr,
                         std::span<const cid_t> initial = {});

}  // namespace gala::core
