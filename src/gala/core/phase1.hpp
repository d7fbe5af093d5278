// The phase-1 driver — Algorithm 1's iteration loop, written once.
//
// One iteration:
//   1. classify vertices active/inactive under the configured pruning
//      strategy (§3),
//   2. DecideAndMove for the active set (engine primitive),
//   3. apply the shared move guard (BSP: all decisions read the
//      iteration-start state); in oracle mode, also evaluate the pruned
//      vertices off the books for the confusion matrix (Table 1),
//   4. update each vertex's community weight d_{C[v]}(v) (engine primitive),
//   5. refresh community totals/sizes, modularity; stop when nothing moved or
//      the gain drops below theta (Grappolo's convergence rule).
//
// The driver owns the community state and everything around the two
// primitives: pruning, the guard, the oracle pass, bookkeeping, modularity,
// the stop test, and the per-iteration accounting (IterationStats, spans,
// flight events, memtrace epochs, on_iteration, Phase1Result totals and
// gauges). An engine derives from Phase1Driver, implements the two
// primitives and keeps its own scratch for them: the BSP engine
// (bsp_louvain.cpp) and the linear-algebra engine (blas_louvain.cpp). The distributed ranks (gala/multigpu) run their own
// loop, because their overlap windows run bookkeeping inside collectives,
// but each rank replicates CommunityState and stops on phase1_converged.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "gala/core/bsp_louvain.hpp"

namespace gala::core {

/// Phase-1 community state. comm_total/comm_size/comm_changed are indexed by
/// community id, which lives in the vertex id space [0, V).
struct CommunityState {
  CommunityState() = default;
  /// Singleton start. total_weight() must be positive.
  explicit CommunityState(const graph::Graph& g);
  /// Warm start from `initial` (community ids in [0, V)) instead of
  /// singletons. Used by the incremental-update extension — with MG
  /// pruning, Equation 6 immediately deactivates every vertex whose
  /// converged neighbourhood still holds, so only perturbed regions rerun.
  CommunityState(const graph::Graph& g, std::span<const cid_t> initial);

  /// Bookkeeping (Alg. 1 lines 5-11): moves every flagged vertex's degree
  /// from comm[v] to next_comm[v], marks both communities changed, then
  /// makes next_comm current and `moved` the previous-moved flags. Returns
  /// the number of movers; the caller charges the traffic.
  vid_t commit_moves(const graph::Graph& g, std::span<const std::uint8_t> moved);

  struct Scan {
    wt_t min_total;  ///< min D_V(C) over non-empty communities
    wt_t sum_sq;     ///< sum_C (D_V(C) / 2|E|)^2
  };
  /// One pass over the community totals.
  Scan scan(wt_t two_m) const;

  /// Q = (sum_v e_{v,C[v]} + 2*sum_v loop_v) / 2|E| - resolution * sum_sq.
  wt_t modularity(wt_t two_m, double resolution, wt_t sum_sq) const;

  std::vector<cid_t> comm;
  std::vector<cid_t> next_comm;
  std::vector<wt_t> comm_total;  ///< D_V(C)
  std::vector<vid_t> comm_size;
  std::vector<wt_t> weight;  ///< e_{v,C[v]} = d_{C[v]}(v) minus self-loop
  std::vector<std::uint8_t> prev_moved;
  std::vector<std::uint8_t> comm_changed;
  wt_t sum_self_loops = 0;
};

/// The stop test after an iteration that moved `moved` vertices and gained
/// `delta_q` modularity.
bool phase1_converged(vid_t moved, wt_t delta_q, double theta);

/// Salt of the hash kernel's bucket function for a run seeded with `seed`.
std::uint64_t decide_salt(std::uint64_t seed);

/// One phase-1 run: the loop, plus the graph, config, execution context and
/// community state it shares with an engine. An engine derives from the
/// driver and implements the two engine-specific steps; run() calls each
/// once per iteration.
class Phase1Driver {
 public:
  virtual ~Phase1Driver() = default;
  Phase1Driver(const Phase1Driver&) = delete;
  Phase1Driver& operator=(const Phase1Driver&) = delete;

  /// Runs phase 1 to convergence.
  Phase1Result run();

 protected:
  /// Starts from `state` (singletons or a warm start over `g`). The graph
  /// must outlive the driver.
  Phase1Driver(const graph::Graph& g, const BspConfig& config, CommunityState state);

  /// Per-run scratch the driver holds after its own workspace leases and
  /// releases before them. Empty unless an engine needs one.
  virtual exec::Workspace::Lease<std::uint8_t> take_run_scratch(exec::Workspace& ws, vid_t n);

  /// DecideAndMove: writes decisions[v] for every active v from the
  /// iteration-start state, charging decide_traffic/decide_wall.
  virtual void decide_phase(std::span<const std::uint8_t> active, vid_t active_count,
                            std::span<Decision> decisions, IterationStats& stats) = 0;

  /// Sets weight[v] = e_{v, next_comm[v]} from comm (old) and next_comm
  /// (new), charging update_traffic/update_wall.
  virtual void weight_update_phase(std::span<const std::uint8_t> moved, IterationStats& stats) = 0;

  const graph::Graph& g_;
  BspConfig config_;
  // Context first: it (and its workspace) must outlive every lease, here and
  // in the engine's scratch.
  std::unique_ptr<exec::ExecutionContext> owned_context_;
  exec::ExecutionContext* ctx_;  // == owned_context_.get() or config.context
  CommunityState state_;

 private:
  void oracle_pass(std::span<const std::uint8_t> active, std::span<Decision> decisions,
                   std::span<std::uint8_t> would_move);
};

}  // namespace gala::core
