// The phase-1 driver — Algorithm 1's iteration loop, written once.
//
// One iteration:
//   1. classify the owned vertices active/inactive under the configured
//      pruning strategy (§3),
//   2. DecideAndMove for the active set (engine primitive),
//   3. apply the shared move guard (BSP: all decisions read the
//      iteration-start state); in oracle mode, also evaluate the pruned
//      vertices off the books for the confusion matrix (Table 1),
//   4. exchange the moves, update each vertex's community weight d_{C[v]}(v)
//      (engine primitive), exchange the weight messages,
//   5. refresh community totals/sizes, modularity; stop when nothing moved or
//      the gain drops below theta (Grappolo's convergence rule).
//
// The driver owns the community state and everything around the primitives:
// pruning, the guard, the oracle pass, bookkeeping, modularity, the stop
// test, and the per-iteration accounting (IterationStats, spans, flight
// events, memtrace epochs, on_iteration, Phase1Result totals and gauges).
// Every engine derives from it: the BSP engine (bsp_louvain.cpp), the
// linear-algebra engine (blas_louvain.cpp) and the Fig. 5 comparators
// (gala/baselines) own every vertex and exchange nothing; a distributed
// rank (gala/multigpu) owns a slice, keeps a full CommunityState replica,
// and exchanges through its collectives. When a
// rank opens a window between an exchange's post and complete halves, the
// driver runs bookkeeping and the next prune+decide of the vertices whose
// inputs are already final there, so overlap is a schedule of this loop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "gala/core/bsp_louvain.hpp"
#include "gala/graph/partition.hpp"

namespace gala::core {

/// Phase-1 community state. comm_total/comm_size/comm_changed are indexed by
/// community id, which lives in the vertex id space [0, V).
struct CommunityState {
  CommunityState() = default;
  /// Starts from `initial` (community ids in [0, V)), or from singletons
  /// when it is empty. total_weight() must be positive. A warm start is how
  /// a repair reruns (core/incremental.hpp): with MG pruning, Equation 6
  /// immediately deactivates every vertex whose converged neighbourhood
  /// still holds, so only perturbed regions rerun.
  explicit CommunityState(const graph::Graph& g, std::span<const cid_t> initial = {});

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

  /// sum over `owned` of e_{v,C[v]} + 2*loop_v: the owned share of the
  /// internal weight of Q = internal / 2|E| - resolution * sum_sq. Owning
  /// every vertex adds the self-loop term summed at construction once; a
  /// slice adds it per vertex, so each rank's partial sums as before.
  wt_t internal_weight(const graph::Graph& g, graph::VertexRange owned) const;

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
/// driver and implements the engine-specific steps; run() calls each once
/// per iteration.
class Phase1Driver {
 public:
  virtual ~Phase1Driver() = default;
  Phase1Driver(const Phase1Driver&) = delete;
  Phase1Driver& operator=(const Phase1Driver&) = delete;

  /// Runs phase 1 to convergence.
  Phase1Result run();

 protected:
  /// Starts from `state` (singletons or a warm start over `g`), owning every
  /// vertex. The graph must outlive the driver.
  Phase1Driver(const graph::Graph& g, const BspConfig& config, CommunityState state);
  /// Owns only `owned` (a distributed rank's slice): pruning, decide, the
  /// guard and the modularity partial run over it, and the exchange brings
  /// in the rest. Only the `primary` device records the cluster-wide
  /// per-iteration records (flight IterationEnd, memtrace epochs, the
  /// phase1.* instruments and workspace gauges).
  Phase1Driver(const graph::Graph& g, const BspConfig& config, CommunityState state,
               graph::VertexRange owned, bool primary);

  /// Per-run scratch the driver holds after its own workspace leases and
  /// releases before them. Empty unless an engine needs one.
  virtual exec::Workspace::Lease<std::uint8_t> take_run_scratch(exec::Workspace&, vid_t) {
    return {};
  }

  /// DecideAndMove: writes decisions[v] for every v flagged in `active` from
  /// the iteration-start state, charging decide_traffic/decide_wall.
  virtual void decide_phase(std::span<const std::uint8_t> active, vid_t active_count,
                            std::span<Decision> decisions, IterationStats& stats) = 0;

  /// Sets weight[v] = e_{v, next_comm[v]} from comm (old) and next_comm
  /// (new), charging update_traffic/update_wall.
  virtual void weight_update_phase(std::span<const std::uint8_t> moved, IterationStats& stats) = 0;

  /// The exchange rounds of one iteration, in schedule order.
  enum class Round {
    Moves,    ///< after: next_comm, moved and stats.moved cover every vertex
    Weights,  ///< after: weight[v] is final for every owned v
  };

  /// What the driver may run between post_exchange and complete_exchange:
  /// bookkeeping when `open`, and the next iteration's prune+decide of the
  /// `presolve` vertices (skipped next iteration).
  struct Window {
    bool open = false;
    std::span<const std::uint8_t> presolve;
  };

  /// The exchange halves; one device has nothing to exchange. `window` is
  /// the traffic the driver ran in the window, creditable against the
  /// collective's cost.
  virtual Window post_exchange(Round, IterationStats&) { return {}; }
  virtual void complete_exchange(Round, const gpusim::MemoryStats& /*window*/, IterationStats&) {}
  /// Sums a per-device partial over every device (the modularity reduce).
  virtual wt_t sum_over_devices(wt_t partial) { return partial; }

  /// The naive weight update: every vertex rescans its neighbourhood for
  /// weight[v] = e_{v, next_comm[v]}, as expensive as DecideAndMove (the
  /// bottleneck Fig. 8's P1 column exhibits). Returns the traffic, charged
  /// as the kernel would.
  gpusim::MemoryStats recompute_weights();

  const graph::Graph& g_;
  BspConfig config_;
  // Context first: it (and its workspace) must outlive every lease, here and
  // in the engine's scratch.
  std::unique_ptr<exec::ExecutionContext> owned_context_;
  exec::ExecutionContext* ctx_;  // == owned_context_.get() or config.context
  ThreadPool serial_pool_{1};
  /// The one pool every parallel loop and launch of the run uses: the
  /// context's pool, or the size-1 pool when config.parallel is false.
  ThreadPool& pool_;
  CommunityState state_;
  const graph::VertexRange owned_;
  const bool primary_;

  /// A run's per-vertex arrays, checked out of the workspace unless an
  /// engine lends its own (a distributed rank lends host vectors).
  struct RunArrays {
    std::span<std::uint8_t> active;
    std::span<std::uint8_t> moved;  ///< zero on entry
    std::span<Decision> decisions;
    std::span<std::uint8_t> pending;  ///< needed by a presolving engine
  };
  RunArrays lent_;

 private:
  /// Classifies the owned vertices flagged in `only` (all when empty) as
  /// iteration `iter` and decides the active ones among them. Returns how
  /// many owned vertices are active.
  vid_t prune_then_decide(int iter, const CommunityState::Scan& scan,
                          std::span<const std::uint8_t> only, IterationStats& stats);
  void oracle_pass(std::span<const std::uint8_t> active, std::span<Decision> decisions,
                   std::span<std::uint8_t> would_move);

  // PM's coin seed: one draw per iteration, made by whichever prune of that
  // iteration runs first (a presolve draws the next iteration's early).
  Xoshiro256 rng_;
  std::uint64_t pm_base_ = 0;
  int pm_iter_ = -1;
  RunArrays run_;  // the arrays of the current run()
};

}  // namespace gala::core
