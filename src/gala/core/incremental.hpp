// Incremental community maintenance on dynamic graphs (extension).
//
// Real deployments rarely recompute communities from scratch: edges arrive
// and disappear in batches. This extension applies a batch of edge updates
// and *repairs* the previous community structure instead of restarting:
//
//   1. merge the batch into the sorted CSR (untouched rows are block-copied,
//      only the rows the batch touches are re-merged),
//   2. run the multi-level pipeline (core/gala.hpp) warm-started from the
//      previous assignment, on GalaConfig::backend. At level 0, MG pruning
//      (Equation 6) acts as delta screening: vertices whose converged
//      neighbourhood is untouched satisfy the inequality on iteration 0 and
//      are never re-evaluated; only the perturbed region (and whatever it
//      destabilises transitively) reruns. The deeper levels run from
//      singletons of the contraction, as in any run.
//
// The pipeline's one rejection rule holds here too: when the warm round's
// synchronous moves end below the previous assignment's modularity on the
// updated graph, the level folds the previous assignment instead, so a
// repair without refinement never returns less than the partition it was
// given (a refined fold may hold less than the phase 1 it refines).
#pragma once

#include <span>
#include <vector>

#include "gala/core/gala.hpp"

namespace gala::core {

/// One edge mutation. `remove` deletes weight from the undirected edge
/// {u, v} (removing the edge entirely when the remaining weight is <= 0);
/// otherwise `weight` is added (creating the edge if absent).
struct EdgeUpdate {
  vid_t u = 0;
  vid_t v = 0;
  wt_t weight = 1.0;
  bool remove = false;
};

/// Applies `updates` to `g` and returns the new graph. Vertex count is
/// unchanged; removing more weight than an edge has deletes the edge.
graph::Graph apply_edge_updates(const graph::Graph& g, std::span<const EdgeUpdate> updates);

struct IncrementalResult {
  graph::Graph graph;             ///< the updated graph
  std::vector<cid_t> assignment;  ///< repaired communities (dense ids)
  wt_t modularity = 0;
  vid_t num_communities = 0;
  /// Vertices DecideAndMove actually evaluated during the warm-started
  /// level 0 — the savings relative to V * iterations is the point.
  std::uint64_t evaluated_vertices = 0;
  /// Phase-1 iterations of the warm-started level 0.
  int repair_iterations = 0;
};

/// Repairs `previous` (an assignment on `g`, any dense id space over [0,V))
/// after applying `updates`: apply_edge_updates, then run_louvain
/// warm-started from `previous`. `config.bsp.pruning` should be
/// ModularityGain (or MgPlusRelaxed) for the delta-screening effect; other
/// strategies work but re-evaluate everything at level 0.
IncrementalResult update_communities(const graph::Graph& g, std::span<const cid_t> previous,
                                     std::span<const EdgeUpdate> updates,
                                     const GalaConfig& config = {});

}  // namespace gala::core
