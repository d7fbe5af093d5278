// Incremental community maintenance on dynamic graphs (extension).
//
// Real deployments rarely recompute communities from scratch: edges arrive
// and disappear in batches. This extension applies a batch of edge updates
// and *repairs* the previous community structure instead of restarting:
//
//   1. merge the batch into the sorted CSR (untouched rows are block-copied,
//      only the rows the batch touches are re-merged),
//   2. warm-start the BSP engine from the previous assignment,
//   3. let MG pruning (Equation 6) act as delta screening — vertices whose
//      converged neighbourhood is untouched satisfy the inequality on
//      iteration 0 and are never re-evaluated; only the perturbed region
//      (and whatever it destabilises transitively) reruns,
//   4. finish with the standard multi-level pipeline on the repaired
//      partition's contraction.
//
// The zero-false-negative guarantee of MG means the repair converges to the
// same fixed-point family a full rerun would reach from this partition.
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
  /// Vertices DecideAndMove actually evaluated during the repair's first
  /// round — the savings relative to V * iterations is the point.
  std::uint64_t evaluated_vertices = 0;
  int repair_iterations = 0;
};

/// Repairs `previous` (an assignment on `g`, any dense id space over [0,V))
/// after applying `updates`. `config.bsp.pruning` should be ModularityGain
/// (or MgPlusRelaxed) for the delta-screening effect; other strategies work
/// but re-evaluate everything in round 1.
IncrementalResult update_communities(const graph::Graph& g, std::span<const cid_t> previous,
                                     std::span<const EdgeUpdate> updates,
                                     const GalaConfig& config = {});

}  // namespace gala::core
