// Phase 2 of Louvain: contract each community into a super-vertex (§2.2).
//
// Intra-community weight becomes a super-vertex self-loop (stored once;
// degree accounting doubles it, preserving D_C(C)); inter-community weights
// aggregate into super-edges. Modularity is invariant under contraction,
// which the tests assert.
#pragma once

#include <span>
#include <vector>

#include "gala/blas/spgemm.hpp"
#include "gala/common/types.hpp"
#include "gala/exec/workspace.hpp"
#include "gala/graph/csr.hpp"

namespace gala::core {

struct AggregationResult {
  graph::Graph coarse;
  /// For each fine vertex, the coarse vertex (renumbered community) owning it.
  std::vector<cid_t> fine_to_coarse;
  vid_t num_communities = 0;
};

/// Contracts `g` according to `community` (ids need not be dense). When a
/// workspace is given, the level-transition renumber scratch is checked out
/// of it (tag "phase2.renumber") instead of heap-allocated, so successive
/// levels of the pipeline recycle one slab. Results are identical.
///
/// The contraction itself is S^T·A·S through the shared SpGEMM
/// (blas::contract_csr); `tuning` selects its accumulator, `stats`, when
/// given, receives the kernel counters, and `pool`, when given, runs its
/// row accumulation (the calling thread does otherwise; the graph is the
/// same). The historical edge-list builder produced the same graph — the
/// SpGEMM replicates its counting conventions (see blas/spgemm.hpp) — so
/// exact-weight contractions are bit-identical to the pre-SpGEMM output.
AggregationResult aggregate(const graph::Graph& g, std::span<const cid_t> community,
                            exec::Workspace* workspace, const blas::Tuning& tuning,
                            blas::SpgemmStats* stats = nullptr, ThreadPool* pool = nullptr);
AggregationResult aggregate(const graph::Graph& g, std::span<const cid_t> community,
                            exec::Workspace* workspace = nullptr);

/// The fold alone: `community` renumbered to the dense ids aggregate() gives
/// it, with `coarse` left empty. For a level whose coarse graph nothing
/// would read (the last level of a run).
AggregationResult fold(std::span<const cid_t> community, exec::Workspace* workspace = nullptr);

/// Composes a two-level assignment: result[v] = coarse_assignment[fine_to_coarse[v]].
std::vector<cid_t> compose_assignment(std::span<const cid_t> fine_to_coarse,
                                      std::span<const cid_t> coarse_assignment);

}  // namespace gala::core
