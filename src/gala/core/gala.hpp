// GALA public API: the full multi-level Louvain pipeline.
//
// Repeats { phase 1 (bsp_louvain.hpp) ; phase 2 contraction
// (aggregation.hpp) } until the modularity gain between levels drops below
// `level_theta` or the graph stops compressing — the complete algorithm the
// paper's §5.1 end-to-end comparison runs.
//
// Level 0 starts from singletons, or from a caller's initial assignment (a
// warm start: the incremental repair, core/incremental.hpp); every deeper
// level starts from singletons of the contracted graph. One rule guards
// every level: a level whose phase 1 ends below the modularity it started
// from folds the partition it started from instead, and the loop stops when
// that fold does not compress. Singletons never compress, so a cold level
// that loses ends the run on the partition it already held; a warm level 0
// that loses folds the warm start and the deeper levels go on from there.
// This is the only multi-level loop; the supervisor
// (resilience/supervisor.hpp), the dendrogram (dendrogram.hpp) and the
// repair run it through the LouvainBackend seam.
//
// Quickstart:
//   gala::graph::Graph g = gala::graph::load_edge_list("graph.txt");
//   gala::core::GalaResult r = gala::core::run_louvain(g);
//   // r.assignment[v] = community of v, r.modularity = Q
#pragma once

#include <optional>
#include <vector>

#include "gala/core/backend.hpp"
#include "gala/core/bsp_louvain.hpp"

namespace gala::core {

struct GalaConfig {
  /// Phase-1 engine configuration (pruning, kernels, hashtable, ...).
  BspConfig bsp{};
  /// Which engine runs every level (core/backend.hpp): the BSP kernels or
  /// the gala::blas linear-algebra formulation. Both contract through the
  /// shared SpGEMM and follow the same trajectory rules.
  Backend backend = Backend::Bsp;
  /// blas primitive tuning (SpGEMM accumulator, pull/push threshold); the
  /// contraction honours it under either backend.
  blas::Tuning blas{};
  /// Stop when a level improves modularity by less than this.
  double level_theta = 1e-6;
  int max_levels = 30;
  /// Keep the full Phase1Result of the first round (the round every
  /// per-iteration experiment in the paper measures).
  bool keep_first_round = false;
  /// Leiden-style refinement (extension, core/refinement.hpp): refine each
  /// level's partition before aggregation so every community of the final
  /// hierarchy is internally connected.
  bool refine = false;
  /// Vertex following (Grappolo heuristic, core/vertex_following.hpp):
  /// merge degree-1 vertices into their neighbours before the first level.
  /// A degree-1 vertex always gains by joining its sole neighbour, so this
  /// is quality-neutral and shrinks round 1.
  bool vertex_following = false;
};

struct GalaLevel {
  vid_t vertices = 0;
  vid_t communities = 0;
  wt_t modularity = 0;
  int iterations = 0;
  double wall_seconds = 0;
  /// The fold: level vertex -> next-level vertex (dense ids). Empty for a
  /// rejected level, which is not folded.
  std::vector<cid_t> fold;
};

struct GalaResult {
  /// Final community per original vertex (dense ids in [0, communities)).
  std::vector<cid_t> assignment;
  wt_t modularity = 0;
  vid_t num_communities = 0;
  /// The folded levels, in order.
  std::vector<GalaLevel> levels;
  /// The level whose phase 1 ended below the modularity it started from and
  /// whose start did not compress, if any: the run stopped there without
  /// folding it, so `assignment` is the partition held before it and
  /// `modularity` is that partition's audited Q. (A warm level 0 that loses
  /// folds its start, which is then levels[0].)
  std::optional<GalaLevel> rejected;
  double wall_seconds = 0;
  /// Modeled GPU time across all levels, a rejected one included (cost
  /// model), milliseconds.
  double modeled_ms = 0;
  /// First-round phase 1 detail (when keep_first_round).
  Phase1Result first_round;
  /// Workspace counters of the pipeline's execution context at completion —
  /// pool reuse across every level, kernel launch, and aggregation.
  exec::WorkspaceStats workspace;
};

/// Runs the full pipeline on `g` with make_backend(config.backend,
/// config.blas). Level 0 starts from `initial` (community ids in [0, V)), or
/// from singletons when it is empty; a warm start cannot be combined with
/// vertex following, which changes the vertex set.
GalaResult run_louvain(const graph::Graph& g, const GalaConfig& config = {},
                       std::span<const cid_t> initial = {});

/// Runs the full pipeline on `g`, every level through `engine`
/// (config.backend and config.blas are not consulted).
GalaResult run_louvain(const graph::Graph& g, const GalaConfig& config, LouvainBackend& engine,
                       std::span<const cid_t> initial = {});

}  // namespace gala::core
