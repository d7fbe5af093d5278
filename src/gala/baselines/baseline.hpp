// Baseline Louvain implementations (the comparators of Fig. 5).
//
// Each baseline reproduces the *algorithmic strategy* the paper attributes
// to that system, running on the same simulator substrate so traffic and
// modeled time are directly comparable (DESIGN.md §1):
//
//   cuGraph-like   : sort-based DecideAndMove — gather (community, weight)
//                    pairs per vertex, sort, segmented-reduce; the "complex
//                    state transformation" path [1, 15].
//   Gunrock-like   : frontier/edge-centric — per-edge atomic scatter into a
//                    global-memory accumulation table plus frontier
//                    maintenance traffic [42, 59].
//   nido-like      : batched vertex processing with per-batch state reloads
//                    (the multi-GPU batching design run on one device) [16].
//   Grappolo (GPU) : thread-per-vertex hashtable in global memory, no
//                    pruning, naive weight recompute [39].
//   Grappolo (GPU)*: the modernised port — block-per-vertex with a unified
//                    shared/global hashtable, still unpruned [39 + fixes].
//   Grappolo (CPU) : host-threaded BSP with per-vertex hash maps [36],
//                    measured in wall-clock on the actual CPU.
//
// Every comparator but Grappolo (GPU)* runs as an engine of GALA's phase-1
// driver (core/phase1.hpp): its own DecideAndMove, no pruning, and the naive
// weight recompute plus its extra per-iteration traffic; Grappolo (GPU)* is
// the BSP engine configured that way. So all systems share GALA's decide
// semantics and convergence rule, and final modularity is identical across
// systems (§5.1: "the modularity values are identical") — asserted by tests
// and by bench/fig05_sota_comparison.
#pragma once

#include <string>
#include <vector>

#include "gala/common/types.hpp"
#include "gala/core/bsp_louvain.hpp"
#include "gala/graph/csr.hpp"

namespace gala::baselines {

struct BaselineOptions {
  double theta = 1e-6;
  int max_iterations = 1000;
  bool parallel = true;
  std::uint64_t seed = 7;
  gpusim::DeviceConfig device{};
  /// nido-like: number of vertex batches per iteration.
  int nido_batches = 8;
};

struct BaselineResult {
  std::string name;
  std::vector<cid_t> community;
  wt_t modularity = 0;
  int iterations = 0;
  double wall_seconds = 0;
  double modeled_ms = 0;
  gpusim::MemoryStats traffic;
};

BaselineResult run_cugraph_like(const graph::Graph& g, const BaselineOptions& opts = {});
BaselineResult run_gunrock_like(const graph::Graph& g, const BaselineOptions& opts = {});
BaselineResult run_nido_like(const graph::Graph& g, const BaselineOptions& opts = {});
BaselineResult run_grappolo_gpu(const graph::Graph& g, const BaselineOptions& opts = {});
BaselineResult run_grappolo_gpu_star(const graph::Graph& g, const BaselineOptions& opts = {});
BaselineResult run_grappolo_cpu(const graph::Graph& g, const BaselineOptions& opts = {});

/// GALA itself under the same harness (phase 1 of round 1), for Fig. 5 rows.
BaselineResult run_gala(const graph::Graph& g, const BaselineOptions& opts = {});

/// GALA's linear-algebra engine (blas backend) under the same harness — the
/// masked-SpMV formulation of DecideAndMove. Produces the same partition as
/// run_gala (the engines are trajectory-identical); only traffic and modeled
/// time differ.
BaselineResult run_gala_blas(const graph::Graph& g, const BaselineOptions& opts = {});

/// All systems in the paper's Fig. 5 order (GALA last).
std::vector<BaselineResult> run_all_systems(const graph::Graph& g,
                                            const BaselineOptions& opts = {});

}  // namespace gala::baselines
