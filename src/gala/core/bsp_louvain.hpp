// The BSP parallel Louvain engine — phase 1 of Algorithm 1.
//
// The iteration loop (pruning, move guard, bookkeeping, convergence) is the
// shared phase-1 driver (phase1.hpp); this engine supplies its two
// primitives:
//   - DecideAndMove for active vertices through the workload-aware kernels
//     (§4: shuffle for small degrees, hash for large, per KernelMode),
//   - the community-weight update d_{C[v]}(v) — full recompute or the
//     efficient delta update of §3.5.
//
// This header also holds the config, per-iteration stats and result types
// every phase-1 engine shares. The run doubles as the measurement harness:
// per-iteration stats carry counts, confusion-matrix entries (oracle mode),
// per-phase memory traffic and wall time, from which every pruning/memory
// figure of the paper is regenerated.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "gala/common/types.hpp"
#include "gala/core/hashtables.hpp"
#include "gala/core/kernels.hpp"
#include "gala/core/pruning.hpp"
#include "gala/exec/context.hpp"
#include "gala/gpusim/device.hpp"
#include "gala/graph/csr.hpp"

namespace gala::core {

enum class WeightUpdateMode { Recompute, Delta };
std::string to_string(WeightUpdateMode mode);

struct IterationStats;

/// End-of-iteration hook shared by the single-GPU and distributed engines:
/// the iteration index (0-based within the level), its stats, the
/// active/moved flags, and the post-iteration community array. Spans are
/// valid only during the call. Used by the algorithm-health layer
/// (gala/metrics/health.hpp) to track convergence without the engine
/// depending on gala_metrics.
using IterationCallback =
    std::function<void(int, const IterationStats&, std::span<const std::uint8_t>,
                       std::span<const std::uint8_t>, std::span<const cid_t>)>;

struct BspConfig {
  PruningStrategy pruning = PruningStrategy::ModularityGain;
  KernelMode kernel = KernelMode::Auto;
  HashTablePolicy hashtable = HashTablePolicy::Hierarchical;
  WeightUpdateMode weight_update = WeightUpdateMode::Delta;
  /// Resolution parameter gamma (generalised modularity); 1.0 = classical.
  double resolution = 1.0;
  /// Convergence threshold theta on the per-iteration modularity gain.
  double theta = 1e-6;
  int max_iterations = 1000;
  /// PM pruning probability (Vite's alpha).
  double pm_alpha = 0.25;
  std::uint64_t seed = 7;
  /// Auto dispatch: out-degree < limit -> shuffle kernel (warp-sized).
  vid_t shuffle_degree_limit = 32;
  /// Record the per-iteration confusion matrix by additionally evaluating
  /// pruned vertices with an uncharged oracle pass (Table 1).
  bool track_confusion = false;
  /// Run on the context's pool (false = a size-1 pool: every loop and
  /// launch runs in order on the calling thread).
  bool parallel = true;
  gpusim::DeviceConfig device{};
  /// Execution context to run in (device binding + pooled workspace). When
  /// null the engine owns a private context built from `device`/`seed`; the
  /// multi-level pipeline (run_louvain) shares one context across levels so
  /// level N reuses level N-1's slabs. Must outlive the engine.
  exec::ExecutionContext* context = nullptr;
  /// End-of-iteration hook (convergence diagnostics). Travels with the
  /// config, so run_louvain and the supervisor forward it to every level's
  /// engine for free.
  IterationCallback on_iteration;
};

struct IterationStats {
  vid_t active = 0;
  vid_t moved = 0;
  // Confusion matrix over the active/inactive prediction (oracle mode only):
  // positive = "will move".
  vid_t tp = 0, fp = 0, tn = 0, fn = 0;
  wt_t modularity = 0;
  wt_t delta_q = 0;
  gpusim::MemoryStats decide_traffic;
  gpusim::MemoryStats update_traffic;
  gpusim::MemoryStats bookkeeping_traffic;
  double decide_wall = 0;
  double update_wall = 0;
  double other_wall = 0;
  // Hashtable shared-memory rates for this iteration (Fig. 4).
  double ht_maintenance_rate = 0;
  double ht_access_rate = 0;
  // Mean probe-chain length over the iteration's hash-kernel lookups
  // (profiler diagnostic; 0 when no hash vertices ran).
  double ht_mean_probe_length = 0;
  // Workspace heap allocations performed during this iteration. With pooling
  // on, this drops to zero after the first iteration of a level: the
  // steady-state move loop runs entirely out of recycled slabs.
  std::uint64_t ws_allocs = 0;

  vid_t inactive() const { return tp + fp + tn + fn > 0 ? tn + fn : 0; }
};

struct Phase1Result {
  std::vector<cid_t> community;  ///< final assignment, raw ids in [0, V)
  wt_t modularity = 0;
  /// Modularity of the partition the run started from (singletons, or the
  /// warm start). Synchronous moves can end below it.
  wt_t start_modularity = 0;
  vid_t num_communities = 0;
  std::vector<IterationStats> iterations;
  double wall_seconds = 0;
  gpusim::MemoryStats total_traffic;
  /// Modeled time (cost model) split by phase, milliseconds.
  double decide_modeled_ms = 0;
  double update_modeled_ms = 0;
  double other_modeled_ms = 0;
  /// Workspace counters snapshot at the end of the run (cumulative over the
  /// engine's context — shared-context callers see pipeline-wide totals).
  exec::WorkspaceStats workspace;
  double modeled_ms() const { return decide_modeled_ms + update_modeled_ms + other_modeled_ms; }
};

/// One mover's delta weight-update emission (§3.5): returns u's own
/// e_{u,new_c} against `next_comm` and hands each unmoved neighbour x's
/// change to d_{C[x]}(x) to `sink(x, delta)`. Charged as the kernel would:
/// two reads per adjacency entry, one atomic per message, one write for u's
/// weight. Shared by the BSP delta update and the distributed engine's
/// owner-computed update (eager and staged), so all of them sum and charge
/// alike.
template <typename Sink>
wt_t emit_mover_deltas(const graph::Graph& g, std::span<const cid_t> comm,
                       std::span<const cid_t> next_comm, std::span<const std::uint8_t> moved,
                       vid_t u, cid_t new_c, gpusim::MemoryStats& stats, Sink&& sink) {
  const cid_t old_c = comm[u];
  auto nbrs = g.neighbors(u);
  auto ws = g.weights(u);
  wt_t own = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const vid_t x = nbrs[i];
    stats.global_reads += 2;
    if (x == u) continue;
    // Recompute u's own weight against the new assignment.
    if (next_comm[x] == new_c) own += ws[i];
    // Message to unmoved neighbours: u left old_c / joined new_c.
    if (!moved[x]) {
      const cid_t cx = comm[x];  // == next_comm[x]
      wt_t d = 0;
      if (cx == old_c) d -= ws[i];
      if (cx == new_c) d += ws[i];
      if (d != 0) {
        sink(x, d);
        stats.global_atomics += 1;
      }
    }
  }
  stats.global_writes += 1;
  return own;
}

/// Runs phase 1 with the BSP engine from `initial` (community ids in
/// [0, V)), or from singletons when it is empty; see CommunityState
/// (phase1.hpp).
Phase1Result bsp_phase1(const graph::Graph& g, const BspConfig& config = {},
                        std::span<const cid_t> initial = {});

}  // namespace gala::core
