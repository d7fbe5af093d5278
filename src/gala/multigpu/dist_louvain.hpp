// Distributed (multi-GPU) BSP Louvain — paper §4.3.
//
// The graph's vertices are 1-D partitioned across P simulated devices (edge-
// balanced contiguous ranges). Each device runs on its own host thread as a
// phase-1 driver (core/phase1.hpp) that owns its range: the same pruning,
// decide kernels, move guard, bookkeeping and stop test as the single-GPU
// engine, over a full community-state replica. Only the driver's exchange
// is distributed, through the simulated NCCL communicator:
//
//   - community sync, per iteration dense (every rank ships its owned slice
//     of the community array), sparse ((vertex, new community) records) or
//     adaptive (the smaller wire size — the paper's switch rule);
//   - owner-computed weights: each rank emits the (neighbour, delta)
//     messages of its own movers, so computation scales with 1/P while
//     communication stays ~constant (the sub-linear scaling of Fig. 10);
//   - the modularity partial's all-reduce.
//
// Two extensions ride on that exchange (both default-off, both bit-identical
// to the blocking/raw baseline):
//
//   - overlap  : each gather is posted, then completed after a window of
//                rank-local work over the *eligible set* (owned vertices with
//                no remote moved neighbour; see docs/multigpu.md for why
//                that is exact): the community gather stages the frontier
//                movers' weight messages, the weight gather runs the
//                driver's bookkeeping and the eligible set's next prune+
//                decide. The window's modeled time is credited against the
//                collective's (CommStats::hidden_us).
//   - compress : sparse syncs ship codec frames (delta_codec.hpp) instead of
//                raw MoveRecords; the adaptive crossover and the alpha-beta
//                cost model are charged the real encoded size.
#pragma once

#include <vector>

#include "gala/core/bsp_louvain.hpp"
#include "gala/graph/partition.hpp"
#include "gala/multigpu/collectives.hpp"

namespace gala::multigpu {

enum class SyncMode { Dense, Sparse, Adaptive };
std::string to_string(SyncMode mode);

struct DistributedConfig {
  std::size_t num_gpus = 2;
  SyncMode sync = SyncMode::Adaptive;
  core::PruningStrategy pruning = core::PruningStrategy::ModularityGain;
  core::KernelMode kernel = core::KernelMode::Auto;
  core::HashTablePolicy hashtable = core::HashTablePolicy::Hierarchical;
  vid_t shuffle_degree_limit = 32;
  double resolution = 1.0;
  double theta = 1e-6;
  int max_iterations = 1000;
  std::uint64_t seed = 7;
  double pm_alpha = 0.25;
  CommCostModel comm_cost{};
  gpusim::DeviceConfig device{};
  /// Community/weight-sync attempts after a CollectiveFault before the run
  /// fails closed. A failed *sparse* sync degrades to dense for the retry
  /// (the dense payload needs no per-move records a corrupted rank could
  /// poison selectively, and its cost is the known worst case).
  int max_sync_retries = 2;
  /// Asynchronous double-buffered sync: post each exchange, overlap rank-
  /// local frontier work with the collective, then complete. Retries stay
  /// barrier-aligned on both buffers; staged window work is reused, not
  /// recomputed, on a retry. Results are bit-identical to blocking sync.
  bool overlap = false;
  /// Sparse syncs ship compressed delta frames; the adaptive crossover
  /// compares the real encoded payload against the dense size.
  bool compress = false;
  /// End-of-iteration hook, invoked on rank 0 after the modularity reduce
  /// with its stats, whose active/moved counts, modularity and delta_q are
  /// cluster-wide (the community span is the synced post-iteration replica).
  /// Setting it adds one slot to the per-iteration moved-count reduction —
  /// the global active count rides along — so runs without an observer ship
  /// exactly the baseline byte counts. Used by the algorithm-health layer
  /// (metrics/health.hpp); the active/moved flag spans are empty.
  core::IterationCallback on_iteration;
};

/// Per-device accounting for the Fig. 10(b) breakdown.
struct DeviceTimeline {
  gpusim::MemoryStats traffic;
  double compute_modeled_ms = 0;
  CommStats comm;
  /// The rank's workspace counters at run end (pool reuse across the rank's
  /// arena pages, hash scratch, and sync staging buffers).
  exec::WorkspaceStats workspace;
  /// Exposed (un-hidden) communication time on the rank's critical path.
  /// With overlap off hidden_us is zero, so this equals the full cost.
  double comm_modeled_ms() const { return comm.wait_us() / 1e3; }
  /// Full modeled collective cost, ignoring overlap hiding.
  double comm_full_modeled_ms() const { return comm.modeled_us / 1e3; }
  double total_modeled_ms() const { return compute_modeled_ms + comm_modeled_ms(); }
};

struct DistIterationStats {
  vid_t moved = 0;
  bool sparse_sync = false;
  std::uint64_t sync_bytes = 0;  ///< community-sync wire payload this iteration
  /// What the sparse payload would cost as raw MoveRecords. Equal to
  /// sync_bytes when compression is off (or the sync went dense); the gap
  /// is the bytes the codec saved (framing overhead can make it negative
  /// for a handful of movers).
  std::uint64_t sync_raw_bytes = 0;
  wt_t modularity = 0;
  wt_t delta_q = 0;
  /// True when a sparse sync failed this iteration and the dense fallback
  /// completed it (graceful degradation, visible in the run report).
  bool recovered_dense = false;
};

struct DistributedResult {
  std::vector<cid_t> community;
  wt_t modularity = 0;
  int iterations = 0;
  double wall_seconds = 0;
  std::vector<DeviceTimeline> devices;
  std::vector<DistIterationStats> iteration_log;

  /// Modeled end-to-end time: the slowest device's compute + comm.
  double modeled_ms() const {
    double worst = 0;
    for (const auto& d : devices) worst = std::max(worst, d.total_modeled_ms());
    return worst;
  }
  double max_compute_modeled_ms() const {
    double worst = 0;
    for (const auto& d : devices) worst = std::max(worst, d.compute_modeled_ms);
    return worst;
  }
  double max_comm_modeled_ms() const {
    double worst = 0;
    for (const auto& d : devices) worst = std::max(worst, d.comm_modeled_ms());
    return worst;
  }
};

/// Runs phase 1 of round 1 across `config.num_gpus` simulated devices.
DistributedResult distributed_phase1(const graph::Graph& g, const DistributedConfig& config);

}  // namespace gala::multigpu
