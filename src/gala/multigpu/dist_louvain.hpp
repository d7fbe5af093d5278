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

#include "gala/core/backend.hpp"
#include "gala/graph/partition.hpp"
#include "gala/multigpu/collectives.hpp"

namespace gala::multigpu {

enum class SyncMode { Dense, Sparse, Adaptive };
std::string to_string(SyncMode mode);

/// The exchange's own settings: the device count, how the ranks sync their
/// community replicas, and what the links cost.
struct Exchange {
  std::size_t num_gpus = 2;
  SyncMode sync = SyncMode::Adaptive;
  CommCostModel comm_cost{};
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
};

/// The phase-1 policy every rank runs (weight_update = Recompute and
/// track_confusion are refused: ranks run the owner-computed delta update
/// and would count confusion rank-locally) plus the exchange. Only rank 0
/// calls on_iteration, after the modularity reduce, with cluster-wide counts
/// and Q, empty flag spans and the synced community replica; setting it adds
/// the global active count to the moved-count reduction, so runs without an
/// observer ship the baseline byte counts.
struct DistributedConfig : core::BspConfig, Exchange {};

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

/// One iteration's community sync (its moved count, modularity and delta_q
/// are the iteration's core::IterationStats).
struct DistIterationStats {
  bool sparse_sync = false;
  std::uint64_t sync_bytes = 0;  ///< community-sync wire payload this iteration
  /// What the sparse payload would cost as raw MoveRecords. Equal to
  /// sync_bytes when compression is off (or the sync went dense); the gap
  /// is the bytes the codec saved (framing overhead can make it negative
  /// for a handful of movers).
  std::uint64_t sync_raw_bytes = 0;
  /// True when a sparse sync failed this iteration and the dense fallback
  /// completed it (graceful degradation, visible in the run report).
  bool recovered_dense = false;
};

struct DistributedResult {
  /// Rank 0's phase 1: the partition, its modularity (all-reduced, the same
  /// on every rank) and the per-iteration stats. Its modeled times are rank
  /// 0's alone; modeled_ms() below is the run's.
  core::Phase1Result phase1;
  std::vector<DeviceTimeline> devices;
  /// One entry per iteration, in phase1.iterations order.
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

/// Runs phase 1 across `config.num_gpus` simulated devices from `initial`
/// (community ids in [0, V)), or from singletons when it is empty.
DistributedResult distributed_phase1(const graph::Graph& g, const DistributedConfig& config,
                                     std::span<const cid_t> initial = {});

/// distributed_phase1 as core::run_louvain's engine: each level runs it with
/// the level's BspConfig and this engine's exchange, and contracts through
/// the shared aggregate. A level's modeled time is
/// DistributedResult::modeled_ms: rank 0's decide and update times, and the
/// rest of the slowest device's critical path as other_modeled_ms.
class DistributedBackend final : public core::LouvainBackend {
 public:
  explicit DistributedBackend(const Exchange& exchange) : exchange_(exchange) {}
  /// A full config's phase-1 half would be ignored: the level loop's wins.
  explicit DistributedBackend(const DistributedConfig&) = delete;

  const char* name() const override { return "distributed"; }
  const Exchange& exchange() const { return exchange_; }

  core::Phase1Result run_level(const graph::Graph& g, const core::BspConfig& config,
                               std::span<const cid_t> initial) override;

  core::AggregationResult contract(const graph::Graph& g, std::span<const cid_t> community,
                                   exec::Workspace* workspace) override {
    return core::aggregate(g, community, workspace);
  }

 private:
  Exchange exchange_;
};

}  // namespace gala::multigpu
