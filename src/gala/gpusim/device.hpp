// The simulated device: a block scheduler over host threads.
//
// A "kernel launch" maps a range of block ids onto a host thread pool: the
// one its engine hands it (a size-1 pool runs the blocks in order on the
// calling thread).
// Each block receives a BlockContext carrying its shared-memory arena and a
// MemoryStats sink; blocks run concurrently (real host parallelism), lanes
// within a block run warp-synchronously inside the kernel body. Launch
// results aggregate traffic, modeled cycles, and wall time.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>

#include "gala/common/thread_pool.hpp"
#include "gala/common/timer.hpp"
#include "gala/exec/workspace.hpp"
#include "gala/gpusim/memory.hpp"
#include "gala/gpusim/shared_memory.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::gpusim {

struct DeviceConfig {
  /// Shared memory per block, bytes (A100 default opt-in max is 164 KiB;
  /// 48 KiB is the portable default).
  std::size_t shared_bytes_per_block = 48 * 1024;
  CostModel cost_model{};
  /// Concurrency assumed when converting traffic to modeled time. Defaults
  /// to full A100 occupancy; benches on scaled-down graphs scale this down
  /// proportionally (see DESIGN.md §4 "Modeled time").
  double model_parallel_lanes = 108.0 * 2048.0;
  double model_clock_ghz = 1.41;

  double modeled_ms(const MemoryStats& traffic) const {
    return cost_model.milliseconds(traffic, model_parallel_lanes, model_clock_ghz);
  }
};

/// Per-block execution context handed to kernel bodies.
struct BlockContext {
  std::size_t block_id = 0;
  SharedMemoryArena* shared = nullptr;
  MemoryStats* stats = nullptr;
  /// The launching device's workspace. Kernel bodies check per-block
  /// scratch out of it instead of keeping thread_local state.
  exec::Workspace& workspace;
};

/// Aggregated result of one kernel launch.
struct LaunchStats {
  MemoryStats traffic;
  double wall_seconds = 0;
  double modeled_cycles = 0;

  LaunchStats& operator+=(const LaunchStats& o) {
    traffic += o.traffic;
    wall_seconds += o.wall_seconds;
    modeled_cycles += o.modeled_cycles;
    return *this;
  }
};

class Device {
 public:
  /// `workspace` backs per-launch transients (block arena pages, profiling
  /// buffers) with pooled slabs and is handed to kernel bodies via
  /// BlockContext. It must outlive the device.
  Device(const DeviceConfig& config, exec::Workspace& workspace);

  const DeviceConfig& config() const { return config_; }
  exec::Workspace& workspace() const { return workspace_; }

  /// Launches `num_blocks` blocks of `body` on `pool`. Each pool chunk of
  /// blocks reuses one arena (reset between blocks); a size-1 pool runs
  /// every block in order on the calling thread. Returns the aggregated
  /// traffic/cost of the launch. When the current scope's tracer is enabled, emits
  /// one "kernel" span named `name` carrying the launch's MemoryStats
  /// snapshot and modeled-cycle breakdown.
  LaunchStats launch(ThreadPool& pool, std::size_t num_blocks,
                     const std::function<void(BlockContext&)>& body,
                     std::string_view name = "kernel") const;

 private:
  DeviceConfig config_;
  exec::Workspace& workspace_;  // not owned
};

/// Attaches a MemoryStats snapshot to an open span, and — when `model` is
/// given — the per-level modeled-cycle breakdown (CostModel::breakdown).
/// No-op when the span is inactive.
void attach_traffic(telemetry::ScopedSpan& span, const MemoryStats& stats,
                    const CostModel* model = nullptr);

}  // namespace gala::gpusim
