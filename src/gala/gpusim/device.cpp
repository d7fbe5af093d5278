#include "gala/gpusim/device.hpp"

#include <span>

#include "gala/scope/run_scope.hpp"

namespace gala::gpusim {

Device::Device(const DeviceConfig& config, exec::Workspace& workspace)
    : config_(config), workspace_(workspace) {}

void attach_traffic(telemetry::ScopedSpan& span, const MemoryStats& stats,
                    const CostModel* model) {
  if (!span.active()) return;
  span.arg("global_reads", static_cast<double>(stats.global_reads));
  span.arg("global_writes", static_cast<double>(stats.global_writes));
  span.arg("global_atomics", static_cast<double>(stats.global_atomics));
  span.arg("shared_reads", static_cast<double>(stats.shared_reads));
  span.arg("shared_writes", static_cast<double>(stats.shared_writes));
  span.arg("shared_atomics", static_cast<double>(stats.shared_atomics));
  span.arg("register_ops", static_cast<double>(stats.register_ops));
  span.arg("shuffle_ops", static_cast<double>(stats.shuffle_ops));
  // Ratios travel with their raw parts, so a rollup over many launches can
  // recompute them from sums.
  if (stats.ht_maintain_shared + stats.ht_maintain_global > 0) {
    span.arg("ht_maintain_shared", static_cast<double>(stats.ht_maintain_shared));
    span.arg("ht_maintained",
             static_cast<double>(stats.ht_maintain_shared + stats.ht_maintain_global));
    span.arg("ht_access_shared", static_cast<double>(stats.ht_access_shared));
    span.arg("ht_accesses", static_cast<double>(stats.ht_access_shared + stats.ht_access_global));
    span.ratio_arg("ht_maintenance_rate", stats.maintenance_rate(), "ht_maintain_shared",
                   "ht_maintained");
    span.ratio_arg("ht_access_rate", stats.access_rate(), "ht_access_shared", "ht_accesses");
  }
  if (stats.gather_requests > 0) {
    span.arg("gather_requests", static_cast<double>(stats.gather_requests));
    span.arg("gather_transactions", static_cast<double>(stats.gather_transactions));
    span.ratio_arg("transactions_per_gather", stats.transactions_per_gather(),
                   "gather_transactions", "gather_requests");
    span.ratio_arg("coalescing_efficiency", stats.coalescing_efficiency(), "gather_requests",
                   "gather_transactions");
  }
  if (stats.simt_lane_slots > 0) {
    span.arg("simt_lane_slots", static_cast<double>(stats.simt_lane_slots));
    span.arg("simt_active_lanes", static_cast<double>(stats.simt_active_lanes));
    span.ratio_arg("divergence_efficiency", stats.divergence_efficiency(), "simt_active_lanes",
                   "simt_lane_slots");
  }
  if (stats.shared_requests > 0) {
    span.arg("shared_requests", static_cast<double>(stats.shared_requests));
    span.arg("shared_waves", static_cast<double>(stats.shared_waves));
    span.ratio_arg("bank_conflict_factor", stats.bank_conflict_factor(), "shared_waves",
                   "shared_requests");
  }
  if (stats.ht_lookups > 0) {
    span.arg("ht_lookups", static_cast<double>(stats.ht_lookups));
    span.arg("ht_probes", static_cast<double>(stats.ht_probes));
    span.ratio_arg("ht_mean_probe_length", stats.mean_probe_length(), "ht_probes", "ht_lookups");
  }
  if (model != nullptr) {
    const CostBreakdown b = model->breakdown(stats);
    span.arg("cycles_global", b.global);
    span.arg("cycles_shared", b.shared);
    span.arg("cycles_registers", b.registers);
    span.arg("cycles_shuffle", b.shuffle);
    span.arg("cycles_atomics", b.atomics);
    span.arg("modeled_cycles", b.total());
  }
}

namespace {

/// Finalises a launch: modeled cycles, span payload, launch counter, and the
/// per-kernel profile when the profiler is enabled.
void finish_launch(LaunchStats& result, const DeviceConfig& config, std::size_t num_blocks,
                   telemetry::ScopedSpan& span, std::string_view name,
                   std::span<const double> block_cycles) {
  result.modeled_cycles = config.cost_model.cycles(result.traffic);
  RunScope& scope = RunScope::current();
  if (span.active()) {
    span.arg("num_blocks", static_cast<double>(num_blocks));
    attach_traffic(span, result.traffic, &config.cost_model);
    scope.registry().counter("gpusim.launches").add(1);
    scope.registry().histogram("gpusim.blocks_per_launch").observe(num_blocks);
  }
  auto& profiler = scope.profiler();
  if (profiler.enabled()) {
    profiler.record_launch(name, num_blocks, result.traffic, result.modeled_cycles,
                           config.modeled_ms(result.traffic), result.wall_seconds, block_cycles);
  }
}

/// One worker chunk's block arena: workspace pages (pool-recycled across
/// launches) sized to exactly the configured shared-memory budget.
struct ChunkArena {
  exec::Workspace::Lease<std::byte> pages;
  SharedMemoryArena arena;

  ChunkArena(const DeviceConfig& config, exec::Workspace& ws)
      : pages(ws.take<std::byte>(config.shared_bytes_per_block, "gpusim.shared_arena")),
        arena(pages.span()) {}
};

}  // namespace

LaunchStats Device::launch_chunks(ThreadPool& pool, std::size_t num_blocks,
                                  const std::function<void(const RunBlocks&)>& chunk,
                                  std::string_view name) const {
  resilience::maybe_inject(resilience::FaultSite::KernelLaunch, name);
  telemetry::ScopedSpan span(RunScope::current().tracer(), name, "kernel");
  LaunchStats result;
  Timer timer;
  // Per-block modeled cycles feed the profiler's load-imbalance statistics.
  // Indexed writes by block id: no synchronisation needed between workers.
  const bool profiling = RunScope::current().profiler().enabled();
  exec::Workspace::Lease<double> cycles_lease;
  if (profiling) {
    cycles_lease = workspace_.take<double>(num_blocks, "gpusim.block_cycles", exec::Fill::Zero);
  }
  const std::span<double> block_cycles = profiling ? cycles_lease.span() : std::span<double>{};
  std::mutex merge_mutex;
  pool.parallel_for_chunked(
      0, num_blocks,
      [&](std::size_t lo, std::size_t hi) {
        ChunkArena arena(config_, workspace_);
        MemoryStats stats;
        chunk([&](const BlockBody& body) {
          BlockContext ctx{0, &arena.arena, &stats, workspace_};
          double cycles_before = 0;
          for (std::size_t b = lo; b < hi; ++b) {
            ctx.block_id = b;
            arena.arena.reset();
            body(ctx);
            if (profiling) {
              const double cycles_after = config_.cost_model.cycles(stats);
              block_cycles[b] = cycles_after - cycles_before;
              cycles_before = cycles_after;
            }
          }
        });
        std::lock_guard lock(merge_mutex);
        result.traffic += stats;
      },
      /*grain=*/16);
  result.wall_seconds = timer.seconds();
  finish_launch(result, config_, num_blocks, span, name, block_cycles);
  return result;
}

}  // namespace gala::gpusim
