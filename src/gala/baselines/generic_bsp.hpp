// Internal: a generic BSP phase-1 loop for the baseline systems.
//
// The baselines differ only in how DecideAndMove is executed; the iteration
// skeleton (no pruning, naive per-iteration community-weight recompute,
// Grappolo convergence rule) is identical, so it lives here. Modularity is
// tracked with the independent audit (core::modularity), guaranteeing every
// baseline is scored by the same yardstick.
#pragma once

#include <functional>
#include <mutex>

#include "gala/baselines/baseline.hpp"
#include "gala/common/thread_pool.hpp"
#include "gala/common/timer.hpp"
#include "gala/core/kernels.hpp"
#include "gala/core/modularity.hpp"
#include "gala/exec/context.hpp"

namespace gala::baselines::detail {

/// decide_range(input, lo, hi, decisions, stats): evaluate vertices [lo, hi).
using DecideRange = std::function<void(const core::DecideInput&, vid_t, vid_t,
                                       std::vector<core::Decision>&, gpusim::MemoryStats&)>;

/// Extra traffic a system pays per iteration beyond its decide pass
/// (e.g. nido's batch reloads); called with (num_vertices, num_adjacency).
using ExtraTraffic = std::function<void(vid_t, eid_t, gpusim::MemoryStats&)>;

struct GenericBspSpec {
  DecideRange decide_range;
  ExtraTraffic extra_per_iteration;  // may be null
  /// Effective concurrent lanes for the modeled-time conversion (see
  /// baseline.cpp for the per-system calibration).
  double parallel_lanes = 108.0 * 2048.0;
  gpusim::CostModel cost_model{};
};

inline BaselineResult generic_bsp(const graph::Graph& g, const BaselineOptions& opts,
                                  const GenericBspSpec& spec) {
  GALA_CHECK(g.total_weight() > 0, "graph has no edge weight");
  const vid_t n = g.num_vertices();
  BaselineResult result;
  Timer timer;

  std::vector<cid_t> comm(n), next(n);
  std::vector<wt_t> comm_total(n);
  std::vector<vid_t> comm_size(n, 1);
  for (vid_t v = 0; v < n; ++v) {
    comm[v] = v;
    comm_total[v] = g.degree(v);
  }
  std::vector<core::Decision> decisions(n);

  wt_t q = core::modularity(g, comm);
  gpusim::MemoryStats traffic;
  // Like every engine without a shared context, the loop owns one: its pool
  // runs the decide pass, or a size-1 pool when opts.parallel is false.
  exec::ExecutionContext ctx(opts.device, opts.seed);
  ThreadPool serial_pool(1);
  ThreadPool& pool = opts.parallel ? ctx.pool() : serial_pool;

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    const core::DecideInput input{&g, comm, comm_total, g.two_m()};
    std::mutex merge;
    pool.parallel_for_chunked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          gpusim::MemoryStats local;
          spec.decide_range(input, static_cast<vid_t>(lo), static_cast<vid_t>(hi), decisions,
                            local);
          std::lock_guard lock(merge);
          traffic += local;
        },
        256);

    vid_t moved = 0;
    for (vid_t v = 0; v < n; ++v) {
      next[v] = core::apply_move_guard(decisions[v], comm[v], comm_size);
      if (next[v] != comm[v]) ++moved;
    }
    for (vid_t v = 0; v < n; ++v) {
      if (next[v] == comm[v]) continue;
      comm_total[comm[v]] -= g.degree(v);
      comm_total[next[v]] += g.degree(v);
      --comm_size[comm[v]];
      ++comm_size[next[v]];
      traffic.global_atomics += 4;
    }
    comm.swap(next);

    // Naive community-weight recompute + community totals (Alg. 1 lines
    // 6-11) — every baseline pays this each iteration.
    traffic.global_reads += 2 * g.num_adjacency() + n;
    if (spec.extra_per_iteration) spec.extra_per_iteration(n, g.num_adjacency(), traffic);

    const wt_t next_q = core::modularity(g, comm);
    const wt_t dq = next_q - q;
    q = next_q;
    ++result.iterations;
    if (moved == 0 || dq < opts.theta) break;
  }

  result.community = std::move(comm);
  result.modularity = q;
  result.wall_seconds = timer.seconds();
  result.traffic = traffic;
  result.modeled_ms = spec.cost_model.milliseconds(traffic, spec.parallel_lanes);
  return result;
}

}  // namespace gala::baselines::detail
