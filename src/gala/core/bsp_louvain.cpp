#include "gala/core/bsp_louvain.hpp"

#include <atomic>
#include <new>

#include "gala/common/timer.hpp"
#include "gala/core/phase1.hpp"
#include "gala/scope/run_scope.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::core {

std::string to_string(WeightUpdateMode mode) {
  switch (mode) {
    case WeightUpdateMode::Recompute:
      return "recompute";
    case WeightUpdateMode::Delta:
      return "delta";
  }
  return "?";
}

namespace {

/// The BSP engine: the phase-1 driver with the workload-aware decide kernels
/// and the recompute/delta weight update as its primitives.
class BspEngine final : public Phase1Driver {
 public:
  BspEngine(const graph::Graph& g, const BspConfig& config, CommunityState state)
      : Phase1Driver(g, config, std::move(state)), salt_(decide_salt(config.seed)),
        shuffle_list_(ctx_->workspace(), "phase1.shuffle_list"),
        hash_list_(ctx_->workspace(), "phase1.hash_list") {}

 private:
  void decide_phase(std::span<const std::uint8_t> active, vid_t active_count,
                    std::span<Decision> decisions, IterationStats& iter_stats) override;
  void weight_update_phase(std::span<const std::uint8_t> moved,
                           IterationStats& iter_stats) override;
  void ensure_delta_buffer(vid_t n);

  std::uint64_t salt_;
  // Delta-update message buffer: a pooled slab of std::atomic<wt_t>,
  // placement-constructed once per run (atomics are not trivially
  // copyable, so PooledVec does not apply).
  exec::Workspace::Lease<std::byte> delta_lease_;
  std::span<std::atomic<wt_t>> delta_;
  // Workload-aware dispatch lists, pooled and rebuilt each iteration.
  exec::PooledVec<vid_t> shuffle_list_;
  exec::PooledVec<vid_t> hash_list_;
};

void BspEngine::ensure_delta_buffer(vid_t n) {
  if (delta_.size() >= n) return;
  using AtomicWt = std::atomic<wt_t>;
  static_assert(std::is_trivially_destructible_v<AtomicWt>,
                "pooled delta slab is released without running destructors");
  delta_lease_.release();
  delta_lease_ = ctx_->workspace().take<std::byte>(static_cast<std::size_t>(n) * sizeof(AtomicWt),
                                                   "phase1.delta");
  auto* base = reinterpret_cast<AtomicWt*>(delta_lease_.data());
  for (vid_t v = 0; v < n; ++v) new (base + v) AtomicWt{0};
  delta_ = {base, static_cast<std::size_t>(n)};
}

void BspEngine::decide_phase(std::span<const std::uint8_t> active, vid_t /*active_count*/,
                             std::span<Decision> decisions, IterationStats& iter_stats) {
  const vid_t n = g_.num_vertices();
  // Governor rung 2: GlobalOnly is the exact-parity fallback (decisions are
  // policy-independent), so forcing it sheds shared-arena pages without
  // moving a single vertex differently.
  const HashTablePolicy table = RunScope::current().governor().force_global_only()
                                    ? HashTablePolicy::GlobalOnly
                                    : config_.hashtable;
  const DecideDispatch dispatch{config_.kernel, table, config_.shuffle_degree_limit};

  const DecideInput input{&g_, state_.comm, state_.comm_total, g_.two_m(), config_.resolution};

  // Both launches run the same per-vertex body: decide_vertex re-applies the
  // dispatch rule, which maps each list back onto its own kernel. The hash
  // scratch is the launch's kernel scratch: each pool chunk checks one out
  // of the workspace and every vertex of the chunk reuses it, as the chunk
  // reuses its arena.
  using Body = std::function<void(gpusim::BlockContext&, HashScratch&)>;
  const auto decide_range = [&](gpusim::BlockContext& ctx, HashScratch& scratch,
                                std::span<const vid_t> list, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const vid_t v = list[i];
      decisions[v] = decide_vertex(input, v, dispatch, *ctx.shared, scratch, salt_, *ctx.stats);
    }
  };
  // Shuffle kernel: one warp per vertex; blocks batch several warps.
  constexpr std::size_t kWarpsPerBlock = 32;
  const Body run_shuffle = [&](gpusim::BlockContext& ctx, HashScratch& scratch) {
    const std::size_t lo = ctx.block_id * kWarpsPerBlock;
    const std::size_t hi = std::min(shuffle_list_.size(), lo + kWarpsPerBlock);
    decide_range(ctx, scratch, shuffle_list_, lo, hi);
  };
  // Hash kernel: one block per vertex (paper's assignment for large degrees).
  const Body run_hash = [&](gpusim::BlockContext& ctx, HashScratch& scratch) {
    decide_range(ctx, scratch, hash_list_, ctx.block_id, ctx.block_id + 1);
  };

  const auto launch = [&](std::size_t blocks, const Body& body, std::string_view name) {
    return ctx_->device().launch<HashScratch>(pool_, blocks, body, name);
  };

  telemetry::ScopedSpan span(RunScope::current().tracer(), "decide", "phase1");
  gpusim::LaunchStats total;
  std::size_t shuffle_total = 0;
  std::size_t hash_total = 0;
  const auto flush = [&] {
    if (!shuffle_list_.empty()) {
      total += launch((shuffle_list_.size() + kWarpsPerBlock - 1) / kWarpsPerBlock, run_shuffle,
                      "decide_shuffle");
      shuffle_total += shuffle_list_.size();
      shuffle_list_.clear();
    }
    if (!hash_list_.empty()) {
      total += launch(hash_list_.size(), run_hash, "decide_hash");
      hash_total += hash_list_.size();
      hash_list_.clear();
    }
  };

  // Workload-aware dispatch: split the active set by degree. The lists are
  // pooled members — clear() keeps capacity, so steady-state iterations
  // rebuild them without touching the allocator. Governor rung 4 bounds the
  // materialised window: each decision is a per-vertex function of the same
  // pre-iteration community state (applied later, in apply_phase), so
  // chunked launches compute exactly what one launch would.
  const std::size_t window = RunScope::current().governor().frontier_chunk();
  shuffle_list_.clear();
  hash_list_.clear();
  for (vid_t v = 0; v < n; ++v) {
    if (!active[v]) continue;
    (use_shuffle_kernel(g_, v, dispatch) ? shuffle_list_ : hash_list_).push_back(v);
    if (window > 0 && shuffle_list_.size() + hash_list_.size() >= window) flush();
  }
  flush();

  iter_stats.decide_traffic += total.traffic;
  iter_stats.decide_wall += total.wall_seconds;
  iter_stats.ht_maintenance_rate = total.traffic.maintenance_rate();
  iter_stats.ht_access_rate = total.traffic.access_rate();
  iter_stats.ht_mean_probe_length = total.traffic.mean_probe_length();
  telemetry::flight(telemetry::FlightKind::Decide, static_cast<double>(shuffle_total),
                    static_cast<double>(hash_total));
  if (span.active()) {
    span.arg("shuffle_vertices", static_cast<double>(shuffle_total));
    span.arg("hash_vertices", static_cast<double>(hash_total));
    span.arg("modeled_ms", config_.device.modeled_ms(total.traffic));
    gpusim::attach_traffic(span, total.traffic);
  }
}

void BspEngine::weight_update_phase(std::span<const std::uint8_t> moved,
                                    IterationStats& iter_stats) {
  // Updates weight[v] = e_{v, next_C[v]} given comm (old) and next_comm
  // (new). Traffic is charged as the corresponding GPU kernel would.
  const vid_t n = g_.num_vertices();
  const std::span<const cid_t> comm = state_.comm;
  const std::span<const cid_t> next_comm = state_.next_comm;
  const std::span<wt_t> weight = state_.weight;
  telemetry::ScopedSpan span(RunScope::current().tracer(), "weight-update", "phase1");
  Timer timer;
  gpusim::MemoryStats traffic;
  const auto for_chunks = [&](const std::function<void(std::size_t, std::size_t,
                                                       gpusim::MemoryStats&)>& body) {
    std::mutex merge;
    pool_.parallel_for_chunked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          gpusim::MemoryStats local;
          body(lo, hi, local);
          std::lock_guard lock(merge);
          traffic += local;
        },
        512);
  };

  if (config_.weight_update == WeightUpdateMode::Recompute) {
    traffic = recompute_weights();
  } else {
    // Delta (§3.5): moved vertices recompute and notify unmoved neighbours;
    // unmoved vertices only fold in the deltas they received. Cost is
    // proportional to the degrees of *moved* vertices.
    ensure_delta_buffer(n);
    auto delta = delta_;  // pooled slab, reused across iterations
    for_chunks([&](std::size_t lo, std::size_t hi, gpusim::MemoryStats&) {
      for (std::size_t v = lo; v < hi; ++v) delta[v].store(0, std::memory_order_relaxed);
    });
    for_chunks([&](std::size_t lo, std::size_t hi, gpusim::MemoryStats& local) {
      for (std::size_t u = lo; u < hi; ++u) {
        if (!moved[u]) continue;
        weight[u] = emit_mover_deltas(g_, comm, next_comm, moved, static_cast<vid_t>(u),
                                      next_comm[u], local, [&](vid_t x, wt_t d) {
                                        delta[x].fetch_add(d, std::memory_order_relaxed);
                                      });
      }
    });
    for_chunks([&](std::size_t lo, std::size_t hi, gpusim::MemoryStats& local) {
      for (std::size_t v = lo; v < hi; ++v) {
        if (moved[v]) continue;
        const wt_t d = delta[v].load(std::memory_order_relaxed);
        if (d != 0) {
          weight[v] += d;
          local.global_reads += 1;
          local.global_writes += 1;
        }
      }
    });
  }
  iter_stats.update_traffic += traffic;
  iter_stats.update_wall += timer.seconds();
  if (span.active()) {
    span.arg("mode", config_.weight_update == WeightUpdateMode::Delta ? 1.0 : 0.0);
    span.arg("modeled_ms", config_.device.modeled_ms(traffic));
    gpusim::attach_traffic(span, traffic);
  }
}

}  // namespace

Phase1Result bsp_phase1(const graph::Graph& g, const BspConfig& config,
                        std::span<const cid_t> initial) {
  return BspEngine(g, config, CommunityState(g, initial)).run();
}

}  // namespace gala::core
