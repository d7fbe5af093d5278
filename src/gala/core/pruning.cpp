#include "gala/core/pruning.hpp"

#include "gala/common/error.hpp"

namespace gala::core {
namespace {

bool sm_is_inactive(const PruningContext& ctx, vid_t v) {
  // Every community containing v or a neighbour must be untouched.
  if (ctx.comm_changed[ctx.comm[v]]) return false;
  for (const vid_t u : ctx.g->neighbors(v)) {
    if (ctx.comm_changed[ctx.comm[u]]) return false;
  }
  return true;
}

bool rm_is_inactive(const PruningContext& ctx, vid_t v) {
  // v and all neighbours unmoved in the previous iteration.
  if (ctx.prev_moved[v]) return false;
  for (const vid_t u : ctx.g->neighbors(v)) {
    if (ctx.prev_moved[u]) return false;
  }
  return true;
}

bool pm_is_inactive(const PruningContext& ctx, vid_t v, double pm_alpha, std::uint64_t pm_base) {
  if (ctx.prev_moved[v]) return false;
  const double coin =
      static_cast<double>(splitmix64(pm_base ^ (v * 0x9e3779b97f4a7c15ULL)) >> 11) * 0x1.0p-53;
  return coin < pm_alpha;
}

}  // namespace

std::string to_string(PruningStrategy s) {
  switch (s) {
    case PruningStrategy::None:
      return "none";
    case PruningStrategy::Strict:
      return "SM";
    case PruningStrategy::Relaxed:
      return "RM";
    case PruningStrategy::Probabilistic:
      return "PM";
    case PruningStrategy::ModularityGain:
      return "MG";
    case PruningStrategy::MgPlusRelaxed:
      return "MG+RM";
  }
  return "?";
}

bool mg_is_inactive(const PruningContext& ctx, vid_t v) {
  // Equation 6. Uses the raw D_V(C[v]) maintained by the BSP state (which
  // includes d(v)); subtracting more only tightens the condition, so zero
  // false negatives is preserved.
  const wt_t dv = ctx.g->degree(v);
  const wt_t lhs =
      2 * ctx.vertex_comm_weight[v] - dv +
      ctx.resolution * (ctx.min_comm_total - ctx.comm_total[ctx.comm[v]]) * dv / ctx.two_m;
  return lhs >= 0;
}

bool is_inactive(PruningStrategy strategy, const PruningContext& ctx, vid_t v, double pm_alpha,
                 std::uint64_t pm_base) {
  const bool history_ready = ctx.iteration > 0;
  switch (strategy) {
    case PruningStrategy::None:
      return false;
    case PruningStrategy::Strict:
      return history_ready && sm_is_inactive(ctx, v);
    case PruningStrategy::Relaxed:
      return history_ready && rm_is_inactive(ctx, v);
    case PruningStrategy::Probabilistic:
      return history_ready && pm_is_inactive(ctx, v, pm_alpha, pm_base);
    case PruningStrategy::ModularityGain:
      return mg_is_inactive(ctx, v);
    case PruningStrategy::MgPlusRelaxed:
      return mg_is_inactive(ctx, v) || (history_ready && rm_is_inactive(ctx, v));
  }
  GALA_CHECK(false, "unknown pruning strategy");
}

void compute_active(PruningStrategy strategy, const PruningContext& ctx, double pm_alpha,
                    Xoshiro256& rng, std::span<std::uint8_t> active, ThreadPool& pool) {
  // One deterministic draw per iteration seeds PM's per-vertex coins, so the
  // parallel loop is schedule-independent.
  const std::uint64_t pm_base = strategy == PruningStrategy::Probabilistic ? rng() : 0;
  classify_range(strategy, ctx, pm_alpha, pm_base, 0, ctx.g->num_vertices(), {}, active, pool);
}

void classify_range(PruningStrategy strategy, const PruningContext& ctx, double pm_alpha,
                    std::uint64_t pm_base, vid_t begin, vid_t end,
                    std::span<const std::uint8_t> only, std::span<std::uint8_t> active,
                    ThreadPool& pool) {
  GALA_CHECK(active.size() == ctx.g->num_vertices(), "active span size mismatch");
  const auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      if (only.empty() || only[v]) {
        active[v] = is_inactive(strategy, ctx, static_cast<vid_t>(v), pm_alpha, pm_base) ? 0 : 1;
      }
    }
  };
  pool.parallel_for_chunked(begin, end, body, /*grain=*/1024);
}

}  // namespace gala::core
