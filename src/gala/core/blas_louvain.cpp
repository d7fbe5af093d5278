#include "gala/core/blas_louvain.hpp"

#include <algorithm>
#include <atomic>

#include "gala/blas/spmv.hpp"
#include "gala/common/timer.hpp"
#include "gala/core/phase1.hpp"
#include "gala/scope/run_scope.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::core {
namespace {

/// Rows per block of the recipient-mask push.
constexpr std::size_t kMarkRowsPerBlock = 128;

/// The linear-algebra engine: the phase-1 driver with the masked decide
/// gather and the masked weight dot as its primitives.
class BlasEngine final : public Phase1Driver {
 public:
  BlasEngine(const graph::Graph& g, const BspConfig& config, const blas::Tuning& tuning,
             BlasPhase1Stats* blas_stats, std::span<const cid_t> initial)
      : Phase1Driver(g, config, CommunityState(g, initial)), tuning_(tuning),
        blas_stats_(blas_stats),
        frontier_(ctx_->workspace(), "blas.frontier") {}

 private:
  exec::Workspace::Lease<std::uint8_t> take_run_scratch(exec::Workspace& ws, vid_t n) override;
  void decide_phase(std::span<const std::uint8_t> active, vid_t active_count,
                    std::span<Decision> decisions, IterationStats& iter_stats) override;
  void weight_update_phase(std::span<const std::uint8_t> moved,
                           IterationStats& iter_stats) override;

  blas::Tuning tuning_;
  BlasPhase1Stats* blas_stats_;
  exec::PooledVec<vid_t> frontier_;
  std::span<std::uint8_t> recipients_;  // the weight update's row mask
  blas::Direction last_direction_ = blas::Direction::Pull;
  bool any_iteration_ = false;
};

exec::Workspace::Lease<std::uint8_t> BlasEngine::take_run_scratch(exec::Workspace& ws, vid_t n) {
  auto recipients = ws.take<std::uint8_t>(n, "blas.recipients");
  recipients_ = recipients.span();
  return recipients;
}

void BlasEngine::decide_phase(std::span<const std::uint8_t> active, vid_t active_count,
                              std::span<Decision> decisions, IterationStats& iter_stats) {
  const vid_t n = g_.num_vertices();
  const wt_t two_m = g_.two_m();
  const wt_t resolution = config_.resolution;

  // The visitor replicates the hash kernel's scoring tail value-for-value:
  // same move_score inputs, same BestTracker tie-break, same empty-row and
  // isolated-vertex handling — the SPA already summed in upsert order.
  const std::span<const cid_t> comm = state_.comm;
  const std::span<const wt_t> comm_total = state_.comm_total;
  const auto score_row = [&](vid_t v, std::span<const cid_t> touched, const wt_t* vals,
                             gpusim::MemoryStats& stats) {
    const cid_t curr = comm[v];
    const wt_t dv = g_.degree(v);
    Decision result;
    BestTracker tracker;
    wt_t e_curr = 0;
    for (const cid_t c : touched) {
      stats.register_ops += 1;
      stats.global_reads += 1;  // D_V(c)
      const wt_t score = move_score(vals[c], comm_total[c], dv, two_m, c == curr, resolution);
      if (c == curr) e_curr = vals[c];
      tracker.offer(c, score);
    }
    result.weight_to_curr = e_curr;
    stats.global_reads += 1;  // D_V(C[v])
    result.curr_score = move_score(e_curr, comm_total[curr], dv, two_m, true, resolution);
    if (tracker.best == kInvalidCid) {
      result.best = curr;
      result.best_score = result.curr_score;
    } else {
      result.best = tracker.best;
      result.best_score = tracker.score;
    }
    decisions[v] = result;
    stats.global_writes += 1;
  };

  const blas::Direction dir =
      blas::choose_direction(active_count, n, tuning_.pull_threshold);

  telemetry::ScopedSpan span(RunScope::current().tracer(), "gather", "blas");
  gpusim::LaunchStats total;
  std::uint64_t pull_rows = 0;
  std::uint64_t push_rows = 0;
  if (dir == blas::Direction::Pull) {
    const blas::GatherStats gs =
        blas::masked_gather(g_, comm, active, {}, blas::Direction::Pull, ctx_->device(),
                            pool_, score_row, "blas_gather_pull");
    total += gs.launch;
    pull_rows += gs.rows;
  } else {
    // Push: compact the frontier; governor rung 4 bounds the materialised
    // window exactly like the BSP dispatch lists (decisions read
    // iteration-start state, so chunked launches are equivalent to one).
    const std::size_t window = RunScope::current().governor().frontier_chunk();
    frontier_.clear();
    const auto flush = [&] {
      if (frontier_.empty()) return;
      const blas::GatherStats gs =
          blas::masked_gather(g_, comm, {}, frontier_, blas::Direction::Push, ctx_->device(),
                              pool_, score_row, "blas_gather_push");
      total += gs.launch;
      push_rows += gs.rows;
      frontier_.clear();
    };
    for (vid_t v = 0; v < n; ++v) {
      if (!active[v]) continue;
      frontier_.push_back(v);
      if (window > 0 && frontier_.size() >= window) flush();
    }
    flush();
  }

  if (blas_stats_ != nullptr) {
    (dir == blas::Direction::Pull ? blas_stats_->pull_iterations
                                  : blas_stats_->push_iterations) += 1;
    if (any_iteration_ && dir != last_direction_) ++blas_stats_->direction_switches;
    blas_stats_->gathered_rows += pull_rows + push_rows;
  }
  last_direction_ = dir;
  any_iteration_ = true;

  iter_stats.decide_traffic += total.traffic;
  iter_stats.decide_wall += total.wall_seconds;
  telemetry::flight(telemetry::FlightKind::Decide, static_cast<double>(pull_rows),
                    static_cast<double>(push_rows));
  if (span.active()) {
    span.arg("direction", dir == blas::Direction::Pull ? 0.0 : 1.0);
    span.arg("rows", static_cast<double>(pull_rows + push_rows));
    span.arg("modeled_ms", config_.device.modeled_ms(total.traffic));
    gpusim::attach_traffic(span, total.traffic);
  }
}

void BlasEngine::weight_update_phase(std::span<const std::uint8_t> moved,
                                     IterationStats& iter_stats) {
  // w(v) = e_{v, next_C[v]} in two steps. The recipient mask marks every row
  // whose value can change: each mover, and each neighbour of a mover whose
  // next community is the mover's old or new one (the rows §3.5's deltas
  // reach). The masked dot then recomputes only those rows. An unmarked row
  // has the same terms, in the same order, as when it was last summed, and a
  // sum from 0 equals the SPA's first-touch sum on positive weights, so every
  // w is bit-identical to a full recompute. Recompute marks every row.
  telemetry::ScopedSpan span(RunScope::current().tracer(), "weight-update", "blas");
  Timer timer;
  const vid_t n = g_.num_vertices();
  const std::span<const cid_t> comm = state_.comm;
  const std::span<const cid_t> next_comm = state_.next_comm;
  const std::span<std::uint8_t> recipients = recipients_;
  const bool recompute = config_.weight_update == WeightUpdateMode::Recompute;
  std::fill(recipients.begin(), recipients.end(), recompute ? 1 : 0);
  gpusim::MemoryStats traffic;
  traffic.global_writes += n;  // mask initialisation

  if (!recompute) {
    // A push over the movers. Concurrent blocks may mark one row; the mask
    // is a set, so it does not depend on their order.
    const auto mark = [&](vid_t v) {
      std::atomic_ref<std::uint8_t>(recipients[v]).store(1, std::memory_order_relaxed);
    };
    const auto push = [&](gpusim::BlockContext& ctx) {
      gpusim::MemoryStats& stats = *ctx.stats;
      const std::size_t lo = ctx.block_id * kMarkRowsPerBlock;
      const std::size_t hi = std::min<std::size_t>(n, lo + kMarkRowsPerBlock);
      for (std::size_t u = lo; u < hi; ++u) {
        stats.global_reads += 1;  // moved flag
        if (!moved[u]) continue;
        const cid_t old_c = comm[u];
        const cid_t new_c = next_comm[u];
        mark(static_cast<vid_t>(u));
        const auto nbrs = g_.neighbors(static_cast<vid_t>(u));
        std::uint64_t marks = 1;
        for (const vid_t x : nbrs) {
          const cid_t cx = next_comm[x];
          if (cx != old_c && cx != new_c) continue;
          mark(x);
          ++marks;
        }
        stats.global_reads += 2 + 2 * nbrs.size();  // old/new; id and next_comm[x]
        stats.register_ops += nbrs.size();           // community test
        stats.global_writes += marks;
      }
    };
    const std::size_t blocks = (n + kMarkRowsPerBlock - 1) / kMarkRowsPerBlock;
    traffic += ctx_->device().launch(pool_, blocks, push, "blas_weight_update").traffic;
  }

  const blas::GatherStats dot = blas::masked_dot(g_, next_comm, recipients, state_.weight,
                                                 ctx_->device(), pool_, "blas_weight_update");
  traffic += dot.launch.traffic;
  if (blas_stats_ != nullptr) blas_stats_->updated_rows += dot.rows;
  iter_stats.update_traffic += traffic;
  iter_stats.update_wall += timer.seconds();
  if (span.active()) {
    span.arg("rows", static_cast<double>(dot.rows));
    span.arg("modeled_ms", config_.device.modeled_ms(traffic));
    gpusim::attach_traffic(span, traffic);
  }
}

}  // namespace

Phase1Result blas_phase1(const graph::Graph& g, const BspConfig& config,
                         const blas::Tuning& tuning, BlasPhase1Stats* stats,
                         std::span<const cid_t> initial) {
  return BlasEngine(g, config, tuning, stats, initial).run();
}

}  // namespace gala::core
