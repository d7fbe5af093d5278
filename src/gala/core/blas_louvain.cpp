#include "gala/core/blas_louvain.hpp"

#include <algorithm>

#include "gala/blas/spmv.hpp"
#include "gala/common/timer.hpp"
#include "gala/core/phase1.hpp"
#include "gala/governor/governor.hpp"
#include "gala/telemetry/flight_recorder.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::core {
namespace {

/// The linear-algebra engine: the phase-1 driver with the masked decide
/// gather and the next-assignment weight gather as its primitives.
class BlasEngine final : public Phase1Driver {
 public:
  BlasEngine(const graph::Graph& g, const BspConfig& config, const blas::Tuning& tuning,
             BlasPhase1Stats* blas_stats)
      : Phase1Driver(g, config, CommunityState(g)), tuning_(tuning), blas_stats_(blas_stats),
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
  std::span<const std::uint8_t> ones_;  // the run's all-ones row mask
  blas::Direction last_direction_ = blas::Direction::Pull;
  bool any_iteration_ = false;
};

exec::Workspace::Lease<std::uint8_t> BlasEngine::take_run_scratch(exec::Workspace& ws, vid_t n) {
  auto ones = ws.take<std::uint8_t>(n, "blas.ones");
  std::fill(ones.span().begin(), ones.span().end(), 1);
  ones_ = ones.span();
  return ones;
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

  telemetry::ScopedSpan span(telemetry::Tracer::global(), "gather", "blas");
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
    const std::size_t window = governor::Governor::global().frontier_chunk();
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

void BlasEngine::weight_update_phase(std::span<const std::uint8_t> /*moved*/,
                                     IterationStats& iter_stats) {
  // w(v) = e_{v, next_C[v]} as a masked extract from a gather against the
  // *next* assignment. The SPA sums in adjacency order — bit-identical to
  // the recompute kernel's per-row sum.
  telemetry::ScopedSpan span(telemetry::Tracer::global(), "weight-update", "blas");
  Timer timer;
  const std::span<const cid_t> next_comm = state_.next_comm;
  const std::span<wt_t> weight = state_.weight;
  const auto extract_row = [&](vid_t v, std::span<const cid_t> touched, const wt_t* vals,
                               gpusim::MemoryStats& stats) {
    const cid_t c = next_comm[v];
    stats.global_reads += 1;  // next assignment of the row vertex
    wt_t sum = 0;
    for (const cid_t t : touched) {
      stats.register_ops += 1;
      if (t == c) {
        sum = vals[t];
        break;
      }
    }
    weight[v] = sum;
    stats.global_writes += 1;
  };
  const blas::GatherStats gs =
      blas::masked_gather(g_, next_comm, ones_, {}, blas::Direction::Pull, ctx_->device(),
                          pool_, extract_row, "blas_weight_update");
  iter_stats.update_traffic += gs.launch.traffic;
  iter_stats.update_wall += timer.seconds();
  if (span.active()) {
    span.arg("modeled_ms", config_.device.modeled_ms(gs.launch.traffic));
    gpusim::attach_traffic(span, gs.launch.traffic);
  }
}

}  // namespace

Phase1Result blas_phase1(const graph::Graph& g, const BspConfig& config,
                         const blas::Tuning& tuning, BlasPhase1Stats* stats) {
  return BlasEngine(g, config, tuning, stats).run();
}

}  // namespace gala::core
