#include "gala/core/phase1.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

#include "gala/common/error.hpp"
#include "gala/common/timer.hpp"
#include "gala/core/modularity.hpp"
#include "gala/scope/run_scope.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::core {

CommunityState::CommunityState(const graph::Graph& g, std::span<const cid_t> initial) {
  GALA_CHECK(g.total_weight() > 0, "graph has no edge weight");
  const vid_t n = g.num_vertices();
  GALA_CHECK(initial.empty() || initial.size() == n, "initial assignment size mismatch");
  comm.resize(n);
  next_comm.resize(n);
  comm_total.assign(n, 0);
  comm_size.assign(n, 0);
  weight.assign(n, 0);
  prev_moved.assign(n, 0);
  comm_changed.assign(n, 0);
  for (vid_t v = 0; v < n; ++v) {
    const cid_t c = initial.empty() ? v : initial[v];
    GALA_CHECK(c < n, "initial community id out of range");
    comm[v] = c;
    comm_total[c] += g.degree(v);
    ++comm_size[c];
    sum_self_loops += g.self_loop(v);
  }
  if (initial.empty()) return;  // no vertex shares a singleton
  // e_{v,C[v]} of the warm-started partition (one-off full scan).
  for (vid_t v = 0; v < n; ++v) {
    auto nbrs = g.neighbors(v);
    auto ws = g.weights(v);
    wt_t sum = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] != v && comm[nbrs[i]] == comm[v]) sum += ws[i];
    }
    weight[v] = sum;
  }
}

vid_t CommunityState::commit_moves(const graph::Graph& g, std::span<const std::uint8_t> moved) {
  vid_t movers = 0;
  std::fill(comm_changed.begin(), comm_changed.end(), 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (!moved[v]) continue;
    const cid_t old_c = comm[v];
    const cid_t new_c = next_comm[v];
    comm_total[old_c] -= g.degree(v);
    comm_total[new_c] += g.degree(v);
    GALA_ASSERT(comm_size[old_c] > 0);
    --comm_size[old_c];
    ++comm_size[new_c];
    comm_changed[old_c] = 1;
    comm_changed[new_c] = 1;
    ++movers;
  }
  comm.swap(next_comm);
  prev_moved.assign(moved.begin(), moved.end());
  return movers;
}

CommunityState::Scan CommunityState::scan(wt_t two_m) const {
  Scan s{std::numeric_limits<wt_t>::max(), 0};
  for (std::size_t c = 0; c < comm_size.size(); ++c) {
    if (comm_size[c] == 0) continue;
    s.min_total = std::min(s.min_total, comm_total[c]);
    const wt_t frac = comm_total[c] / two_m;
    s.sum_sq += frac * frac;
  }
  return s;
}

wt_t CommunityState::internal_weight(const graph::Graph& g, graph::VertexRange owned) const {
  if (owned.begin == 0 && owned.end == weight.size()) {
    wt_t internal = 2 * sum_self_loops;
    for (const wt_t w : weight) internal += w;
    return internal;
  }
  wt_t internal = 0;
  for (vid_t v = owned.begin; v < owned.end; ++v) internal += weight[v] + 2 * g.self_loop(v);
  return internal;
}

bool phase1_converged(vid_t moved, wt_t delta_q, double theta) {
  return moved == 0 || delta_q < theta;
}

std::uint64_t decide_salt(std::uint64_t seed) { return splitmix64(seed ^ 0xabcdef0123456789ULL); }

Phase1Driver::Phase1Driver(const graph::Graph& g, const BspConfig& config, CommunityState state)
    : Phase1Driver(g, config, std::move(state), {0, g.num_vertices()}, /*primary=*/true) {}

Phase1Driver::Phase1Driver(const graph::Graph& g, const BspConfig& config, CommunityState state,
                           graph::VertexRange owned, bool primary)
    : g_(g), config_(config),
      owned_context_(config.context != nullptr
                         ? nullptr
                         : std::make_unique<exec::ExecutionContext>(config.device, config.seed)),
      ctx_(config.context != nullptr ? config.context : owned_context_.get()),
      pool_(config.parallel ? ctx_->pool() : serial_pool_), state_(std::move(state)),
      owned_(owned), primary_(primary), rng_(config.seed) {}

gpusim::MemoryStats Phase1Driver::recompute_weights() {
  const std::span<const cid_t> next_comm = state_.next_comm;
  const std::span<wt_t> weight = state_.weight;
  gpusim::MemoryStats traffic;
  std::mutex merge;
  pool_.parallel_for_chunked(
      0, g_.num_vertices(),
      [&](std::size_t lo, std::size_t hi) {
        gpusim::MemoryStats local;
        for (std::size_t v = lo; v < hi; ++v) {
          const cid_t c = next_comm[v];
          auto nbrs = g_.neighbors(static_cast<vid_t>(v));
          auto ws = g_.weights(static_cast<vid_t>(v));
          wt_t sum = 0;
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            local.global_reads += 2;
            if (nbrs[i] != v && next_comm[nbrs[i]] == c) sum += ws[i];
          }
          weight[v] = sum;
          local.global_writes += 1;
        }
        std::lock_guard lock(merge);
        traffic += local;
      },
      512);
  return traffic;
}

vid_t Phase1Driver::prune_then_decide(int iter, const CommunityState::Scan& scan,
                                      std::span<const std::uint8_t> only,
                                      IterationStats& stats) {
  const CommunityState& s = state_;
  const std::span<std::uint8_t> active = run_.active;
  Timer timer;
  vid_t active_count = 0;
  std::span<const std::uint8_t> todo = active;
  vid_t todo_count = 0;
  {
    telemetry::ScopedSpan span(RunScope::current().tracer(), "pruning", "phase1");
    if (pm_iter_ != iter) {
      pm_base_ = config_.pruning == PruningStrategy::Probabilistic ? rng_() : 0;
      pm_iter_ = iter;
    }
    const PruningContext prune_ctx{&g_,          s.comm,        s.weight,   s.comm_total,
                                   scan.min_total, g_.two_m(),  s.prev_moved, s.comm_changed,
                                   iter,         config_.resolution};
    classify_range(config_.pruning, prune_ctx, config_.pm_alpha, pm_base_, owned_.begin,
                   owned_.end, only, active, pool_);
    for (vid_t v = owned_.begin; v < owned_.end; ++v) active_count += active[v];
    todo_count = active_count;
    if (!only.empty()) {
      // Decide only the active vertices among `only`.
      todo_count = 0;
      for (vid_t v = owned_.begin; v < owned_.end; ++v) {
        run_.pending[v] = only[v] && active[v];
        todo_count += run_.pending[v];
      }
      todo = run_.pending;
    }
    if (span.active()) {
      span.arg("active", static_cast<double>(active_count));
      span.arg("pruned", static_cast<double>(owned_.size() - active_count));
    }
    telemetry::flight(telemetry::FlightKind::Prune, static_cast<double>(active_count),
                      static_cast<double>(owned_.size() - active_count));
  }
  stats.other_wall += timer.seconds();
  decide_phase(todo, todo_count, run_.decisions, stats);
  return active_count;
}

void Phase1Driver::oracle_pass(std::span<const std::uint8_t> active,
                               std::span<Decision> decisions,
                               std::span<std::uint8_t> would_move) {
  // Evaluates the pruned vertices too, off the books (scratch stats), so the
  // confusion matrix can be measured without perturbing traffic accounting.
  const DecideInput input{&g_, state_.comm, state_.comm_total, g_.two_m(), config_.resolution};
  const vid_t n = g_.num_vertices();
  // Oracle decisions always take the hash path (policy-independent result).
  const DecideDispatch dispatch{KernelMode::HashOnly, config_.hashtable,
                                config_.shuffle_degree_limit};
  const std::uint64_t salt = decide_salt(config_.seed);
  exec::Workspace& ws = ctx_->workspace();
  const auto body = [&](std::size_t lo, std::size_t hi) {
    auto pages = ws.take<std::byte>(config_.device.shared_bytes_per_block, "gpusim.shared_arena");
    gpusim::SharedMemoryArena arena(pages.span());
    gpusim::MemoryStats scratch;
    HashScratch global_scratch(ws);
    for (std::size_t v = lo; v < hi; ++v) {
      if (active[v]) continue;  // active vertices already have real decisions
      decisions[v] = decide_vertex(input, static_cast<vid_t>(v), dispatch, arena, global_scratch,
                                   salt, scratch);
    }
  };
  pool_.parallel_for_chunked(0, n, body, 512);
  for (vid_t v = 0; v < n; ++v) {
    would_move[v] =
        apply_move_guard(decisions[v], state_.comm[v], state_.comm_size) != state_.comm[v] ? 1 : 0;
  }
}

Phase1Result Phase1Driver::run() {
  const vid_t n = g_.num_vertices();
  CommunityState& s = state_;
  Phase1Result result;
  telemetry::ScopedSpan phase_span(RunScope::current().tracer(), "phase1", "pipeline");
  Timer total_timer;

  // Per-run iteration state, checked out of the workspace. The first
  // iteration establishes the slabs; with pooling on, every later take()
  // anywhere in the hot loop is served from the pool (ws_allocs == 0).
  exec::Workspace& ws = ctx_->workspace();
  const exec::WorkspaceStats ws_start = ws.stats();
  exec::Workspace::Lease<std::uint8_t> active_lease, moved_lease;
  exec::Workspace::Lease<Decision> decisions_lease;
  run_ = lent_;
  if (run_.active.empty()) {
    active_lease = ws.take<std::uint8_t>(n, "phase1.active");
    moved_lease = ws.take<std::uint8_t>(n, "phase1.moved", exec::Fill::Zero);
    decisions_lease = ws.take<Decision>(n, "phase1.decisions");
    run_ = {active_lease.span(), moved_lease.span(), decisions_lease.span(), {}};
  }
  const auto engine_lease = take_run_scratch(ws, n);
  const std::span<std::uint8_t> active = run_.active;
  const std::span<std::uint8_t> moved = run_.moved;
  std::fill(active.begin(), active.end(), 1);
  exec::Workspace::Lease<std::uint8_t> would_move_lease;  // oracle mode only
  std::span<std::uint8_t> would_move;
  bool presolved = false;  // by the last iteration's window

  CommunityState::Scan scan = s.scan(g_.two_m());
  wt_t q = s.internal_weight(g_, {0, n}) / g_.two_m() - config_.resolution * scan.sum_sq;
  result.start_modularity = q;
  // Bookkeeping: 4 atomics per mover and an owned-range pass over the totals.
  const auto bookkeeping = [&](gpusim::MemoryStats& traffic) {
    traffic.global_atomics += 4 * std::uint64_t{s.commit_moves(g_, moved)};
    scan = s.scan(g_.two_m());
    traffic.global_reads += owned_.size();
  };

  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    telemetry::ScopedSpan iter_span(RunScope::current().tracer(), "iteration", "phase1");
    telemetry::flight(telemetry::FlightKind::IterationBegin, static_cast<double>(iter),
                      static_cast<double>(n));
    IterationStats stats;
    const std::uint64_t ws_allocs_before = ws.stats().heap_allocs;

    // 1+2. Pruning (§3) and DecideAndMove for the active set, over the owned
    //      vertices no window presolved.
    std::span<const std::uint8_t> only;  // empty: every owned vertex
    if (presolved) only = run_.pending;
    stats.active = prune_then_decide(iter, scan, only, stats);
    presolved = false;

    Timer other_timer;
    // 3. Apply the move guard; BSP semantics: all decisions saw iteration-
    //    start state.
    for (vid_t v = owned_.begin; v < owned_.end; ++v) {
      s.next_comm[v] =
          active[v] ? apply_move_guard(run_.decisions[v], s.comm[v], s.comm_size) : s.comm[v];
      moved[v] = s.next_comm[v] != s.comm[v] ? 1 : 0;
      stats.moved += moved[v];
    }
    telemetry::flight(telemetry::FlightKind::Apply, static_cast<double>(stats.moved),
                      static_cast<double>(iter));

    // Confusion matrix (oracle mode): evaluate pruned vertices off-the-books.
    if (config_.track_confusion) {
      if (!would_move_lease) {
        would_move_lease = ws.take<std::uint8_t>(n, "phase1.would_move");
        would_move = would_move_lease.span();
      }
      std::fill(would_move.begin(), would_move.end(), 0);
      oracle_pass(active, run_.decisions, would_move);
      for (vid_t v = 0; v < n; ++v) {
        if (active[v]) {
          moved[v] ? ++stats.tp : ++stats.fp;
        } else {
          would_move[v] ? ++stats.fn : ++stats.tn;
        }
      }
    }
    stats.other_wall += other_timer.seconds();

    // 4. Exchange the moves (§4.3).
    post_exchange(Round::Moves, stats);
    complete_exchange(Round::Moves, {}, stats);

    // 5. Community weight update (§3.5) — needs old comm and next_comm.
    weight_update_phase(moved, stats);

    // 6. Exchange the weight messages. An open window runs bookkeeping and
    //    the presolve set's next-iteration prune+decide while they are in
    //    flight.
    other_timer.reset();
    const Window window = post_exchange(Round::Weights, stats);
    gpusim::MemoryStats window_traffic;
    if (window.open) {
      {
        telemetry::ScopedSpan bk_span(RunScope::current().tracer(), "bookkeeping", "phase1");
        gpusim::MemoryStats bk;
        bookkeeping(bk);
        stats.bookkeeping_traffic += bk;
        window_traffic += bk;
        if (bk_span.active()) bk_span.arg("modeled_ms", config_.device.modeled_ms(bk));
      }
      if (!window.presolve.empty()) {
        GALA_ASSERT(!run_.pending.empty());  // lent by the presolving engine
        IterationStats ahead;
        prune_then_decide(iter + 1, scan, window.presolve, ahead);
        stats.decide_traffic += ahead.decide_traffic;
        window_traffic += ahead.decide_traffic;
        for (vid_t v = owned_.begin; v < owned_.end; ++v) run_.pending[v] = !window.presolve[v];
        presolved = true;
      }
    }
    complete_exchange(Round::Weights, window_traffic, stats);

    {
      // 7. Bookkeeping (unless the window ran it), then modularity.
      telemetry::ScopedSpan bk_span(RunScope::current().tracer(), "bookkeeping", "phase1");
      gpusim::MemoryStats bk;
      if (!window.open) bookkeeping(bk);
      // The iteration allocates nothing more: its memory epoch is final.
      // Marked before the reduce, which parks a rank's peers meanwhile.
      if (primary_) memtrace::mark_epoch(memtrace::EpochKind::Iteration, iter);
      const wt_t internal = sum_over_devices(s.internal_weight(g_, owned_));
      bk.global_reads += owned_.size();  // modularity reduction
      const wt_t next_q = internal / g_.two_m() - config_.resolution * scan.sum_sq;
      stats.bookkeeping_traffic += bk;
      stats.modularity = next_q;
      stats.delta_q = next_q - q;
      q = next_q;
      if (bk_span.active()) bk_span.arg("modeled_ms", config_.device.modeled_ms(bk));
    }
    stats.other_wall += other_timer.seconds();

    stats.ws_allocs = ws.stats().heap_allocs - ws_allocs_before;

    if (iter_span.active()) {
      iter_span.last_arg("iteration", static_cast<double>(iter));
      iter_span.arg("active", static_cast<double>(stats.active));
      iter_span.arg("moved", static_cast<double>(stats.moved));
      iter_span.last_arg("modularity", stats.modularity);
      iter_span.last_arg("delta_q", stats.delta_q);
      iter_span.arg("ws_allocs", static_cast<double>(stats.ws_allocs));
    }

    if (primary_) {
      telemetry::flight(telemetry::FlightKind::IterationEnd, stats.modularity, stats.delta_q);
    }

    result.iterations.push_back(stats);
    if (config_.on_iteration) config_.on_iteration(iter, stats, active, moved, s.comm);

    if (phase1_converged(stats.moved, stats.delta_q, config_.theta)) break;
  }

  run_ = {};  // the leases end with this call
  result.community = s.comm;
  result.modularity = q;
  result.num_communities = count_communities(result.community);
  result.wall_seconds = total_timer.seconds();
  for (const auto& it : result.iterations) {
    result.total_traffic += it.decide_traffic;
    result.total_traffic += it.update_traffic;
    result.total_traffic += it.bookkeeping_traffic;
    result.decide_modeled_ms += config_.device.modeled_ms(it.decide_traffic);
    result.update_modeled_ms += config_.device.modeled_ms(it.update_traffic);
    result.other_modeled_ms += config_.device.modeled_ms(it.bookkeeping_traffic);
  }
  result.workspace = ws.stats();
  if (phase_span.active()) {
    phase_span.arg("iterations", static_cast<double>(result.iterations.size()));
    phase_span.last_arg("communities", static_cast<double>(result.num_communities));
    phase_span.last_arg("modularity", result.modularity);
    phase_span.arg("decide_modeled_ms", result.decide_modeled_ms);
    phase_span.arg("update_modeled_ms", result.update_modeled_ms);
    phase_span.arg("other_modeled_ms", result.other_modeled_ms);
    // Per-run deltas: span args sum across instances (one phase1 span per
    // level), so only deltas aggregate meaningfully. Snapshot totals live in
    // Phase1Result::workspace.
    phase_span.arg("ws_heap_allocs",
                   static_cast<double>(result.workspace.heap_allocs - ws_start.heap_allocs));
    phase_span.arg("ws_reuse_hits",
                   static_cast<double>(result.workspace.reuse_hits - ws_start.reuse_hits));
  }
  return result;
}

}  // namespace gala::core
