#include "gala/core/phase1.hpp"

#include <algorithm>
#include <limits>

#include "gala/common/error.hpp"
#include "gala/common/timer.hpp"
#include "gala/core/modularity.hpp"
#include "gala/memtrace/memtrace.hpp"
#include "gala/telemetry/flight_recorder.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::core {

CommunityState::CommunityState(const graph::Graph& g) {
  GALA_CHECK(g.total_weight() > 0, "graph has no edge weight");
  const vid_t n = g.num_vertices();
  comm.resize(n);
  next_comm.resize(n);
  comm_total.resize(n);
  comm_size.resize(n);
  weight.assign(n, 0);
  prev_moved.assign(n, 0);
  comm_changed.assign(n, 0);
  for (vid_t v = 0; v < n; ++v) {
    comm[v] = v;
    comm_total[v] = g.degree(v);
    comm_size[v] = 1;
    sum_self_loops += g.self_loop(v);
  }
}

CommunityState::CommunityState(const graph::Graph& g, std::span<const cid_t> initial)
    : CommunityState(g) {
  const vid_t n = g.num_vertices();
  GALA_CHECK(initial.size() == n, "initial assignment size mismatch");
  std::fill(comm_total.begin(), comm_total.end(), 0);
  std::fill(comm_size.begin(), comm_size.end(), 0);
  for (vid_t v = 0; v < n; ++v) {
    GALA_CHECK(initial[v] < n, "initial community id out of range");
    comm[v] = initial[v];
    comm_total[initial[v]] += g.degree(v);
    ++comm_size[initial[v]];
  }
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

wt_t CommunityState::modularity(wt_t two_m, double resolution, wt_t sum_sq) const {
  wt_t internal = 2 * sum_self_loops;
  for (const wt_t w : weight) internal += w;
  return internal / two_m - resolution * sum_sq;
}

bool phase1_converged(vid_t moved, wt_t delta_q, double theta) {
  return moved == 0 || delta_q < theta;
}

std::uint64_t decide_salt(std::uint64_t seed) { return splitmix64(seed ^ 0xabcdef0123456789ULL); }

Phase1Driver::Phase1Driver(const graph::Graph& g, const BspConfig& config, CommunityState state)
    : g_(g), config_(config),
      owned_context_(config.context != nullptr
                         ? nullptr
                         : std::make_unique<exec::ExecutionContext>(config.device, config.seed)),
      ctx_(config.context != nullptr ? config.context : owned_context_.get()),
      state_(std::move(state)) {}

exec::Workspace::Lease<std::uint8_t> Phase1Driver::take_run_scratch(exec::Workspace&, vid_t) {
  return {};
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
  ThreadPool* pool = config_.parallel ? &ThreadPool::global() : nullptr;
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
  if (pool) {
    pool->parallel_for_chunked(0, n, body, 512);
  } else {
    body(0, n);
  }
  for (vid_t v = 0; v < n; ++v) {
    would_move[v] =
        apply_move_guard(decisions[v], state_.comm[v], state_.comm_size) != state_.comm[v] ? 1 : 0;
  }
}

Phase1Result Phase1Driver::run() {
  const vid_t n = g_.num_vertices();
  CommunityState& s = state_;
  Phase1Result result;
  telemetry::ScopedSpan phase_span(telemetry::Tracer::global(), "phase1", "pipeline");
  Timer total_timer;
  Xoshiro256 rng(config_.seed);

  // Per-run iteration state, checked out of the workspace. The first
  // iteration establishes the slabs; with pooling on, every later take()
  // anywhere in the hot loop is served from the pool (ws_allocs == 0).
  exec::Workspace& ws = ctx_->workspace();
  const exec::WorkspaceStats ws_start = ws.stats();
  auto active_lease = ws.take<std::uint8_t>(n, "phase1.active");
  auto moved_lease = ws.take<std::uint8_t>(n, "phase1.moved", exec::Fill::Zero);
  auto decisions_lease = ws.take<Decision>(n, "phase1.decisions");
  const auto engine_lease = take_run_scratch(ws, n);
  std::span<std::uint8_t> active = active_lease.span();
  std::span<std::uint8_t> moved = moved_lease.span();
  std::span<Decision> decisions = decisions_lease.span();
  std::fill(active.begin(), active.end(), 1);
  exec::Workspace::Lease<std::uint8_t> would_move_lease;  // oracle mode only
  std::span<std::uint8_t> would_move;

  CommunityState::Scan scan = s.scan(g_.two_m());
  wt_t q = s.modularity(g_.two_m(), config_.resolution, scan.sum_sq);

  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    telemetry::ScopedSpan iter_span(telemetry::Tracer::global(), "iteration", "phase1");
    telemetry::flight(telemetry::FlightKind::IterationBegin, static_cast<double>(iter),
                      static_cast<double>(n));
    IterationStats stats;
    const std::uint64_t ws_allocs_before = ws.stats().heap_allocs;
    Timer other_timer;

    // 1. Pruning (§3).
    {
      telemetry::ScopedSpan prune_span(telemetry::Tracer::global(), "pruning", "phase1");
      const PruningContext prune_ctx{&g_,           s.comm,         s.weight,
                                     s.comm_total,  scan.min_total, g_.two_m(),
                                     s.prev_moved,  s.comm_changed, iter,
                                     config_.resolution};
      compute_active(config_.pruning, prune_ctx, config_.pm_alpha, rng, active, *ctx_,
                     config_.parallel);
      for (vid_t v = 0; v < n; ++v) stats.active += active[v];
      if (prune_span.active()) {
        prune_span.arg("active", static_cast<double>(stats.active));
        prune_span.arg("pruned", static_cast<double>(n - stats.active));
      }
      telemetry::flight(telemetry::FlightKind::Prune, static_cast<double>(stats.active),
                        static_cast<double>(n - stats.active));
    }
    stats.other_wall += other_timer.seconds();

    // 2. DecideAndMove for the active set.
    decide_phase(active, stats.active, decisions, stats);

    other_timer.reset();
    // 3. Apply the move guard; BSP semantics: all decisions saw iteration-
    //    start state.
    for (vid_t v = 0; v < n; ++v) {
      s.next_comm[v] =
          active[v] ? apply_move_guard(decisions[v], s.comm[v], s.comm_size) : s.comm[v];
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
      oracle_pass(active, decisions, would_move);
      for (vid_t v = 0; v < n; ++v) {
        if (active[v]) {
          moved[v] ? ++stats.tp : ++stats.fp;
        } else {
          would_move[v] ? ++stats.fn : ++stats.tn;
        }
      }
    }
    stats.other_wall += other_timer.seconds();

    // 4. Community weight update (§3.5) — needs old comm and next_comm.
    weight_update_phase(moved, stats);

    other_timer.reset();
    {
      // 5. Bookkeeping: totals, sizes, changed flags, modularity.
      telemetry::ScopedSpan bk_span(telemetry::Tracer::global(), "bookkeeping", "phase1");
      stats.bookkeeping_traffic.global_atomics += 4 * std::uint64_t{s.commit_moves(g_, moved)};
      scan = s.scan(g_.two_m());
      stats.bookkeeping_traffic.global_reads += n;  // totals/size scan

      const wt_t next_q = s.modularity(g_.two_m(), config_.resolution, scan.sum_sq);
      stats.bookkeeping_traffic.global_reads += n;  // modularity reduction
      stats.modularity = next_q;
      stats.delta_q = next_q - q;
      q = next_q;
      if (bk_span.active()) {
        bk_span.arg("modeled_ms", config_.device.modeled_ms(stats.bookkeeping_traffic));
      }
    }
    stats.other_wall += other_timer.seconds();

    stats.ws_allocs = ws.stats().heap_allocs - ws_allocs_before;

    if (iter_span.active()) {
      iter_span.arg("iteration", static_cast<double>(iter));
      iter_span.arg("active", static_cast<double>(stats.active));
      iter_span.arg("moved", static_cast<double>(stats.moved));
      iter_span.arg("modularity", stats.modularity);
      iter_span.arg("delta_q", stats.delta_q);
      iter_span.arg("ws_allocs", static_cast<double>(stats.ws_allocs));
      auto& registry = telemetry::Registry::global();
      registry.counter("phase1.iterations").add(1);
      registry.counter("phase1.moved").add(stats.moved);
      registry.counter("workspace.heap_allocs").add(stats.ws_allocs);
      registry.histogram("phase1.active_per_iteration").observe(stats.active);
    }

    telemetry::flight(telemetry::FlightKind::IterationEnd, stats.modularity, stats.delta_q);
    memtrace::mark_epoch(memtrace::EpochKind::Iteration, iter);

    result.iterations.push_back(stats);
    if (config_.on_iteration) config_.on_iteration(iter, stats, active, moved, s.comm);

    if (phase1_converged(stats.moved, stats.delta_q, config_.theta)) break;
  }

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
    phase_span.arg("communities", static_cast<double>(result.num_communities));
    phase_span.arg("modularity", result.modularity);
    phase_span.arg("decide_modeled_ms", result.decide_modeled_ms);
    phase_span.arg("update_modeled_ms", result.update_modeled_ms);
    phase_span.arg("other_modeled_ms", result.other_modeled_ms);
    // Per-run deltas: span args sum across instances (one phase1 span per
    // level), so only deltas aggregate meaningfully. Snapshot totals live in
    // Phase1Result::workspace and the gauges below.
    phase_span.arg("ws_heap_allocs",
                   static_cast<double>(result.workspace.heap_allocs - ws_start.heap_allocs));
    phase_span.arg("ws_reuse_hits",
                   static_cast<double>(result.workspace.reuse_hits - ws_start.reuse_hits));
    auto& registry = telemetry::Registry::global();
    registry.gauge("workspace.outstanding_bytes")
        .set(static_cast<double>(result.workspace.outstanding_bytes));
    registry.gauge("workspace.pooled_bytes")
        .set(static_cast<double>(result.workspace.pooled_bytes));
    registry.gauge("workspace.peak_bytes").set(static_cast<double>(result.workspace.peak_bytes));
  }
  return result;
}

}  // namespace gala::core
