#include "gala/multigpu/dist_louvain.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <string_view>
#include <thread>

#include "gala/common/timer.hpp"
#include "gala/codec/delta_codec.hpp"
#include "gala/core/aggregation.hpp"
#include "gala/core/modularity.hpp"
#include "gala/core/phase1.hpp"
#include "gala/governor/governor.hpp"
#include "gala/memtrace/memtrace.hpp"
#include "gala/telemetry/flight_recorder.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::multigpu {
namespace {

/// Owner-computed weight-update message: "add delta to d_{C[x]}(x)".
struct WeightMsg {
  vid_t target;
  wt_t delta;
};

/// One frontier mover's emission, staged during the community-sync window:
/// its own-weight accumulation plus the slice [begin, end) of the staged
/// message buffer it produced. Replayed (not recomputed) after the sync.
struct StagedRun {
  wt_t own = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// State owned by one rank: a full replica of the phase-1 community state
/// (kept identical by the sync; weight is valid for owned vertices only),
/// plus the rank's range, flags and decisions.
struct RankState : core::CommunityState {
  graph::VertexRange range;
  std::vector<std::uint8_t> moved;
  std::vector<std::uint8_t> active;
  std::vector<core::Decision> decisions;
  DeviceTimeline timeline;
};

}  // namespace

std::string to_string(SyncMode mode) {
  switch (mode) {
    case SyncMode::Dense:
      return "dense";
    case SyncMode::Sparse:
      return "sparse";
    case SyncMode::Adaptive:
      return "adaptive";
  }
  return "?";
}

DistributedResult distributed_phase1(const graph::Graph& g, const DistributedConfig& config) {
  GALA_CHECK(config.num_gpus >= 1, "need at least one device");
  GALA_CHECK(g.total_weight() > 0, "graph has no edge weight");
  const vid_t n = g.num_vertices();
  const std::size_t P = config.num_gpus;
  const auto ranges = graph::partition_by_edges(g, P);

  Communicator comm_world(P, config.comm_cost);
  std::vector<RankState> ranks(P);
  DistributedResult result;
  result.iteration_log.reserve(64);
  std::mutex log_mutex;

  memtrace::set_resident("graph.csr", g.memory_bytes());

  // Governor rung 3 is snapshotted once, before the rank threads spawn: the
  // sync mode and compression flag feed collective shapes, so every rank
  // must agree on them for the whole phase-1 call. A mid-phase per-rank read
  // would desynchronise the collectives; escalation instead takes effect at
  // the next level's phase 1.
  const bool governor_sparse = governor::Governor::global().force_sparse_sync();

  Timer wall_timer;

  auto rank_main = [&](std::size_t rank) {
    // Ambient rank for the thread: every span and flight event recorded
    // below lands on this rank's track in the merged Chrome trace.
    telemetry::RankScope rank_scope(static_cast<int>(rank));
    // Correlates each posted gather with its completion across the window:
    // ids are rank-unique (rank in the high word, a running sequence low).
    std::uint64_t flow_seq = 0;
    auto next_flow_id = [&] { return (static_cast<std::uint64_t>(rank) << 32) | ++flow_seq; };
    RankState& st = ranks[rank];
    static_cast<core::CommunityState&>(st) = core::CommunityState(g);
    st.range = ranges[rank];
    st.moved.assign(n, 0);
    st.active.assign(n, 0);
    st.decisions.resize(n);

    // The community-sync window may only stage vertices whose every
    // interaction is rank-local; that static frontier is fixed by the
    // partition, so it is computed once per level. The weight-gather window
    // additionally exploits a per-iteration *dynamic* eligibility (computed
    // below once the synced moved flags are known): an owned vertex whose
    // moved neighbours are all rank-local receives weight messages from this
    // rank alone, so those messages can be applied locally (elided from the
    // gather) and its next-iteration prune+decide inputs are final before
    // the gather lands. The static frontier is the subset of vertices that
    // are eligible in every iteration. When nothing is eligible the windows
    // degenerate to the blocking exchange (zero staged work, zero credit).
    const std::vector<vid_t> frontier = graph::local_frontier(g, st.range);
    std::vector<std::uint8_t> frontier_flag(n, 0);
    for (const vid_t v : frontier) frontier_flag[v] = 1;
    std::vector<std::uint8_t> elig_flag(n, 0);  // this iteration's eligible set
    std::vector<std::uint8_t> spec_flag(n, 0);  // set speculated in the last window
    const bool overlap_on = config.overlap;
    // Rung 3 forces sparse+compressed staging even in configurations that
    // asked for dense; with the governor engaged, Dense no longer vetoes
    // compression because the staging is sparse regardless.
    const bool effective_dense = config.sync == SyncMode::Dense && !governor_sparse;
    const bool compress_on = (config.compress || governor_sparse) && !effective_dense;

    // Per-rank execution context: each simulated device owns a private
    // pooled workspace, so the arena pages, hash scratch, and every sync
    // staging buffer below are recycled across the rank's iterations
    // without cross-rank allocator contention.
    exec::ExecutionContext ctx(config.device, config.seed);
    exec::Workspace& ws = ctx.workspace();
    auto arena_pages =
        ws.take<std::byte>(config.device.shared_bytes_per_block, "gpusim.shared_arena");
    gpusim::SharedMemoryArena arena(arena_pages.span());
    core::HashScratch hash_scratch(ws);
    const core::DecideDispatch dispatch{config.kernel, config.hashtable,
                                        config.shuffle_degree_limit};
    const std::uint64_t salt = core::decide_salt(config.seed);

    // Sync staging, reused across every iteration's collective rounds. The
    // enc_* / staged_* / local_msgs buffers are the double-buffer side: one
    // buffer is in flight through the communicator while these hold the
    // window's staged work.
    exec::PooledVec<codec::MoveRecord> local_moves(ws, "multigpu.local_moves");
    exec::PooledVec<codec::MoveRecord> recv_moves(ws, "multigpu.recv_moves");
    exec::PooledVec<cid_t> recv_slices(ws, "multigpu.recv_slices");
    exec::PooledVec<WeightMsg> out_msgs(ws, "multigpu.weight_msgs");
    exec::PooledVec<WeightMsg> recv_msgs(ws, "multigpu.recv_msgs");
    exec::PooledVec<std::byte> enc_moves(ws, "multigpu.enc_moves");
    exec::PooledVec<std::byte> enc_recv(ws, "multigpu.enc_recv");
    exec::PooledVec<WeightMsg> local_msgs(ws, "multigpu.local_weight_msgs");
    exec::PooledVec<WeightMsg> staged_msgs(ws, "multigpu.staged_weight_msgs");
    exec::PooledVec<StagedRun> staged_runs(ws, "multigpu.staged_runs");

    // Iteration-start modularity of the singleton partition. `scan` holds
    // the min total (pruning input) and the sum-of-squares term of the
    // current replica.
    core::CommunityState::Scan scan = st.scan(g.two_m());
    wt_t q = st.modularity(g.two_m(), config.resolution, scan.sum_sq);

    // Prune + decide the owned vertices not `skip`ped, as iteration `it`
    // against the current replica. The eager decide pass and the
    // weight-gather window's speculation both run it, so they stay on one
    // trajectory.
    auto decide_owned = [&](int it, auto&& skip, gpusim::MemoryStats& stats) {
      const core::PruningContext prune_ctx{&g,
                                           st.comm,
                                           st.weight,
                                           st.comm_total,
                                           scan.min_total,
                                           g.two_m(),
                                           st.prev_moved,
                                           st.comm_changed,
                                           it,
                                           config.resolution};
      const std::uint64_t pm_base = splitmix64(config.seed ^ (0x5851f42d4c957f2dULL * it));
      const core::DecideInput input{&g, st.comm, st.comm_total, g.two_m(), config.resolution};
      for (vid_t v = st.range.begin; v < st.range.end; ++v) {
        if (skip(v)) continue;
        st.active[v] = core::prune_and_decide(config.pruning, prune_ctx, config.pm_alpha, pm_base,
                                              input, v, dispatch, arena, hash_scratch, salt, stats,
                                              st.decisions[v])
                           ? 1
                           : 0;
      }
    };

    // One mover's weight-update emission (§3.5): accumulate the mover's own
    // e_{v,C} into the return value and hand each (neighbour, delta) message
    // to `sink`. Charged exactly like the eager emission loop, so staged and
    // eager movers cost the same.
    auto emit_move = [&](const codec::MoveRecord& m, gpusim::MemoryStats& stats,
                         auto&& sink) -> wt_t {
      return core::emit_mover_deltas(g, st.comm, st.next_comm, st.moved, m.vertex, m.community,
                                     stats, [&](vid_t x, wt_t d) { sink(WeightMsg{x, d}); });
    };

    // Step-5 replica bookkeeping, shared by the blocking path and the
    // weight-gather overlap window (it reads only synced state: moved,
    // comm, next_comm). Charged like the single engine's bookkeeping
    // phase: 4 atomics per mover, an n-read totals/size scan, and an
    // n-read modularity reduction (the sum-of-squares term depends only
    // on post-bookkeeping totals, so it is folded in here and cached for
    // the modularity step).
    auto bookkeeping = [&](gpusim::MemoryStats& stats) {
      stats.global_atomics += 4 * std::uint64_t{st.commit_moves(g, st.moved)};
      stats.global_reads += st.range.size();
      scan = st.scan(g.two_m());
      stats.global_reads += 2 * static_cast<std::uint64_t>(n);
    };

    // Speculative results from the previous iteration's weight-gather
    // window: frontier vertices already carry next-iteration active flags
    // and decisions. A speculation failure is deferred into the next
    // iteration's decide_error so it fails closed at the same collective.
    bool spec_valid = false;
    std::string spec_error;

    for (int iter = 0; iter < config.max_iterations; ++iter) {
      telemetry::flight(telemetry::FlightKind::IterationBegin, static_cast<double>(iter),
                        static_cast<double>(n), static_cast<int>(rank));
      // --- 1+2. Prune + DecideAndMove over the owned range. -------------
      // Frontier vertices may have been decided speculatively during the
      // previous weight gather; everything else goes through the same
      // prune_and_decide trajectory the speculation used.
      //
      // A fault here (injected scratch exhaustion after the in-kernel
      // fallback, or any other error) is rank-local, so it cannot throw
      // directly without deadlocking peers at the next barrier. Instead it
      // is captured and piggybacked on the moved-count reduction below, so
      // every rank learns of it at the same collective and throws together.
      const bool use_spec = spec_valid;
      std::string decide_error = std::move(spec_error);
      spec_valid = false;
      spec_error.clear();
      if (decide_error.empty()) {
        try {
          telemetry::ScopedSpan decide_span(telemetry::Tracer::global(), "decide", "multigpu");
          gpusim::MemoryStats stats;
          // Vertices decided in the window are skipped.
          decide_owned(iter, [&](vid_t v) { return use_spec && spec_flag[v]; }, stats);
          st.timeline.traffic += stats;
          if (decide_span.active()) {
            decide_span.arg("rank", static_cast<double>(rank));
            decide_span.arg("iteration", static_cast<double>(iter));
            gpusim::attach_traffic(decide_span, stats, &config.device.cost_model);
          }
        } catch (const Error& e) {
          decide_error = e.what();
        }
      }

      // Owned moves under the shared guard.
      local_moves.clear();
      if (decide_error.empty()) {
        for (vid_t v = st.range.begin; v < st.range.end; ++v) {
          const cid_t next =
              st.active[v] ? core::apply_move_guard(st.decisions[v], st.comm[v], st.comm_size)
                           : st.comm[v];
          if (next != st.comm[v]) local_moves.push_back({v, next});
        }
      }

      // Compressed sparse sync ships codec frames; encode up front so the
      // adaptive crossover below can compare the real encoded payload.
      enc_moves.clear();
      if (compress_on && !local_moves.empty()) codec::encode_moves(local_moves.span(), enc_moves);

      // --- 3. Community sync: dense vs sparse (§4.3). -------------------
      double moved_total_d = static_cast<double>(local_moves.size());
      double encoded_total_d = 0;
      double active_total_d = 0;
      const bool observe = static_cast<bool>(config.on_iteration);  // same on every rank
      {
        // The observer's global active count rides a 4th reduce slot; the
        // slot exists only when an observer is set, so baseline runs ship
        // exactly the historical byte counts.
        double active_partial = 0;
        if (observe && decide_error.empty()) {
          for (vid_t v = st.range.begin; v < st.range.end; ++v) active_partial += st.active[v];
        }
        double buf[4] = {moved_total_d, decide_error.empty() ? 0.0 : 1.0,
                         static_cast<double>(enc_moves.size()), active_partial};
        const std::size_t nbuf = observe ? 4 : (compress_on ? 3u : 2u);
        comm_world.all_reduce_sum(rank, std::span<double>(buf, nbuf), st.timeline.comm);
        moved_total_d = buf[0];
        encoded_total_d = buf[2];
        active_total_d = buf[3];
        if (buf[1] > 0) {
          // Symmetric fail-closed: every rank throws after the same
          // collective, so nobody is left waiting at a barrier.
          if (!decide_error.empty()) {
            GALA_THROW(CollectiveFault,
                       "decide phase failed on rank " << rank << ": " << decide_error);
          }
          GALA_THROW(CollectiveFault, "decide phase failed on a peer rank");
        }
      }
      const auto moved_total = static_cast<vid_t>(moved_total_d);
      const std::uint64_t raw_sparse_bytes =
          static_cast<std::uint64_t>(moved_total) * sizeof(codec::MoveRecord);
      const std::uint64_t sparse_bytes =
          compress_on ? static_cast<std::uint64_t>(encoded_total_d) : raw_sparse_bytes;
      const std::uint64_t dense_bytes = static_cast<std::uint64_t>(n) * sizeof(cid_t);
      const bool use_sparse = governor_sparse || config.sync == SyncMode::Sparse ||
                              (config.sync == SyncMode::Adaptive && sparse_bytes < dense_bytes);

      // Retry loop around the sync: a CollectiveFault is thrown identically
      // on every rank, so all ranks take the same branch below and stay
      // barrier-aligned — in the posted form too, since complete_gather_v
      // crosses both of the round's barriers before it throws. A failed
      // sparse sync degrades to dense for the retry; a failed dense sync
      // retries as-is. Retries exhausted → the fault propagates (fail
      // closed). Window work staged on the first attempt is reused, not
      // recomputed (and earns no second overlap credit) on retries.
      bool sparse_now = use_sparse;
      bool recovered_dense = false;
      bool staged_ready = false;
      staged_runs.clear();
      staged_msgs.clear();
      for (int sync_attempt = 0;; ++sync_attempt) {
        try {
          // Seed next_comm from the current assignment. The sync payload
          // only reads the owned slice, so with overlap on the remote
          // slices are copied inside the gather window instead; the copy
          // is charged either way (it is a real device-side memcpy).
          if (overlap_on) {
            std::copy(st.comm.begin() + st.range.begin, st.comm.begin() + st.range.end,
                      st.next_comm.begin() + st.range.begin);
            st.timeline.traffic.global_reads += st.range.size();
            st.timeline.traffic.global_writes += st.range.size();
          } else {
            std::copy(st.comm.begin(), st.comm.end(), st.next_comm.begin());
            st.timeline.traffic.global_reads += n;
            st.timeline.traffic.global_writes += n;
          }
          for (const codec::MoveRecord& m : local_moves) st.next_comm[m.vertex] = m.community;
          // Bytes this rank ships into the all-gather (sum over ranks = wire
          // total, matching the iteration log's sparse/dense payload figures).
          const std::uint64_t shipped_bytes =
              sparse_now ? (compress_on ? enc_moves.size()
                                        : local_moves.size() * sizeof(codec::MoveRecord))
                         : st.range.size() * sizeof(cid_t);
          telemetry::ScopedSpan sync_span(telemetry::Tracer::global(),
                                          sparse_now ? "sync_sparse" : "sync_dense", "multigpu");
          const CommStats sync_comm_before = st.timeline.comm;
          if (!overlap_on) {
            telemetry::flight(telemetry::FlightKind::SyncPost, static_cast<double>(iter),
                              static_cast<double>(shipped_bytes), static_cast<int>(rank));
          }
          if (overlap_on) {
            // Post the exchange, then work the local frontier while it is in
            // flight. The staged emissions read only rank-local state, so
            // local moved flags are enough; the full flags are rebuilt from
            // the synced assignment right after the sync.
            std::fill(st.moved.begin(), st.moved.end(), 0);
            for (const codec::MoveRecord& m : local_moves) st.moved[m.vertex] = 1;
            Communicator::PendingGather pending;
            std::uint64_t flow_id = 0;
            {
              telemetry::ScopedSpan post_span(telemetry::Tracer::global(), "post_gather",
                                              "multigpu");
              if (sparse_now && compress_on) {
                pending = comm_world.post_gather_v<std::byte>(rank, enc_moves.span());
              } else if (sparse_now) {
                pending = comm_world.post_gather_v<codec::MoveRecord>(rank, local_moves.span());
              } else {
                pending = comm_world.post_gather_v<cid_t>(
                    rank,
                    std::span<const cid_t>(st.next_comm.data() + st.range.begin, st.range.size()));
              }
              if (post_span.active()) {
                flow_id = next_flow_id();
                post_span.arg("rank", static_cast<double>(rank));
                post_span.arg("iteration", static_cast<double>(iter));
                post_span.arg("bytes", static_cast<double>(shipped_bytes));
                post_span.flow_out(flow_id);
              }
              telemetry::flight(telemetry::FlightKind::SyncPost, static_cast<double>(iter),
                                static_cast<double>(shipped_bytes), static_cast<int>(rank));
            }
            double credit_us = 0;
            if (!staged_ready) {
              gpusim::MemoryStats wstats;
              // Initialise the remote slices of next_comm while the gather
              // is in flight — the posted payload reads only the owned
              // slice, and received contributions land on top afterwards.
              std::copy(st.comm.begin(), st.comm.begin() + st.range.begin,
                        st.next_comm.begin());
              std::copy(st.comm.begin() + st.range.end, st.comm.end(),
                        st.next_comm.begin() + st.range.end);
              wstats.global_reads += n - st.range.size();
              wstats.global_writes += n - st.range.size();
              for (const codec::MoveRecord& m : local_moves) {
                if (!frontier_flag[m.vertex]) continue;
                StagedRun run;
                run.begin = static_cast<std::uint32_t>(staged_msgs.size());
                run.own = emit_move(m, wstats,
                                    [&](const WeightMsg& msg) { staged_msgs.push_back(msg); });
                run.end = static_cast<std::uint32_t>(staged_msgs.size());
                staged_runs.push_back(run);
              }
              staged_ready = true;
              st.timeline.traffic += wstats;
              credit_us = config.device.modeled_ms(wstats) * 1e3;
            }
            {
              telemetry::ScopedSpan comp_span(telemetry::Tracer::global(), "complete_gather",
                                              "multigpu");
              const CommStats comm_before = st.timeline.comm;
              if (sparse_now && compress_on) {
                comm_world.complete_gather_v<std::byte>(std::move(pending), st.timeline.comm,
                                                        enc_recv, credit_us);
                recv_moves.clear();
                codec::decode_moves(enc_recv.span(), n, recv_moves);
                for (const codec::MoveRecord& m : recv_moves) st.next_comm[m.vertex] = m.community;
              } else if (sparse_now) {
                comm_world.complete_gather_v<codec::MoveRecord>(
                    std::move(pending), st.timeline.comm, recv_moves, credit_us);
                for (const codec::MoveRecord& m : recv_moves) st.next_comm[m.vertex] = m.community;
              } else {
                comm_world.complete_gather_v<cid_t>(std::move(pending), st.timeline.comm,
                                                    recv_slices, credit_us);
                GALA_ASSERT(recv_slices.size() == n);
                std::copy(recv_slices.begin(), recv_slices.end(), st.next_comm.begin());
              }
              const double wait_delta = st.timeline.comm.wait_us() - comm_before.wait_us();
              if (comp_span.active()) {
                comp_span.arg("rank", static_cast<double>(rank));
                comp_span.arg("iteration", static_cast<double>(iter));
                // Comm-wait attribution for this window: full modeled cost,
                // the slice hidden behind the staged work, and the exposed
                // remainder on the critical path.
                comp_span.arg("modeled_us", st.timeline.comm.modeled_us - comm_before.modeled_us);
                comp_span.arg("hidden_us", st.timeline.comm.hidden_us - comm_before.hidden_us);
                comp_span.arg("wait_us", wait_delta);
                if (flow_id != 0) comp_span.flow_in(flow_id);
              }
              telemetry::flight(telemetry::FlightKind::SyncComplete, static_cast<double>(iter),
                                wait_delta, static_cast<int>(rank));
            }
          } else if (sparse_now && compress_on) {
            comm_world.all_gather_v_into<std::byte>(rank, enc_moves.span(), st.timeline.comm,
                                                    enc_recv);
            recv_moves.clear();
            codec::decode_moves(enc_recv.span(), n, recv_moves);
            for (const codec::MoveRecord& m : recv_moves) st.next_comm[m.vertex] = m.community;
          } else if (sparse_now) {
            comm_world.all_gather_v_into<codec::MoveRecord>(rank, local_moves.span(),
                                                            st.timeline.comm, recv_moves);
            for (const codec::MoveRecord& m : recv_moves) st.next_comm[m.vertex] = m.community;
          } else {
            // Dense: every rank ships its whole owned slice of next_comm.
            comm_world.all_gather_v_into<cid_t>(
                rank,
                std::span<const cid_t>(st.next_comm.data() + st.range.begin, st.range.size()),
                st.timeline.comm, recv_slices);
            GALA_ASSERT(recv_slices.size() == n);
            std::copy(recv_slices.begin(), recv_slices.end(), st.next_comm.begin());
          }
          if (!overlap_on) {
            telemetry::flight(telemetry::FlightKind::SyncComplete, static_cast<double>(iter),
                              st.timeline.comm.wait_us() - sync_comm_before.wait_us(),
                              static_cast<int>(rank));
          }
          if (sync_span.active()) {
            sync_span.arg("rank", static_cast<double>(rank));
            sync_span.arg("iteration", static_cast<double>(iter));
            sync_span.arg("bytes", static_cast<double>(shipped_bytes));
            sync_span.arg("moved_total", moved_total_d);
            sync_span.arg("overlap", overlap_on ? 1.0 : 0.0);
            telemetry::Registry::global().counter("multigpu.sync_bytes").add(shipped_bytes);
            if (sparse_now && compress_on) {
              telemetry::Registry::global()
                  .counter("multigpu.codec_raw_bytes")
                  .add(local_moves.size() * sizeof(codec::MoveRecord));
              telemetry::Registry::global()
                  .counter("multigpu.codec_encoded_bytes")
                  .add(enc_moves.size());
            }
          }
          break;
        } catch (const CollectiveFault&) {
          if (sync_attempt >= config.max_sync_retries) throw;
          if (sparse_now) {
            sparse_now = false;
            recovered_dense = true;
            if (rank == 0) {
              telemetry::Registry::global().counter("multigpu.sync_fallback_dense").add(1);
            }
          }
        }
      }

      vid_t moved_check = 0;
      for (vid_t v = 0; v < n; ++v) {
        st.moved[v] = st.next_comm[v] != st.comm[v] ? 1 : 0;
        moved_check += st.moved[v];
      }
      GALA_ASSERT(moved_check == moved_total);

      // Dynamic eligibility for the weight-gather window: with the synced
      // moved flags in hand, an owned vertex whose moved neighbours are all
      // rank-local is a single-sender target — every weight message it will
      // receive originates here, in this rank's emission order, so applying
      // them locally preserves the gather's floating-point order exactly.
      // Any *subset* of the true eligible set is safe (a non-elided
      // eligible target simply ships through the gather like the blocking
      // path), so the computation is adaptive: when movers are rare (late
      // iterations, where per-collective latency dominates the wait) each
      // remote mover's adjacency marks its owned neighbours ineligible —
      // O(n + deg(remote movers)), charged to compute since it runs on the
      // critical path before the gather posts. When movers are dense the
      // exact set would cost an O(m/P) scan for little elision, so the
      // precomputed static frontier stands in for free.
      if (overlap_on && moved_total > 0) {
        if (static_cast<std::uint64_t>(moved_total) * 8 <= n) {
          gpusim::MemoryStats estats;
          std::fill(elig_flag.begin() + st.range.begin, elig_flag.begin() + st.range.end, 1);
          estats.global_writes += st.range.size();
          for (vid_t u = 0; u < n; ++u) {
            estats.global_reads += 1;
            if (!st.moved[u] || (u >= st.range.begin && u < st.range.end)) continue;
            for (const vid_t x : g.neighbors(u)) {
              estats.global_reads += 1;
              if (x >= st.range.begin && x < st.range.end) {
                elig_flag[x] = 0;
                estats.global_atomics += 1;
              }
            }
          }
          st.timeline.traffic += estats;
        } else {
          std::copy(frontier_flag.begin() + st.range.begin, frontier_flag.begin() + st.range.end,
                    elig_flag.begin() + st.range.begin);
        }
      }

      // --- 4. Owner-computed weight update (§3.5, distributed). ---------
      // Frontier movers were staged during the community-sync window; their
      // runs are replayed here in local_moves order, so per-target message
      // order is exactly the eager loop's. Messages whose target is
      // window-eligible never leave the rank (no other rank can emit to
      // such a target this iteration), trimming the weight-gather payload
      // without perturbing the floating-point application order.
      out_msgs.clear();
      local_msgs.clear();
      {
        gpusim::MemoryStats stats;
        std::size_t run_idx = 0;
        auto route = [&](const WeightMsg& msg) {
          (overlap_on && elig_flag[msg.target] ? local_msgs : out_msgs).push_back(msg);
        };
        for (const codec::MoveRecord& m : local_moves) {
          if (overlap_on && frontier_flag[m.vertex]) {
            const StagedRun& run = staged_runs[run_idx++];
            st.weight[m.vertex] = run.own;
            for (std::uint32_t i = run.begin; i < run.end; ++i) route(staged_msgs[i]);
          } else {
            st.weight[m.vertex] = emit_move(m, stats, route);
          }
        }
        st.timeline.traffic += stats;
      }
      bool window2_done = false;
      for (int wsync_attempt = 0;; ++wsync_attempt) {
        telemetry::ScopedSpan wsync_span(telemetry::Tracer::global(), "sync_weights", "multigpu");
        try {
          if (overlap_on) {
            Communicator::PendingGather pending;
            std::uint64_t flow_id = 0;
            {
              telemetry::ScopedSpan post_span(telemetry::Tracer::global(), "post_gather",
                                              "multigpu");
              pending = comm_world.post_gather_v<WeightMsg>(rank, out_msgs.span());
              if (post_span.active()) {
                flow_id = next_flow_id();
                post_span.arg("rank", static_cast<double>(rank));
                post_span.arg("iteration", static_cast<double>(iter));
                post_span.arg("bytes", static_cast<double>(out_msgs.size() * sizeof(WeightMsg)));
                post_span.flow_out(flow_id);
              }
              telemetry::flight(telemetry::FlightKind::SyncPost, static_cast<double>(iter),
                                static_cast<double>(out_msgs.size() * sizeof(WeightMsg)),
                                static_cast<int>(rank));
            }
            double credit_us = 0;
            if (!window2_done) {
              // Weight-gather window: apply the rank-local (elided)
              // messages, run the replica bookkeeping, and speculate the
              // eligible set's next-iteration prune+decide — all of it
              // reads only state that is final before the gather lands
              // (an eligible vertex's weight is fully updated once the
              // elided messages are applied, and bookkeeping finalises
              // comm/comm_total/comm_changed/prev_moved/scan).
              gpusim::MemoryStats wstats;
              for (const WeightMsg& msg : local_msgs) {
                st.weight[msg.target] += msg.delta;
                wstats.global_reads += 1;
                wstats.global_writes += 1;
              }
              bookkeeping(wstats);
              if (moved_total > 0) {
                try {
                  decide_owned(iter + 1, [&](vid_t v) { return !elig_flag[v]; }, wstats);
                  spec_valid = true;
                } catch (const Error& e) {
                  // Defer: the next iteration's reduce carries the failure
                  // so every rank throws at the same collective.
                  spec_valid = true;
                  spec_error = e.what();
                }
                // Remember which vertices the window decided; the next
                // iteration's decide loop skips exactly these.
                spec_flag.swap(elig_flag);
              }
              window2_done = true;
              st.timeline.traffic += wstats;
              credit_us = config.device.modeled_ms(wstats) * 1e3;
            }
            {
              telemetry::ScopedSpan comp_span(telemetry::Tracer::global(), "complete_gather",
                                              "multigpu");
              const CommStats comm_before = st.timeline.comm;
              comm_world.complete_gather_v<WeightMsg>(std::move(pending), st.timeline.comm,
                                                      recv_msgs, credit_us);
              const double wait_delta = st.timeline.comm.wait_us() - comm_before.wait_us();
              if (comp_span.active()) {
                comp_span.arg("rank", static_cast<double>(rank));
                comp_span.arg("iteration", static_cast<double>(iter));
                comp_span.arg("modeled_us", st.timeline.comm.modeled_us - comm_before.modeled_us);
                comp_span.arg("hidden_us", st.timeline.comm.hidden_us - comm_before.hidden_us);
                comp_span.arg("wait_us", wait_delta);
                if (flow_id != 0) comp_span.flow_in(flow_id);
              }
              telemetry::flight(telemetry::FlightKind::SyncComplete, static_cast<double>(iter),
                                wait_delta, static_cast<int>(rank));
            }
          } else {
            comm_world.all_gather_v_into<WeightMsg>(rank, out_msgs.span(), st.timeline.comm,
                                                    recv_msgs);
          }
        } catch (const CollectiveFault&) {
          // The gather throws before any message is applied, so a straight
          // re-gather is safe (and symmetric across ranks). Staged window
          // work survives the retry untouched.
          if (wsync_attempt >= config.max_sync_retries) throw;
          continue;
        }
        for (const WeightMsg& msg : recv_msgs) {
          if (msg.target >= st.range.begin && msg.target < st.range.end && !st.moved[msg.target]) {
            st.weight[msg.target] += msg.delta;
            st.timeline.traffic.global_reads += 1;
            st.timeline.traffic.global_writes += 1;
          }
        }
        if (wsync_span.active()) {
          const std::uint64_t shipped = out_msgs.size() * sizeof(WeightMsg);
          wsync_span.arg("rank", static_cast<double>(rank));
          wsync_span.arg("iteration", static_cast<double>(iter));
          wsync_span.arg("bytes", static_cast<double>(shipped));
          telemetry::Registry::global().counter("multigpu.weight_sync_bytes").add(shipped);
        }
        break;
      }

      // --- 5. Apply + bookkeeping on the replica. ------------------------
      // With overlap on this already ran inside the weight-gather window.
      if (!overlap_on) {
        gpusim::MemoryStats stats;
        bookkeeping(stats);
        st.timeline.traffic += stats;
      }

      // --- 6. Modularity: owned internal partial + replicated totals. The
      // sum-of-squares term was computed (and charged) in bookkeeping.
      wt_t internal_partial = 0;
      for (vid_t v = st.range.begin; v < st.range.end; ++v) {
        internal_partial += st.weight[v] + 2 * g.self_loop(v);
      }
      st.timeline.traffic.global_reads += st.range.size();
      {
        double buf[1] = {internal_partial};
        comm_world.all_reduce_sum(rank, std::span<double>(buf, 1), st.timeline.comm);
        internal_partial = buf[0];
      }
      const wt_t next_q = internal_partial / g.two_m() - config.resolution * scan.sum_sq;
      const wt_t dq = next_q - q;
      q = next_q;

      if (rank == 0) {
        std::lock_guard lock(log_mutex);
        result.iteration_log.push_back({moved_total, sparse_now,
                                        sparse_now ? sparse_bytes : dense_bytes,
                                        sparse_now ? raw_sparse_bytes : dense_bytes, q, dq,
                                        recovered_dense});
      }
      if (rank == 0 && observe) {
        // Globally-reduced stats over the synced replica: identical numbers
        // regardless of sync mode, overlap, or compression, so health
        // reports stay byte-identical across communication configs.
        core::IterationStats is;
        is.active = static_cast<vid_t>(active_total_d);
        is.moved = moved_total;
        is.modularity = q;
        is.delta_q = dq;
        config.on_iteration(iter, is, {}, {}, std::span<const cid_t>(st.comm.data(), n));
      }
      if (rank == 0) {
        telemetry::flight(telemetry::FlightKind::IterationEnd, q, dq, 0);
        // Residency snapshot while every other rank is parked at the barrier
        // below: the cross-rank live set is quiescent, so the timeline is
        // identical across sync modes and host scheduling.
        memtrace::mark_epoch(memtrace::EpochKind::Iteration, iter);
      }
      comm_world.barrier();  // iteration_log visible before anyone proceeds

      if (core::phase1_converged(moved_total, dq, config.theta)) break;
    }

    st.timeline.compute_modeled_ms =
        config.device.modeled_ms(st.timeline.traffic);
    st.timeline.workspace = ws.stats();
    telemetry::Registry::global()
        .counter("multigpu.overlap_hidden_us")
        .add(static_cast<std::uint64_t>(st.timeline.comm.hidden_us));
    if (rank == 0) {
      telemetry::Registry::global()
          .gauge("multigpu.overlap_ratio")
          .set(st.timeline.comm.overlap_ratio());
    }
  };

  // Supervision net: a rank that unwinds past rank_main stores its
  // exception and aborts the communicator (arrive_and_drop), so peers
  // blocked at a barrier are released and fail at their next collective
  // entry instead of deadlocking. After the join the most informative
  // failure is rethrown as the run's structured error.
  std::vector<std::exception_ptr> rank_errors(P);
  auto rank_entry = [&](std::size_t rank) {
    try {
      rank_main(rank);
    } catch (const std::exception& e) {
      rank_errors[rank] = std::current_exception();
      comm_world.abort(e.what());
    } catch (...) {
      rank_errors[rank] = std::current_exception();
      comm_world.abort("unknown error");
    }
  };

  if (P == 1) {
    rank_entry(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(P);
    for (std::size_t r = 0; r < P; ++r) threads.emplace_back(rank_entry, r);
    for (auto& t : threads) t.join();
  }

  {
    // Prefer a rank that failed with its own diagnosis over one that merely
    // observed a peer's failure or the aborted communicator.
    std::exception_ptr chosen;
    for (const std::exception_ptr& err : rank_errors) {
      if (!err) continue;
      if (!chosen) chosen = err;
      try {
        std::rethrow_exception(err);
      } catch (const std::exception& e) {
        const std::string_view what(e.what());
        if (what.find("peer rank") == std::string_view::npos &&
            what.find("communicator aborted") == std::string_view::npos) {
          chosen = err;
          break;
        }
      } catch (...) {
      }
    }
    if (chosen) std::rethrow_exception(chosen);
  }

  result.community = ranks[0].comm;
  result.modularity = core::modularity(g, result.community);
  result.iterations = static_cast<int>(result.iteration_log.size());
  result.wall_seconds = wall_timer.seconds();
  result.devices.reserve(P);
  for (auto& st : ranks) result.devices.push_back(st.timeline);
  return result;
}

DistributedFullResult distributed_louvain(const graph::Graph& g,
                                          const DistributedConfig& config, double level_theta,
                                          int max_levels) {
  DistributedFullResult result;
  Timer timer;
  result.assignment.resize(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) result.assignment[v] = v;

  const graph::Graph* current = &g;
  graph::Graph owned;
  wt_t prev_q = -1;
  // Level-transition scratch shared across the replicated aggregations.
  exec::Workspace level_ws;
  for (int level = 0; level < max_levels; ++level) {
    const DistributedResult phase1 = distributed_phase1(*current, config);
    result.modeled_ms += phase1.modeled_ms();
    ++result.levels;
    const core::AggregationResult agg = core::aggregate(*current, phase1.community, &level_ws);
    if (level > 0 && phase1.modularity - prev_q < level_theta) {
      result.assignment = core::compose_assignment(result.assignment, agg.fine_to_coarse);
      prev_q = phase1.modularity;
      break;
    }
    prev_q = phase1.modularity;
    result.assignment = core::compose_assignment(result.assignment, agg.fine_to_coarse);
    if (agg.num_communities == current->num_vertices()) break;
    owned = std::move(agg.coarse);
    current = &owned;
  }
  result.num_communities = core::renumber_communities(result.assignment);
  result.modularity = prev_q;
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace gala::multigpu
