#include "gala/multigpu/dist_louvain.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <string_view>
#include <thread>

#include "gala/codec/delta_codec.hpp"
#include "gala/core/phase1.hpp"
#include "gala/scope/run_scope.hpp"
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

/// One rank: the phase-1 driver over the rank's owned slice, with the §4.3
/// collectives as its exchange. Its CommunityState is a full replica kept
/// identical by the exchange (weight is valid for owned vertices only).
class RankEngine final : public core::Phase1Driver {
 public:
  RankEngine(const graph::Graph& g, const core::BspConfig& bsp, const DistributedConfig& config,
             std::span<const cid_t> initial, Communicator& world, std::size_t rank,
             graph::VertexRange range, bool governor_sparse)
      : Phase1Driver(g, bsp, core::CommunityState(g, initial), range, /*primary=*/rank == 0),
        dist_(config), world_(world), rank_(rank), governor_sparse_(governor_sparse),
        // Rung 3 forces sparse+compressed staging even in configurations
        // that asked for dense; with the governor engaged, Dense no longer
        // vetoes compression because the staging is sparse regardless.
        compress_on_((config.compress || governor_sparse) &&
                     !(config.sync == SyncMode::Dense && !governor_sparse)),
        active_(g.num_vertices(), 0), moved_(g.num_vertices(), 0),
        pending_(g.num_vertices(), 0), decisions_(g.num_vertices()),
        frontier_flag_(g.num_vertices(), 0), elig_flag_(g.num_vertices(), 0),
        arena_pages_(ctx_->workspace().take<std::byte>(config.device.shared_bytes_per_block,
                                                       "gpusim.shared_arena")),
        arena_(arena_pages_.span()), hash_scratch_(ctx_->workspace()),
        dispatch_{config.kernel, config.hashtable, config.shuffle_degree_limit},
        salt_(core::decide_salt(config.seed)),
        local_moves_(ctx_->workspace(), "multigpu.local_moves"),
        recv_moves_(ctx_->workspace(), "multigpu.recv_moves"),
        recv_slices_(ctx_->workspace(), "multigpu.recv_slices"),
        out_msgs_(ctx_->workspace(), "multigpu.weight_msgs"),
        recv_msgs_(ctx_->workspace(), "multigpu.recv_msgs"),
        enc_moves_(ctx_->workspace(), "multigpu.enc_moves"),
        enc_recv_(ctx_->workspace(), "multigpu.enc_recv"),
        local_msgs_(ctx_->workspace(), "multigpu.local_weight_msgs"),
        staged_msgs_(ctx_->workspace(), "multigpu.staged_weight_msgs"),
        staged_runs_(ctx_->workspace(), "multigpu.staged_runs") {
    // The community-sync window may only stage vertices whose every
    // interaction is rank-local: the static frontier of the partition.
    for (const vid_t v : graph::local_frontier(g, range)) frontier_flag_[v] = 1;
    lent_ = {active_, moved_, decisions_, pending_};
  }

  /// Records the rank's share of `result` after `r` = run(): its Fig. 10(b)
  /// timeline (the driver's traffic plus the exchange's own) and, on rank 0,
  /// the phase 1 and the sync log.
  void report(core::Phase1Result r, DistributedResult& result) const {
    DeviceTimeline& t = result.devices[rank_];
    t.traffic = r.total_traffic;
    t.traffic += traffic_;
    t.compute_modeled_ms = config_.device.modeled_ms(t.traffic);
    t.comm = comm_;
    t.workspace = ctx_->workspace().stats();
    auto& registry = RunScope::current().registry();
    registry.counter("multigpu.overlap_hidden_us").add(static_cast<std::uint64_t>(comm_.hidden_us));
    if (rank_ != 0) return;
    registry.gauge("multigpu.overlap_ratio").set(comm_.overlap_ratio());
    result.phase1 = std::move(r);
    result.iteration_log = log_;
  }

 private:
  void decide_phase(std::span<const std::uint8_t> active, vid_t /*active_count*/,
                    std::span<core::Decision> decisions, core::IterationStats& stats) override {
    if (decide_error_.empty()) {
      try {
        telemetry::ScopedSpan span(RunScope::current().tracer(), "decide", "multigpu");
        gpusim::MemoryStats traffic;
        const core::DecideInput input{&g_, state_.comm, state_.comm_total, g_.two_m(),
                                      config_.resolution};
        for (vid_t v = owned_.begin; v < owned_.end; ++v) {
          if (!active[v]) continue;
          decisions[v] =
              core::decide_vertex(input, v, dispatch_, arena_, hash_scratch_, salt_, traffic);
        }
        stats.decide_traffic += traffic;
        if (span.active()) {
          span.last_arg("rank", static_cast<double>(rank_));
          // The iteration this decide serves: the log holds one entry per
          // completed community sync, so a window's presolve counts ahead.
          span.last_arg("iteration", static_cast<double>(log_.size()));
          gpusim::attach_traffic(span, traffic, &config_.device.cost_model);
        }
        return;
      } catch (const ResourceExhausted& e) {
        decide_error_ = e.what();
        decide_exhausted_ = true;
      } catch (const Error& e) {
        decide_error_ = e.what();
      }
    }
    // A failed rank moves nothing until the reduce fails every rank.
    std::fill(decisions.begin() + owned_.begin, decisions.begin() + owned_.end, core::Decision{});
  }

  void weight_update_phase(std::span<const std::uint8_t> /*moved*/,
                           core::IterationStats& stats) override {
    // Owner-computed weight update (§3.5, distributed). Frontier movers were
    // staged during the community-sync window; their runs are replayed here
    // in local_moves order, so per-target message order is exactly the eager
    // loop's. Messages whose target is window-eligible never leave the rank
    // (no other rank can emit to such a target this iteration), trimming the
    // weight-gather payload without perturbing the floating-point application
    // order.
    out_msgs_.clear();
    local_msgs_.clear();
    gpusim::MemoryStats traffic;
    std::size_t run_idx = 0;
    const auto route = [&](vid_t target, wt_t delta) {
      (dist_.overlap && elig_flag_[target] ? local_msgs_ : out_msgs_).push_back({target, delta});
    };
    for (const codec::MoveRecord& m : local_moves_) {
      if (dist_.overlap && frontier_flag_[m.vertex]) {
        const StagedRun& run = staged_runs_[run_idx++];
        state_.weight[m.vertex] = run.own;
        for (std::uint32_t i = run.begin; i < run.end; ++i) {
          route(staged_msgs_[i].target, staged_msgs_[i].delta);
        }
      } else {
        state_.weight[m.vertex] = core::emit_mover_deltas(
            g_, state_.comm, state_.next_comm, moved_, m.vertex, m.community, traffic, route);
      }
    }
    stats.update_traffic += traffic;
  }

  Window post_exchange(Round round, core::IterationStats& stats) override {
    const vid_t n = g_.num_vertices();
    if (round == Round::Weights) {
      post("sync_weights", std::as_bytes(out_msgs_.span()));
      // The rank's window share: bookkeeping's rescan of the replicated
      // totals (2n reads beyond the driver's owned-range charge), and the
      // rank-local (elided) messages, which make every eligible vertex's
      // weight final before the gather lands.
      window_traffic_ = {};
      window_traffic_.global_reads += 2 * static_cast<std::uint64_t>(n);
      for (const WeightMsg& msg : local_msgs_) {
        state_.weight[msg.target] += msg.delta;
        window_traffic_.global_reads += 1;
        window_traffic_.global_writes += 1;
      }
      traffic_ += window_traffic_;
      if (!dist_.overlap) return {};
      return {true, moved_total_ > 0 ? std::span<const std::uint8_t>(elig_flag_)
                                     : std::span<const std::uint8_t>{}};
    }

    // --- Community sync: dense vs sparse (§4.3). -----------------------------
    iter_ = static_cast<int>(log_.size());
    local_moves_.clear();
    for (vid_t v = owned_.begin; v < owned_.end; ++v) {
      if (moved_[v]) local_moves_.push_back({v, state_.next_comm[v]});
    }
    // Compressed sparse sync ships codec frames; encode up front so the
    // adaptive crossover below can compare the real encoded payload.
    enc_moves_.clear();
    if (compress_on_ && !local_moves_.empty()) codec::encode_moves(local_moves_.span(), enc_moves_);

    // The error slot sums over ranks: a plain failure adds 1, an exhausted
    // budget adds more than every rank's plain failures could, so each rank
    // rethrows the kind the failing ranks raised. The observer's global
    // active count rides a 4th slot; it exists only when an observer is set,
    // so baseline runs ship exactly the historical byte counts.
    const bool observe = static_cast<bool>(dist_.on_iteration);  // same on every rank
    const double num_ranks = static_cast<double>(world_.num_ranks());
    const double failed = decide_error_.empty() ? 0.0 : decide_exhausted_ ? num_ranks + 1 : 1.0;
    double buf[4] = {static_cast<double>(local_moves_.size()), failed,
                     static_cast<double>(enc_moves_.size()),
                     observe && decide_error_.empty() ? static_cast<double>(stats.active) : 0.0};
    world_.all_reduce_sum(rank_, std::span<double>(buf, observe ? 4 : (compress_on_ ? 3u : 2u)),
                          comm_);
    if (buf[1] > 0) {
      // Symmetric fail-closed: every rank throws after the same collective,
      // so nobody is left waiting at a barrier.
      const std::string msg =
          decide_error_.empty()
              ? std::string("decide phase failed on a peer rank")
              : "decide phase failed on rank " + std::to_string(rank_) + ": " + decide_error_;
      if (buf[1] > num_ranks) GALA_THROW(ResourceExhausted, msg);
      GALA_THROW(CollectiveFault, msg);
    }
    moved_total_ = static_cast<vid_t>(buf[0]);
    if (observe) stats.active = static_cast<vid_t>(buf[3]);
    raw_sparse_bytes_ = static_cast<std::uint64_t>(moved_total_) * sizeof(codec::MoveRecord);
    sparse_bytes_ = compress_on_ ? static_cast<std::uint64_t>(buf[2]) : raw_sparse_bytes_;
    sparse_now_ = governor_sparse_ || dist_.sync == SyncMode::Sparse ||
                  (dist_.sync == SyncMode::Adaptive &&
                   sparse_bytes_ < static_cast<std::uint64_t>(n) * sizeof(cid_t));
    recovered_dense_ = false;
    staged_ready_ = false;
    staged_runs_.clear();
    staged_msgs_.clear();
    post_moves();
    return {};
  }

  void complete_exchange(Round round, const gpusim::MemoryStats& window,
                         core::IterationStats& stats) override {
    // Retry loop around each gather: a CollectiveFault is thrown identically
    // on every rank, after both of the round's barriers, so all ranks take
    // the same branch and stay barrier-aligned. Retries exhausted → the fault
    // propagates (fail closed). Window work done on the first attempt is
    // reused, not recomputed, and earns no second overlap credit.
    if (round == Round::Moves) {
      for (int attempt = 0;; ++attempt) {
        try {
          if (attempt > 0) post_moves();
          finish_moves();
          break;
        } catch (const CollectiveFault&) {
          sync_span_.reset();
          if (attempt >= dist_.max_sync_retries) throw;
          // A failed sparse sync degrades to dense for the retry.
          if (sparse_now_) {
            sparse_now_ = false;
            recovered_dense_ = true;
            if (rank_ == 0) {
              RunScope::current().registry().counter("multigpu.sync_fallback_dense").add(1);
            }
          }
        }
      }
      const vid_t n = g_.num_vertices();
      for (vid_t v = 0; v < n; ++v) moved_[v] = state_.next_comm[v] != state_.comm[v] ? 1 : 0;
      GALA_ASSERT(std::count(moved_.begin(), moved_.end(), 1) ==
                  static_cast<std::ptrdiff_t>(moved_total_));
      stats.moved = moved_total_;
      if (dist_.overlap && moved_total_ > 0) mark_eligible();
      const std::uint64_t dense_bytes = static_cast<std::uint64_t>(n) * sizeof(cid_t);
      log_.push_back({sparse_now_, sparse_now_ ? sparse_bytes_ : dense_bytes,
                      sparse_now_ ? raw_sparse_bytes_ : dense_bytes, recovered_dense_});
      return;
    }

    // The weight window's credit: the rank's share plus the driver's.
    gpusim::MemoryStats credited = window_traffic_;
    credited += window;
    double credit_us = dist_.overlap ? config_.device.modeled_ms(credited) * 1e3 : 0.0;
    for (int attempt = 0;; ++attempt) {
      try {
        if (attempt > 0) post("sync_weights", std::as_bytes(out_msgs_.span()));
        // The gather throws before any message is applied, so a straight
        // re-gather is safe (and symmetric across ranks).
        gather<WeightMsg>(out_msgs_.span(), recv_msgs_, credit_us);
        break;
      } catch (const CollectiveFault&) {
        sync_span_.reset();
        if (attempt >= dist_.max_sync_retries) throw;
        credit_us = 0;
      }
    }
    for (const WeightMsg& msg : recv_msgs_) {
      if (owns(msg.target) && !moved_[msg.target]) {
        state_.weight[msg.target] += msg.delta;
        traffic_.global_reads += 1;
        traffic_.global_writes += 1;
      }
    }
    if (sync_span_->active()) {
      sync_span_->last_arg("rank", static_cast<double>(rank_));
      sync_span_->last_arg("iteration", static_cast<double>(iter_));
      sync_span_->arg("bytes", static_cast<double>(out_msgs_.size() * sizeof(WeightMsg)));
      RunScope::current().registry()
          .counter("multigpu.weight_sync_bytes")
          .add(out_msgs_.size() * sizeof(WeightMsg));
    }
    sync_span_.reset();
  }

  wt_t sum_over_devices(wt_t partial) override {
    double buf[1] = {partial};
    world_.all_reduce_sum(rank_, std::span<double>(buf, 1), comm_);
    return buf[0];
  }

  // One community-sync attempt's post half: seeds next_comm and posts; with
  // overlap on, the first attempt stages the frontier movers' emissions
  // while the gather is in flight.
  void post_moves() {
    const vid_t n = g_.num_vertices();
    const std::span<const cid_t> comm = state_.comm;
    const std::span<cid_t> next_comm = state_.next_comm;
    // Seed next_comm from the current assignment. The payload reads only the
    // owned slice, so the remote slices are copied after posting — inside the
    // gather window with overlap on. The copies are charged either way (they
    // are real device-side memcpys).
    std::copy(comm.begin() + owned_.begin, comm.begin() + owned_.end,
              next_comm.begin() + owned_.begin);
    for (const codec::MoveRecord& m : local_moves_) next_comm[m.vertex] = m.community;
    traffic_.global_reads += owned_.size();
    traffic_.global_writes += owned_.size();
    const std::span<const std::byte> payload =
        !sparse_now_   ? std::as_bytes(next_comm.subspan(owned_.begin, owned_.size()))
        : compress_on_ ? enc_moves_.span()
                       : std::as_bytes(local_moves_.span());
    shipped_bytes_ = payload.size();
    post(sparse_now_ ? "sync_sparse" : "sync_dense", payload);
    const auto copy_remote = [&](gpusim::MemoryStats& stats) {
      std::copy(comm.begin(), comm.begin() + owned_.begin, next_comm.begin());
      std::copy(comm.begin() + owned_.end, comm.end(), next_comm.begin() + owned_.end);
      stats.global_reads += n - owned_.size();
      stats.global_writes += n - owned_.size();
    };
    credit_us_ = 0;
    if (!dist_.overlap) {
      copy_remote(traffic_);
      return;
    }
    if (staged_ready_) return;  // a retry reuses the first attempt's window work
    // Window work: the remote copy, and the frontier movers' emissions (they
    // read only rank-local state, and the owned moved flags are final).
    gpusim::MemoryStats wstats;
    copy_remote(wstats);
    for (const codec::MoveRecord& m : local_moves_) {
      if (!frontier_flag_[m.vertex]) continue;
      StagedRun run;
      run.begin = static_cast<std::uint32_t>(staged_msgs_.size());
      run.own = core::emit_mover_deltas(
          g_, comm, next_comm, moved_, m.vertex, m.community, wstats,
          [&](vid_t x, wt_t d) { staged_msgs_.push_back({x, d}); });
      run.end = static_cast<std::uint32_t>(staged_msgs_.size());
      staged_runs_.push_back(run);
    }
    staged_ready_ = true;
    traffic_ += wstats;
    credit_us_ = config_.device.modeled_ms(wstats) * 1e3;
  }

  void finish_moves() {
    const vid_t n = g_.num_vertices();
    std::vector<cid_t>& next_comm = state_.next_comm;
    if (!sparse_now_) {
      // Dense: every rank ships its whole owned slice of next_comm.
      gather(std::span<const cid_t>(next_comm.data() + owned_.begin, owned_.size()), recv_slices_,
             credit_us_);
      GALA_ASSERT(recv_slices_.size() == n);
      std::copy(recv_slices_.begin(), recv_slices_.end(), next_comm.begin());
    } else {
      if (compress_on_) {
        gather<std::byte>(enc_moves_.span(), enc_recv_, credit_us_);
        recv_moves_.clear();
        codec::decode_moves(enc_recv_.span(), n, recv_moves_);
      } else {
        gather<codec::MoveRecord>(local_moves_.span(), recv_moves_, credit_us_);
      }
      for (const codec::MoveRecord& m : recv_moves_) next_comm[m.vertex] = m.community;
    }
    if (sync_span_->active()) {
      sync_span_->last_arg("rank", static_cast<double>(rank_));
      sync_span_->last_arg("iteration", static_cast<double>(iter_));
      sync_span_->arg("bytes", static_cast<double>(shipped_bytes_));
      sync_span_->arg("moved_total", static_cast<double>(moved_total_));
      sync_span_->arg("overlap", dist_.overlap ? 1.0 : 0.0);
      auto& registry = RunScope::current().registry();
      registry.counter("multigpu.sync_bytes").add(shipped_bytes_);
      if (sparse_now_ && compress_on_) {
        registry.counter("multigpu.codec_raw_bytes")
            .add(local_moves_.size() * sizeof(codec::MoveRecord));
        registry.counter("multigpu.codec_encoded_bytes").add(enc_moves_.size());
      }
    }
    sync_span_.reset();
  }

  void mark_eligible() {
    // Dynamic eligibility for the weight-gather window: with the synced moved
    // flags in hand, an owned vertex whose moved neighbours are all
    // rank-local is a single-sender target — every weight message it will
    // receive originates here, in this rank's emission order, so applying
    // them locally preserves the gather's floating-point order exactly. Any
    // *subset* of the true eligible set is safe (a non-elided eligible target
    // simply ships through the gather like the blocking path), so the
    // computation is adaptive: when movers are rare (late iterations, where
    // per-collective latency dominates the wait) each remote mover's
    // adjacency marks its owned neighbours ineligible — O(n + deg(remote
    // movers)), charged to compute since it runs on the critical path before
    // the gather posts. When movers are dense the exact set would cost an
    // O(m/P) scan for little elision, so the precomputed static frontier
    // stands in for free.
    const vid_t n = g_.num_vertices();
    if (static_cast<std::uint64_t>(moved_total_) * 8 <= n) {
      std::fill(elig_flag_.begin() + owned_.begin, elig_flag_.begin() + owned_.end, 1);
      traffic_.global_writes += owned_.size();
      for (vid_t u = 0; u < n; ++u) {
        traffic_.global_reads += 1;
        if (!moved_[u] || owns(u)) continue;
        for (const vid_t x : g_.neighbors(u)) {
          traffic_.global_reads += 1;
          if (owns(x)) {
            elig_flag_[x] = 0;
            traffic_.global_atomics += 1;
          }
        }
      }
    } else {
      std::copy(frontier_flag_.begin() + owned_.begin, frontier_flag_.begin() + owned_.end,
                elig_flag_.begin() + owned_.begin);
    }
  }

  // Opens the round's `sync` span and posts `payload` (overlap on; a
  // blocking gather ships it in gather()).
  void post(const char* sync, std::span<const std::byte> payload) {
    sync_span_.emplace(RunScope::current().tracer(), sync, "multigpu");
    telemetry::flight(telemetry::FlightKind::SyncPost, static_cast<double>(iter_),
                      static_cast<double>(payload.size()), static_cast<int>(rank_));
    if (!dist_.overlap) return;
    telemetry::ScopedSpan span(RunScope::current().tracer(), "post_gather", "multigpu");
    posted_ = world_.post_gather_v<std::byte>(rank_, payload);
    flow_id_ = 0;
    if (span.active()) {
      // Unique within the run's trace, across ranks and levels.
      flow_id_ = RunScope::current().tracer().next_seq() + 1;
      span.last_arg("rank", static_cast<double>(rank_));
      span.last_arg("iteration", static_cast<double>(iter_));
      span.arg("bytes", static_cast<double>(payload.size()));
      span.flow_out(flow_id_);
    }
  }

  // Completes the posted gather, or runs the blocking one, into `out`.
  template <typename T, typename Out>
  void gather(std::span<const T> local, Out& out, double credit_us) {
    const CommStats before = comm_;
    if (dist_.overlap) {
      telemetry::ScopedSpan span(RunScope::current().tracer(), "complete_gather", "multigpu");
      world_.complete_gather_v<T>(std::move(posted_), comm_, out, credit_us);
      if (span.active()) {
        span.last_arg("rank", static_cast<double>(rank_));
        span.last_arg("iteration", static_cast<double>(iter_));
        // Comm-wait attribution for this window: full modeled cost, the slice
        // hidden behind the window's work, and the exposed remainder on the
        // critical path.
        span.arg("modeled_us", comm_.modeled_us - before.modeled_us);
        span.arg("hidden_us", comm_.hidden_us - before.hidden_us);
        span.arg("wait_us", comm_.wait_us() - before.wait_us());
        if (flow_id_ != 0) span.flow_in(flow_id_);
      }
    } else {
      world_.all_gather_v_into<T>(rank_, local, comm_, out);
    }
    telemetry::flight(telemetry::FlightKind::SyncComplete, static_cast<double>(iter_),
                      comm_.wait_us() - before.wait_us(), static_cast<int>(rank_));
  }

  bool owns(vid_t v) const { return v >= owned_.begin && v < owned_.end; }

  const DistributedConfig& dist_;
  Communicator& world_;
  const std::size_t rank_;
  const bool governor_sparse_;
  const bool compress_on_;
  // The driver's per-vertex arrays, lent (moved_ holds the synced flags once
  // the moves are exchanged).
  std::vector<std::uint8_t> active_;
  std::vector<std::uint8_t> moved_;
  std::vector<std::uint8_t> pending_;
  std::vector<core::Decision> decisions_;
  std::vector<std::uint8_t> frontier_flag_;
  std::vector<std::uint8_t> elig_flag_;  // this iteration's eligible set

  exec::Workspace::Lease<std::byte> arena_pages_;
  gpusim::SharedMemoryArena arena_;
  core::HashScratch hash_scratch_;
  const core::DecideDispatch dispatch_;
  const std::uint64_t salt_;

  // Sync staging, reused across every iteration's collective rounds. The
  // enc_* / staged_* / local_msgs buffers are the double-buffer side: one
  // buffer is in flight through the communicator while these hold the
  // window's staged work.
  exec::PooledVec<codec::MoveRecord> local_moves_;
  exec::PooledVec<codec::MoveRecord> recv_moves_;
  exec::PooledVec<cid_t> recv_slices_;
  exec::PooledVec<WeightMsg> out_msgs_;
  exec::PooledVec<WeightMsg> recv_msgs_;
  exec::PooledVec<std::byte> enc_moves_;
  exec::PooledVec<std::byte> enc_recv_;
  exec::PooledVec<WeightMsg> local_msgs_;
  exec::PooledVec<WeightMsg> staged_msgs_;
  exec::PooledVec<StagedRun> staged_runs_;

  gpusim::MemoryStats traffic_;  // the exchange's compute; the driver keeps the rest
  CommStats comm_;
  std::vector<DistIterationStats> log_;
  std::uint64_t flow_id_ = 0;
  Communicator::PendingGather posted_;
  std::optional<telemetry::ScopedSpan> sync_span_;  // open from post to completion

  // A decide failure (eager or presolved) would deadlock peers if thrown
  // here; it rides the next moves reduce, so every rank throws together.
  std::string decide_error_;
  bool decide_exhausted_ = false;

  // The current iteration's community-sync plan and window state.
  int iter_ = 0;
  vid_t moved_total_ = 0;
  std::uint64_t raw_sparse_bytes_ = 0;
  std::uint64_t sparse_bytes_ = 0;
  bool sparse_now_ = false;
  bool recovered_dense_ = false;
  bool staged_ready_ = false;
  std::uint64_t shipped_bytes_ = 0;
  double credit_us_ = 0;
  gpusim::MemoryStats window_traffic_;  // the rank's share of the weight window
};

/// The phase-1 config a rank drives with: the caller's, on a size-1 pool in
/// a private context, not the caller's (each simulated device owns its
/// pooled workspace, so its arena pages, hash scratch and sync staging are
/// recycled without cross-rank allocator contention), and on rank 0 only
/// the observer, without the rank-local flag spans.
core::BspConfig rank_config(const DistributedConfig& config, std::size_t rank) {
  core::BspConfig bsp = config;
  bsp.parallel = false;
  bsp.context = nullptr;
  bsp.on_iteration = nullptr;
  if (rank == 0 && config.on_iteration) {
    bsp.on_iteration = [observe = config.on_iteration](int iter, const core::IterationStats& s,
                                                       auto, auto, std::span<const cid_t> comm) {
      observe(iter, s, {}, {}, comm);
    };
  }
  return bsp;
}

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

DistributedResult distributed_phase1(const graph::Graph& g, const DistributedConfig& config,
                                     std::span<const cid_t> initial) {
  GALA_CHECK(config.num_gpus >= 1, "need at least one device");
  GALA_CHECK(g.total_weight() > 0, "graph has no edge weight");
  GALA_CHECK(config.weight_update == core::WeightUpdateMode::Delta,
             "distributed ranks run the delta update: weight_update = recompute is refused");
  GALA_CHECK(!config.track_confusion,
             "distributed ranks would count confusion rank-locally: track_confusion is refused");
  const std::size_t P = config.num_gpus;
  const auto ranges = graph::partition_by_edges(g, P);

  Communicator comm_world(P, config.comm_cost);
  DistributedResult result;
  result.devices.resize(P);

  // Governor rung 3 is snapshotted once, before the rank threads spawn: the
  // sync mode and compression flag feed collective shapes, so every rank
  // must agree on them for the whole phase-1 call. A mid-phase per-rank read
  // would desynchronise the collectives; escalation instead takes effect at
  // the next level's phase 1.
  const bool governor_sparse = RunScope::current().governor().force_sparse_sync();

  // Rank threads record into the caller's run scope.
  RunScope* const scope = EnterScope::installed();
  auto rank_main = [&](std::size_t rank) {
    const EnterScope enter(scope);
    // Ambient rank for the thread: every span and flight event recorded
    // below lands on this rank's track in the merged Chrome trace.
    telemetry::RankScope rank_scope(static_cast<int>(rank));
    RankEngine engine(g, rank_config(config, rank), config, initial, comm_world, rank,
                      ranges[rank], governor_sparse);
    engine.report(engine.run(), result);
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

  return result;
}

core::Phase1Result DistributedBackend::run_level(const graph::Graph& g,
                                                 const core::BspConfig& config,
                                                 std::span<const cid_t> initial) {
  DistributedResult r = distributed_phase1(g, DistributedConfig{config, exchange_}, initial);
  r.phase1.other_modeled_ms =
      r.modeled_ms() - r.phase1.decide_modeled_ms - r.phase1.update_modeled_ms;
  return std::move(r.phase1);
}

}  // namespace gala::multigpu
