#include "gala/baselines/baseline.hpp"

#include <algorithm>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "gala/common/timer.hpp"
#include "gala/core/backend.hpp"
#include "gala/core/phase1.hpp"

namespace gala::baselines {
namespace {

using core::Decision;
using core::DecideInput;
using core::move_score;
using gpusim::MemoryStats;

// ---------------------------------------------------------------------------
// Modeled-time calibration.
//
// Every GPU-style system is charged the same per-access latencies (the
// device's CostModel) over the device's lanes (full A100 occupancy: 108 SMs
// x 2048 resident threads); they differ in *traffic*, and in lane efficiency
// where the execution style demonstrably wastes lanes:
//  - kThreadPerVertexEfficiency: legacy Grappolo-GPU maps one scalar thread
//    to a whole vertex; divergence and uncoalesced access keep roughly 1/4
//    of the machine busy (the usual penalty reported for scalar graph
//    kernels).
//  - Grappolo (CPU) runs on cpu_device(): 2 x 28 cores x 2-way SMT x ~4-wide
//    memory-level parallelism ~= 448 concurrent accesses (1000 lanes), and
//    CPU cache hierarchies see lower average latencies (global ~= 120 cycles
//    vs HBM 400).
// DESIGN.md records this calibration; EXPERIMENTS.md compares the resulting
// ratios against the paper's.
// ---------------------------------------------------------------------------
constexpr double kThreadPerVertexEfficiency = 0.25;

gpusim::DeviceConfig cpu_device(gpusim::DeviceConfig device) {
  device.cost_model.global_cycles = 120;
  device.cost_model.global_atomic_cycles = 240;
  device.cost_model.shared_cycles = 12;  // ~L1
  device.cost_model.shared_atomic_cycles = 24;
  device.model_parallel_lanes = 1000.0;
  return device;
}

/// Shared scoring tail: turn per-community weights into a Decision.
template <typename ForEach>
Decision score_communities(const DecideInput& in, vid_t v, ForEach&& for_each_community,
                           MemoryStats& stats) {
  const cid_t curr = in.comm[v];
  const wt_t dv = in.g->degree(v);
  Decision d;
  wt_t e_curr = 0;
  cid_t best = kInvalidCid;
  wt_t best_score = 0;
  for_each_community([&](cid_t c, wt_t weight) {
    stats.global_reads += 1;  // D_V(C)
    stats.register_ops += 1;
    const wt_t score = move_score(weight, in.comm_total[c], dv, in.two_m, c == curr);
    if (c == curr) e_curr = weight;
    if (best == kInvalidCid || score > best_score || (score == best_score && c < best)) {
      best = c;
      best_score = score;
    }
  });
  d.weight_to_curr = e_curr;
  stats.global_reads += 1;
  d.curr_score = move_score(e_curr, in.comm_total[curr], dv, in.two_m, true);
  if (best == kInvalidCid) {
    d.best = curr;
    d.best_score = d.curr_score;
  } else {
    d.best = best;
    d.best_score = best_score;
  }
  return d;
}

// --------------------------- cuGraph-like ----------------------------------
// Sort-based DecideAndMove: materialise (community, weight) key-value pairs,
// sort by community, segmented-reduce. The sort is charged as an LSD radix
// sort over 32-bit keys (4 passes, read+write per element per pass).
void cugraph_decide(const DecideInput& in, vid_t lo, vid_t hi, std::span<Decision> out,
                    MemoryStats& stats) {
  std::vector<std::pair<cid_t, wt_t>> pairs;
  for (vid_t v = lo; v < hi; ++v) {
    const auto nbrs = in.g->neighbors(v);
    const auto ws = in.g->weights(v);
    pairs.clear();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      stats.global_reads += 3;   // neighbour, weight, community
      stats.global_writes += 2;  // materialise the kv pair
      if (nbrs[i] == v) continue;
      pairs.emplace_back(in.comm[nbrs[i]], ws[i]);
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    stats.global_reads += 8 * pairs.size();   // radix sort: 4 passes x read
    stats.global_writes += 8 * pairs.size();  //             4 passes x write
    out[v] = score_communities(
        in, v,
        [&](auto&& emit) {
          std::size_t i = 0;
          while (i < pairs.size()) {
            const cid_t c = pairs[i].first;
            wt_t sum = 0;
            while (i < pairs.size() && pairs[i].first == c) {
              stats.global_reads += 1;  // segmented reduce scan
              sum += pairs[i].second;
              ++i;
            }
            emit(c, sum);
          }
        },
        stats);
  }
}

// --------------------------- Gunrock-like ----------------------------------
// Edge-centric: the frontier advance scatters per-edge (dst-community,
// weight) contributions with global atomics into an accumulation slab, then
// a filter pass re-reads them per vertex. Twice the materialisation traffic
// of the hash kernel and everything through global memory.
void gunrock_decide(const DecideInput& in, vid_t lo, vid_t hi, std::span<Decision> out,
                    MemoryStats& stats) {
  std::unordered_map<cid_t, wt_t> acc;
  for (vid_t v = lo; v < hi; ++v) {
    const auto nbrs = in.g->neighbors(v);
    const auto ws = in.g->weights(v);
    acc.clear();
    stats.global_reads += 1;  // frontier load
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      stats.global_reads += 3;
      stats.global_writes += 2;   // edge kv materialisation
      stats.global_atomics += 1;  // scatter into the accumulation slab
      if (nbrs[i] == v) continue;
      acc[in.comm[nbrs[i]]] += ws[i];
    }
    stats.global_reads += 2 * acc.size();  // filter pass re-reads the slab
    out[v] = score_communities(
        in, v,
        [&](auto&& emit) {
          for (const auto& [c, w] : acc) emit(c, w);
        },
        stats);
  }
}

// --------------------------- hashtable-based -------------------------------
// Grappolo (GPU) and nido both evaluate through a global-memory hashtable;
// they differ in lane efficiency / batching overhead (configured by caller).
void global_hash_decide(const DecideInput& in, vid_t lo, vid_t hi, std::span<Decision> out,
                        MemoryStats& stats) {
  gpusim::SharedMemoryArena arena(1);  // effectively no shared memory
  core::HashScratch scratch;
  for (vid_t v = lo; v < hi; ++v) {
    if (in.g->out_degree(v) == 0) {
      out[v] = score_communities(in, v, [](auto&&) {}, stats);
      continue;
    }
    out[v] = core::hash_decide(in, v, core::HashTablePolicy::GlobalOnly, arena, scratch,
                               /*salt=*/0x9e3779b97f4a7c15ULL, stats);
  }
}

// --------------------------- Grappolo (CPU) --------------------------------
// Host-threaded BSP with per-vertex std::unordered_map accumulation: the
// natural CPU implementation, also measured in real wall-clock.
void cpu_decide(const DecideInput& in, vid_t lo, vid_t hi, std::span<Decision> out,
                MemoryStats& stats) {
  std::unordered_map<cid_t, wt_t> acc;
  for (vid_t v = lo; v < hi; ++v) {
    const auto nbrs = in.g->neighbors(v);
    const auto ws = in.g->weights(v);
    acc.clear();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      stats.global_reads += 3;
      stats.global_writes += 1;  // hash-map bucket update
      if (nbrs[i] == v) continue;
      acc[in.comm[nbrs[i]]] += ws[i];
    }
    out[v] = score_communities(
        in, v,
        [&](auto&& emit) {
          for (const auto& [c, w] : acc) emit(c, w);
        },
        stats);
  }
}

/// decide(input, lo, hi, decisions, stats): evaluates vertices [lo, hi).
using DecideRange = void (*)(const DecideInput&, vid_t, vid_t, std::span<Decision>,
                             MemoryStats&);

/// Extra traffic a system pays per iteration beyond the naive weight
/// recompute (e.g. nido's batch reloads); called with (num_vertices,
/// num_adjacency).
using ExtraTraffic = std::function<void(vid_t, eid_t, MemoryStats&)>;

/// A comparator on the phase-1 driver: the system's DecideRange is its
/// DecideAndMove, over every vertex (pruning None keeps all of them active),
/// and the driver's naive recompute plus the system's extra traffic is its
/// weight update. The guard, bookkeeping, modularity and convergence rule
/// are GALA's own, which is §5.1's "same convergence strategy".
class ComparatorEngine final : public core::Phase1Driver {
 public:
  ComparatorEngine(const graph::Graph& g, const core::BspConfig& config, DecideRange decide,
                   ExtraTraffic extra)
      : Phase1Driver(g, config, core::CommunityState(g)), decide_(decide),
        extra_(std::move(extra)) {}

 private:
  void decide_phase(std::span<const std::uint8_t> /*active*/, vid_t /*active_count*/,
                    std::span<Decision> decisions, core::IterationStats& stats) override {
    Timer timer;
    const DecideInput input{&g_, state_.comm, state_.comm_total, g_.two_m(), config_.resolution};
    std::mutex merge;
    pool_.parallel_for_chunked(
        0, g_.num_vertices(),
        [&](std::size_t lo, std::size_t hi) {
          MemoryStats local;
          decide_(input, static_cast<vid_t>(lo), static_cast<vid_t>(hi), decisions, local);
          std::lock_guard lock(merge);
          stats.decide_traffic += local;
        },
        256);
    stats.decide_wall += timer.seconds();
  }

  void weight_update_phase(std::span<const std::uint8_t> /*moved*/,
                           core::IterationStats& stats) override {
    Timer timer;
    stats.update_traffic += recompute_weights();
    if (extra_) extra_(g_.num_vertices(), g_.num_adjacency(), stats.update_traffic);
    stats.update_wall += timer.seconds();
  }

  DecideRange decide_;
  ExtraTraffic extra_;
};

/// The phase-1 config every system runs under: the shared baseline options.
core::BspConfig system_config(const BaselineOptions& opts) {
  core::BspConfig cfg;
  cfg.theta = opts.theta;
  cfg.max_iterations = opts.max_iterations;
  cfg.parallel = opts.parallel;
  cfg.seed = opts.seed;
  cfg.device = opts.device;
  return cfg;
}

/// Times one phase-1 run and wraps it into the baseline result shape. The
/// one modeled-time conversion every system shares: cfg.device's cost model
/// over `lane_efficiency` of its lanes.
template <typename Run>
BaselineResult from_engine(std::string name, const core::BspConfig& cfg, Run&& run,
                           double lane_efficiency = 1.0) {
  Timer timer;
  const core::Phase1Result r = run();
  BaselineResult out;
  out.name = std::move(name);
  out.community = r.community;
  out.modularity = r.modularity;
  out.iterations = static_cast<int>(r.iterations.size());
  out.wall_seconds = timer.seconds();
  out.traffic = r.total_traffic;
  out.modeled_ms = cfg.device.cost_model.milliseconds(
      r.total_traffic, cfg.device.model_parallel_lanes * lane_efficiency, cfg.device.model_clock_ghz);
  return out;
}

/// A comparator row: `decide` and `extra` on the phase-1 driver.
BaselineResult run_comparator(const graph::Graph& g, std::string name, core::BspConfig cfg,
                              DecideRange decide, ExtraTraffic extra = {},
                              double lane_efficiency = 1.0) {
  cfg.pruning = core::PruningStrategy::None;  // `decide` evaluates every vertex
  return from_engine(
      std::move(name), cfg,
      [&] { return ComparatorEngine(g, cfg, decide, std::move(extra)).run(); },
      lane_efficiency);
}

/// A row on one of GALA's engines under `cfg`.
BaselineResult run_backend(const graph::Graph& g, std::string name, const core::BspConfig& cfg,
                           core::Backend backend = core::Backend::Bsp) {
  return from_engine(std::move(name), cfg,
                     [&] { return core::make_backend(backend)->run_level(g, cfg); });
}

}  // namespace

BaselineResult run_cugraph_like(const graph::Graph& g, const BaselineOptions& opts) {
  return run_comparator(g, "cuGraph", system_config(opts), cugraph_decide);
}

BaselineResult run_gunrock_like(const graph::Graph& g, const BaselineOptions& opts) {
  // Gunrock's Louvain pipeline re-materialises the full edge list every
  // iteration: segmented sort of m kv-pairs (~4 radix passes, read+write
  // each), reduce_by_key (read + compacted write), and the frontier
  // advance/filter kernels re-streaming edges and vertices.
  const auto extra = [](vid_t n, eid_t m, MemoryStats& s) {
    // Two full-edge-list segmented sorts of 64-bit (vertex, community) keys
    // per iteration (one for d_C(v), one for the community totals), 8 radix
    // passes each, read+write per element per pass.
    s.global_reads += 32 * m;
    s.global_writes += 32 * m;
    s.global_reads += 2 * m;   // reduce_by_key scan
    s.global_writes += m;      // reduce_by_key output
    s.global_reads += 2 * m + 2 * n;  // advance + filter re-streaming
  };
  return run_comparator(g, "Gunrock", system_config(opts), gunrock_decide, extra);
}

BaselineResult run_nido_like(const graph::Graph& g, const BaselineOptions& opts) {
  // Batched processing: every batch reloads the community state, re-streams
  // boundary edges, and flushes its partial results before the next batch is
  // admitted.
  const int batches = std::max(1, opts.nido_batches);
  const auto extra = [batches](vid_t n, eid_t m, MemoryStats& s) {
    s.global_reads += static_cast<std::uint64_t>(batches) * n;  // state reloads
    // Each batch re-streams the full adjacency to find its boundary edges
    // and stages the cut-edge contributions for later batches.
    s.global_reads += static_cast<std::uint64_t>(batches) * m;
    s.global_writes += static_cast<std::uint64_t>(batches) * n + m;  // partial flush
  };
  return run_comparator(g, "nido", system_config(opts), global_hash_decide, extra);
}

BaselineResult run_grappolo_gpu(const graph::Graph& g, const BaselineOptions& opts) {
  // Legacy code path: one scalar thread per vertex, global-memory hashtable.
  return run_comparator(g, "Grappolo (GPU)", system_config(opts), global_hash_decide, {},
                        kThreadPerVertexEfficiency);
}

BaselineResult run_grappolo_gpu_star(const graph::Graph& g, const BaselineOptions& opts) {
  // Modernised port: block-per-vertex, unified shared/global hashtable, but
  // no pruning and naive weight recompute.
  core::BspConfig cfg = system_config(opts);
  cfg.pruning = core::PruningStrategy::None;
  cfg.kernel = core::KernelMode::HashOnly;
  cfg.hashtable = core::HashTablePolicy::Unified;
  cfg.weight_update = core::WeightUpdateMode::Recompute;
  return run_backend(g, "Grappolo (GPU)*", cfg);
}

BaselineResult run_grappolo_cpu(const graph::Graph& g, const BaselineOptions& opts) {
  core::BspConfig cfg = system_config(opts);
  cfg.device = cpu_device(cfg.device);
  return run_comparator(g, "Grappolo (CPU)", cfg, cpu_decide);
}

BaselineResult run_gala(const graph::Graph& g, const BaselineOptions& opts) {
  return run_backend(g, "GALA", system_config(opts));
}

BaselineResult run_gala_blas(const graph::Graph& g, const BaselineOptions& opts) {
  return run_backend(g, "GALA (blas)", system_config(opts), core::Backend::Blas);
}

std::vector<BaselineResult> run_all_systems(const graph::Graph& g, const BaselineOptions& opts) {
  std::vector<BaselineResult> results;
  results.push_back(run_cugraph_like(g, opts));
  results.push_back(run_gunrock_like(g, opts));
  results.push_back(run_nido_like(g, opts));
  results.push_back(run_grappolo_gpu(g, opts));
  results.push_back(run_grappolo_gpu_star(g, opts));
  results.push_back(run_grappolo_cpu(g, opts));
  results.push_back(run_gala_blas(g, opts));
  results.push_back(run_gala(g, opts));
  return results;
}

}  // namespace gala::baselines
