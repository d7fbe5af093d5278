// Deterministic profiler baseline: small fixed graphs through phase 1 with
// every hashtable policy, sequential launches, and the hardware-counter
// profile attached to the JSON sidecar. The profile covers the rows that
// measure a kernel (hashtable policies, shuffle, blas), which fold their
// kernel profiles into it; every other row runs profiled but stays out.
//
// All counters this bench emits are modeled (traffic, probe chains, modeled
// cycles) and therefore bit-identical across machines — only the wall_*
// fields vary, and gala_perf_diff ignores those. CI regenerates this bench's
// sidecar and diffs it against the committed copy in bench/baseline/ (see
// bench/baseline/README.md for the refresh procedure).
//
// Run with:
//   GALA_BENCH_JSON_DIR=<dir> GALA_BENCH_PROFILE=1 ./perf_profile
#include "bench_util.hpp"
#include "gala/core/aggregation.hpp"
#include "gala/core/blas_louvain.hpp"
#include "gala/core/bsp_louvain.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/incremental.hpp"
#include "gala/graph/generators.hpp"
#include "gala/metrics/health.hpp"
#include "gala/multigpu/dist_louvain.hpp"
#include "gala/query/executor.hpp"
#include "gala/query/store.hpp"
#include "gala/scope/run_scope.hpp"

int main() {
  using namespace gala;
  bench::print_header("Deterministic per-kernel profile baseline",
                      "perf-regression gate (no paper figure)", 1.0);
  bench::JsonRecord rec("perf_profile", 1.0);

  struct NamedGraph {
    const char* name;
    graph::Graph g;
  };
  graph::PlantedPartitionParams pp;
  pp.num_vertices = 600;
  pp.num_communities = 12;
  pp.avg_degree = 14.0;
  pp.mixing = 0.25;
  pp.seed = 7;
  std::vector<NamedGraph> graphs;
  graphs.push_back({"ring_of_cliques", graph::ring_of_cliques(16, 8)});
  graphs.push_back({"planted", graph::planted_partition(pp)});

  const core::HashTablePolicy policies[] = {core::HashTablePolicy::GlobalOnly,
                                            core::HashTablePolicy::Hierarchical};
  for (const auto& [name, g] : graphs) {
    for (const auto policy : policies) {
      core::BspConfig cfg;
      cfg.kernel = core::KernelMode::HashOnly;  // exercise the hashtable counters
      cfg.hashtable = policy;
      cfg.parallel = false;  // sequential launches: no pool scheduling noise
      bench::RowScope row(rec);
      const auto r = core::bsp_phase1(g, cfg);
      const auto mem = row.memory().report();
      rec.fold(row.profiler());
      double modeled_ms = 0;
      for (const auto& it : r.iterations) {
        modeled_ms += cfg.device.modeled_ms(it.decide_traffic) +
                      cfg.device.modeled_ms(it.update_traffic);
      }
      std::printf("%-16s %-13s Q=%.5f, %u communities, %.4f modeled ms\n", name,
                  core::to_string(policy).c_str(), r.modularity, r.num_communities, modeled_ms);
      // Health summary on the same trajectory: every field is derived from
      // the modeled iteration series, so it baselines bit-identically.
      const auto health = metrics::analyze_iterations(r.iterations, g.num_vertices());
      rec.row()
          .field("graph", name)
          .field("policy", core::to_string(policy))
          .field("modularity", r.modularity)
          .field("communities", static_cast<std::uint64_t>(r.num_communities))
          .field("iterations", static_cast<std::uint64_t>(r.iterations.size()))
          .field("modeled_ms", modeled_ms)
          .field("ws_heap_allocs", r.workspace.heap_allocs)
          .field("ws_peak_bytes", r.workspace.peak_bytes)
          .field("peak_ws_bytes", mem.peak_ws_bytes())
          .field("peak_total_bytes", mem.peak_total_bytes())
          .field("frag_pct", mem.frag_pct())
          .field("health_stalled", static_cast<std::uint64_t>(health.stalled ? 1 : 0))
          .field("health_frontier_half_life", health.frontier_half_life)
          .field("health_churn_peak", health.churn_peak)
          .field("health_churn_mean", health.churn_mean)
          .field("health_ht_probe_trend", health.ht_probe_trend);
    }
  }
  // One shuffle-kernel pass so the profile also covers decide_shuffle.
  {
    core::BspConfig cfg;
    cfg.kernel = core::KernelMode::ShuffleOnly;
    cfg.parallel = false;
    bench::RowScope row(rec);
    const auto r = core::bsp_phase1(graphs[0].g, cfg);
    const auto mem = row.memory().report();
    rec.fold(row.profiler());
    std::printf("%-16s %-13s Q=%.5f, %u communities\n", graphs[0].name, "shuffle",
                r.modularity, r.num_communities);
    rec.row()
        .field("graph", graphs[0].name)
        .field("policy", "shuffle")
        .field("modularity", r.modularity)
        .field("communities", static_cast<std::uint64_t>(r.num_communities))
        .field("iterations", static_cast<std::uint64_t>(r.iterations.size()))
        .field("ws_heap_allocs", r.workspace.heap_allocs)
        .field("ws_peak_bytes", r.workspace.peak_bytes)
        .field("peak_ws_bytes", mem.peak_ws_bytes())
        .field("peak_total_bytes", mem.peak_total_bytes())
        .field("frag_pct", mem.frag_pct());
  }
  // Blas-engine rows: phase 1 through the linear-algebra formulation, then
  // the shared SpGEMM contraction of the resulting partition — one row per
  // accumulator. Everything is modeled (traffic, flops, probe chains,
  // occupancy), so the rows baseline bit-identically; the phase-1 trajectory
  // is engine-independent, so modularity/iterations match the BSP rows above.
  for (const auto& [name, g] : graphs) {
    for (const auto acc : {blas::Accumulator::Hash, blas::Accumulator::Sorted}) {
      core::BspConfig cfg;
      cfg.parallel = false;
      blas::Tuning tuning;
      tuning.accumulator = acc;
      bench::RowScope row(rec);
      core::BlasPhase1Stats phase_stats;
      const auto r = core::blas_phase1(g, cfg, tuning, &phase_stats);
      blas::SpgemmStats spgemm;
      const auto agg = core::aggregate(g, r.community, nullptr, tuning, &spgemm);
      const auto mem = row.memory().report();
      rec.fold(row.profiler());
      double modeled_ms = 0;
      for (const auto& it : r.iterations) {
        modeled_ms += cfg.device.modeled_ms(it.decide_traffic) +
                      cfg.device.modeled_ms(it.update_traffic);
      }
      const char* policy = acc == blas::Accumulator::Hash ? "blas_hash" : "blas_sorted";
      std::printf("%-16s %-13s Q=%.5f, %u communities, %.4f modeled ms, "
                  "%llu spgemm flops\n",
                  name, policy, r.modularity, r.num_communities, modeled_ms,
                  static_cast<unsigned long long>(spgemm.flops));
      rec.row()
          .field("graph", name)
          .field("policy", policy)
          .field("modularity", r.modularity)
          .field("communities", static_cast<std::uint64_t>(r.num_communities))
          .field("iterations", static_cast<std::uint64_t>(r.iterations.size()))
          .field("modeled_ms", modeled_ms)
          .field("pull_iterations", static_cast<std::uint64_t>(phase_stats.pull_iterations))
          .field("push_iterations", static_cast<std::uint64_t>(phase_stats.push_iterations))
          .field("direction_switches", static_cast<std::uint64_t>(phase_stats.direction_switches))
          .field("gathered_rows", phase_stats.gathered_rows)
          .field("updated_rows", phase_stats.updated_rows)
          .field("spgemm_flops", spgemm.flops)
          .field("spgemm_nnz", spgemm.nnz)
          .field("spgemm_max_row_nnz", spgemm.max_row_nnz)
          .field("spgemm_hash_probes", spgemm.hash_probes)
          .field("spgemm_mean_occupancy", spgemm.mean_occupancy)
          .field("coarse_vertices", static_cast<std::uint64_t>(agg.coarse.num_vertices()))
          .field("ws_heap_allocs", r.workspace.heap_allocs)
          .field("ws_peak_bytes", r.workspace.peak_bytes)
          .field("peak_ws_bytes", mem.peak_ws_bytes())
          .field("peak_total_bytes", mem.peak_total_bytes())
          .field("frag_pct", mem.frag_pct());
    }
  }
  // Distributed rows: the blocking baseline and the async overlap +
  // compressed-delta pipeline on the same graph. Every field is modeled and
  // bit-deterministic (the sync trajectory is independent of host thread
  // scheduling), so comm_bytes gates at zero growth and overlap_efficiency
  // at no-drop in gala_perf_diff.
  {
    const auto g = graph::ring_of_cliques(24, 16);
    for (const bool overlap : {false, true}) {
      multigpu::DistributedConfig cfg;
      cfg.num_gpus = 2;
      cfg.comm_cost.ring_convention = true;
      cfg.overlap = overlap;
      cfg.compress = overlap;
      bench::RowScope row(rec);
      // The graph is resident for the row's peak, as in a pipeline run.
      memtrace::set_resident("graph.csr", g.memory_bytes());
      const auto r = multigpu::distributed_phase1(g, cfg);
      const auto mem = row.memory().report();
      std::uint64_t comm_bytes = 0;
      double hidden_us = 0, overlap_ratio = 0;
      for (const auto& d : r.devices) {
        comm_bytes += d.comm.bytes;
        hidden_us += d.comm.hidden_us;
        overlap_ratio = std::max(overlap_ratio, d.comm.overlap_ratio());
      }
      std::uint64_t sync_bytes = 0, sync_raw_bytes = 0;
      for (const auto& it : r.iteration_log) {
        sync_bytes += it.sync_bytes;
        sync_raw_bytes += it.sync_raw_bytes;
      }
      std::printf("%-16s %-13s Q=%.5f, %d iterations, %.4f modeled ms, %llu comm bytes\n",
                  "dist_ring_p2", overlap ? "overlap_codec" : "blocking", r.phase1.modularity,
                  static_cast<int>(r.phase1.iterations.size()), r.modeled_ms(),
                  static_cast<unsigned long long>(comm_bytes));
      rec.row()
          .field("graph", "dist_ring_p2")
          .field("policy", overlap ? "overlap_codec" : "blocking")
          .field("modularity", r.phase1.modularity)
          .field("iterations", static_cast<std::uint64_t>(r.phase1.iterations.size()))
          .field("modeled_ms", r.modeled_ms())
          .field("comm_bytes", comm_bytes)
          .field("comm_wait_ms", [&] {
            double worst = 0;
            for (const auto& d : r.devices) worst = std::max(worst, d.comm_modeled_ms());
            return worst;
          }())
          .field("overlap_hidden_us", hidden_us)
          .field("overlap_efficiency", overlap_ratio)
          .field("codec_raw_bytes", sync_raw_bytes)
          .field("codec_packed_bytes", sync_bytes)
          .field("peak_ws_bytes", mem.peak_ws_bytes())
          .field("peak_total_bytes", mem.peak_total_bytes())
          .field("frag_pct", mem.frag_pct());
    }
  }
  // Flight-recorder overhead row: the same sequential phase-1 run with the
  // recorder armed and disarmed. The contract is twofold: the modeled
  // counters must be untouched by instrumentation (flight_overhead_pct
  // compares modeled time and gates absolutely — see gala_perf_diff's
  // "_overhead_pct" rule), and the wall-clock cost of the armed ring stays
  // informational (wall_* keys are skipped by the diff, printed for humans).
  {
    double modeled[2] = {0, 0};  // [disarmed, armed]
    double wall_ms[2] = {0, 0};
    std::uint64_t events = 0;
    for (const int armed : {0, 1}) {
      bench::RowScope row(rec);
      if (!armed) row.flight().disarm();
      core::BspConfig cfg;
      cfg.parallel = false;
      Timer t;
      const auto r = core::bsp_phase1(graphs[1].g, cfg);
      wall_ms[armed] = t.milliseconds();
      for (const auto& it : r.iterations) {
        modeled[armed] += cfg.device.modeled_ms(it.decide_traffic) +
                          cfg.device.modeled_ms(it.update_traffic);
      }
      if (armed) events = row.flight().recorded();
    }
    const double modeled_overhead =
        modeled[0] > 0 ? 100.0 * (modeled[1] - modeled[0]) / modeled[0] : 0.0;
    const double wall_overhead =
        wall_ms[0] > 0 ? 100.0 * (wall_ms[1] - wall_ms[0]) / wall_ms[0] : 0.0;
    std::printf("%-16s %-13s %.4f modeled ms armed vs %.4f disarmed (%+.3f%%), "
                "%llu events, wall %+.2f%%\n",
                "flight_recorder", "overhead", modeled[1], modeled[0], modeled_overhead,
                static_cast<unsigned long long>(events), wall_overhead);
    rec.row()
        .field("graph", "planted")
        .field("policy", "flight_overhead")
        .field("modeled_ms_armed", modeled[1])
        .field("modeled_ms_disarmed", modeled[0])
        .field("flight_overhead_pct", modeled_overhead)
        .field("flight_events", events)
        .field("wall_ms_armed", wall_ms[1])
        .field("wall_ms_disarmed", wall_ms[0])
        .field("wall_flight_overhead_pct", wall_overhead);
  }
  // Memtrace overhead row, same contract as the flight row: the registry
  // only observes allocation sites (it never changes what the engine
  // allocates), so the modeled time delta between armed and disarmed runs
  // must be exactly zero — memtrace_overhead_pct rides the absolute
  // "_overhead_pct" gate. Wall cost of the accounting map is informational.
  {
    double modeled[2] = {0, 0};  // [disarmed, armed]
    double wall_ms[2] = {0, 0};
    std::uint64_t tracked_allocs = 0;
    for (const int armed : {0, 1}) {
      bench::RowScope row(rec);
      if (!armed) row.memory().disarm();
      core::BspConfig cfg;
      cfg.parallel = false;
      Timer t;
      const auto r = core::bsp_phase1(graphs[1].g, cfg);
      wall_ms[armed] = t.milliseconds();
      for (const auto& it : r.iterations) {
        modeled[armed] += cfg.device.modeled_ms(it.decide_traffic) +
                          cfg.device.modeled_ms(it.update_traffic);
      }
      if (armed) {
        for (const auto& s : row.memory().report().subsystems) tracked_allocs += s.allocs;
      }
    }
    const double modeled_overhead =
        modeled[0] > 0 ? 100.0 * (modeled[1] - modeled[0]) / modeled[0] : 0.0;
    const double wall_overhead =
        wall_ms[0] > 0 ? 100.0 * (wall_ms[1] - wall_ms[0]) / wall_ms[0] : 0.0;
    std::printf("%-16s %-13s %.4f modeled ms armed vs %.4f disarmed (%+.3f%%), "
                "%llu tracked allocs, wall %+.2f%%\n",
                "memtrace", "overhead", modeled[1], modeled[0], modeled_overhead,
                static_cast<unsigned long long>(tracked_allocs), wall_overhead);
    rec.row()
        .field("graph", "planted")
        .field("policy", "memtrace_overhead")
        .field("modeled_ms_armed", modeled[1])
        .field("modeled_ms_disarmed", modeled[0])
        .field("memtrace_overhead_pct", modeled_overhead)
        .field("memtrace_tracked_allocs", tracked_allocs)
        .field("wall_ms_armed", wall_ms[1])
        .field("wall_ms_disarmed", wall_ms[0])
        .field("wall_memtrace_overhead_pct", wall_overhead);
  }
  // Governor rows: the minimum feasible budget for each stand-in graph under
  // the default sequential config. The probe is a pure function of modeled
  // bytes (binary search over 4096-byte granules, each trial checked for
  // completion + bit-identical partition + peak within budget), so it
  // baselines bit-identically. min_feasible_* rides gala_perf_diff's
  // zero-growth rule: a higher floor means the degradation ladder lost
  // headroom — a robustness regression, not a tuning knob.
  for (const auto& [name, g] : graphs) {
    // Each solve runs in its own scope: the trial's budget (0 = none) and a
    // memory registry that sees that solve alone.
    const auto solve = [&g, &rec](std::uint64_t budget, std::uint64_t& peak) {
      bench::RowScope trial(rec);
      if (budget != 0) trial.governor().install({.total_bytes = budget});
      core::BspConfig cfg;
      cfg.parallel = false;
      std::vector<cid_t> partition = core::bsp_phase1(g, cfg).community;
      peak = trial.memory().report().peak_total_bytes();
      return partition;
    };
    std::uint64_t peak = 0;
    const std::vector<cid_t> reference = solve(0, peak);
    const auto feasible = [&](std::uint64_t budget) {
      std::uint64_t trial_peak = 0;
      try {
        return solve(budget, trial_peak) == reference && trial_peak <= budget;
      } catch (const ResourceExhausted&) {
        return false;
      }
    };
    const std::uint64_t floor = governor::min_feasible_budget(peak, feasible);
    std::printf("%-16s %-13s min feasible budget %llu B (unlimited peak %llu B)\n", name,
                "governor_floor", static_cast<unsigned long long>(floor),
                static_cast<unsigned long long>(peak));
    rec.row()
        .field("graph", name)
        .field("policy", "governor_floor")
        .field("min_feasible_budget_bytes", floor)
        .field("unlimited_peak_bytes", peak);
  }
  // Query-serving rows: a deterministic epoch stream (full run + incremental
  // repairs) published into the snapshot store, then the point and batched
  // read paths. Every gated field — snapshot residency, member-index size,
  // answer checksums, diff cardinality — is a pure function of the seeds,
  // so the rows baseline bit-identically; throughput lives in the separate
  // query_bench sidecar as wall_* fields.
  {
    bench::RowScope row(rec);
    query::StoreOptions qopts;
    qopts.max_retained = 4;
    query::CommunityStore store(qopts);
    const graph::Graph& g = graphs[1].g;  // planted
    const auto initial = core::run_louvain(g);
    store.publish(g, initial);
    graph::Graph current = g;
    std::vector<cid_t> assignment = initial.assignment;
    for (int e = 1; e < 6; ++e) {
      // Heavy cross-community inserts so successive epochs genuinely move
      // vertices — the diff_moved_total gate below must cover real churn.
      std::vector<core::EdgeUpdate> batch;
      for (int i = 0; i < 8; ++i) {
        const auto u = static_cast<vid_t>(splitmix64(300ull * e + i) % current.num_vertices());
        const auto v = static_cast<vid_t>(splitmix64(700ull * e + i) % current.num_vertices());
        batch.push_back({u, v, 24.0, false});
      }
      auto repaired = core::update_communities(current, assignment, batch);
      store.publish(repaired);
      current = std::move(repaired.graph);
      assignment = std::move(repaired.assignment);
    }
    const query::QueryExecutor exec(store, nullptr, /*grain=*/1u << 20);
    query::SnapshotRef snap = store.current();

    // Point path: 4096 deterministic lookups against the newest epoch.
    std::uint64_t point_checksum = 0;
    constexpr std::uint64_t kPointOps = 4096;
    for (std::uint64_t i = 0; i < kPointOps; ++i) {
      point_checksum += exec.community_of(static_cast<vid_t>(
          splitmix64(i ^ 0x9e3779b9ull) % g.num_vertices()));
    }
    std::printf("%-16s %-13s %llu epochs, %zu retained, %llu B resident, checksum %llu\n",
                "planted", "query_point", static_cast<unsigned long long>(store.latest_epoch()),
                store.retained(), static_cast<unsigned long long>(store.resident_bytes()),
                static_cast<unsigned long long>(point_checksum));
    rec.row()
        .field("graph", "planted")
        .field("policy", "query_point")
        .field("ops", kPointOps)
        .field("epochs_published", store.published())
        .field("epochs_retained", static_cast<std::uint64_t>(store.retained()))
        .field("epochs_evicted", store.evicted())
        .field("peak_snapshot_bytes", store.resident_bytes())
        .field("communities", static_cast<std::uint64_t>(snap->num_communities()))
        .field("modularity", snap->modularity())
        .field("checksum", point_checksum);

    // Batched path + every retained cross-epoch diff.
    std::vector<vid_t> queries(2048);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      queries[i] = static_cast<vid_t>(splitmix64(i * 131) % g.num_vertices());
    }
    std::uint64_t batch_checksum = 0;
    for (const cid_t c : exec.community_of(*snap, queries)) batch_checksum += c;
    for (const vid_t s : exec.community_size_of(*snap, queries)) batch_checksum += s;
    std::uint64_t moved_total = 0, diff_pairs = 0;
    for (std::uint64_t i = store.oldest_epoch(); i <= store.latest_epoch(); ++i) {
      for (std::uint64_t j = i + 1; j <= store.latest_epoch(); ++j) {
        moved_total += exec.diff(i, j).moved.size();
        ++diff_pairs;
      }
    }
    std::printf("%-16s %-13s %zu-query batch checksum %llu, %llu diff pairs, %llu moved\n",
                "planted", "query_batch", queries.size(),
                static_cast<unsigned long long>(batch_checksum),
                static_cast<unsigned long long>(diff_pairs),
                static_cast<unsigned long long>(moved_total));
    rec.row()
        .field("graph", "planted")
        .field("policy", "query_batch")
        .field("ops", static_cast<std::uint64_t>(queries.size()))
        .field("peak_snapshot_bytes", store.resident_bytes())
        .field("checksum", batch_checksum)
        .field("diff_pairs", diff_pairs)
        .field("diff_moved_total", moved_total);
  }
  rec.save();
  return 0;
}
