// The `gala` command-line tool.
//
//   gala detect <graph> [options]   run community detection, write results
//   gala stats <graph>              graph statistics
//   gala generate <type> [options]  synthesize a graph to disk
//   gala convert <in> <out>         text edge-list <-> binary snapshot
//
// Graphs are text edge lists ("u v [w]" per line) unless the path ends in
// .bin (binary snapshot), or "standin:ABBR[:scale]" for the built-in
// stand-in suite (e.g. standin:LJ:0.5).
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>

#include "gala/baselines/label_propagation.hpp"
#include "gala/common/cli.hpp"
#include "gala/common/json.hpp"
#include "gala/common/table.hpp"
#include "gala/common/timer.hpp"
#include "gala/metrics/health.hpp"
#include "gala/scope/run_scope.hpp"
#include "gala/telemetry/telemetry.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/refinement.hpp"
#include "gala/graph/generators.hpp"
#include "gala/graph/formats.hpp"
#include "gala/graph/io.hpp"
#include "gala/graph/standin.hpp"
#include "gala/graph/stats.hpp"
#include "gala/metrics/ari.hpp"
#include "gala/metrics/nmi.hpp"
#include "gala/metrics/report.hpp"
#include "gala/multigpu/dist_louvain.hpp"
#include "gala/query/executor.hpp"
#include "gala/query/store.hpp"
#include "gala/resilience/supervisor.hpp"

namespace {

using namespace gala;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

graph::Graph load_graph(const std::string& spec) {
  if (spec.rfind("standin:", 0) == 0) {
    std::string rest = spec.substr(8);
    double scale = 0.5;
    if (const auto colon = rest.find(':'); colon != std::string::npos) {
      scale = std::stod(rest.substr(colon + 1));
      rest = rest.substr(0, colon);
    }
    return graph::make_standin(rest, scale);
  }
  if (ends_with(spec, ".bin")) return graph::load_binary(spec);
  if (ends_with(spec, ".mtx")) return graph::load_matrix_market(spec);
  if (ends_with(spec, ".graph") || ends_with(spec, ".metis")) return graph::load_metis(spec);
  return graph::load_edge_list(spec);
}

core::PruningStrategy parse_pruning(const std::string& name) {
  if (name == "none") return core::PruningStrategy::None;
  if (name == "SM" || name == "sm") return core::PruningStrategy::Strict;
  if (name == "RM" || name == "rm") return core::PruningStrategy::Relaxed;
  if (name == "PM" || name == "pm") return core::PruningStrategy::Probabilistic;
  if (name == "MG" || name == "mg") return core::PruningStrategy::ModularityGain;
  if (name == "MG+RM" || name == "mg+rm") return core::PruningStrategy::MgPlusRelaxed;
  GALA_CHECK(false, "unknown pruning strategy '" << name << "' (none|SM|RM|PM|MG|MG+RM)");
}

core::HashTablePolicy parse_hashtable(const std::string& name) {
  if (name == "global") return core::HashTablePolicy::GlobalOnly;
  if (name == "unified") return core::HashTablePolicy::Unified;
  if (name == "hierarchical") return core::HashTablePolicy::Hierarchical;
  GALA_CHECK(false, "unknown hashtable policy '" << name << "' (global|unified|hierarchical)");
}

core::Backend parse_backend(const std::string& name) {
  if (name == "bsp") return core::Backend::Bsp;
  if (name == "blas") return core::Backend::Blas;
  GALA_CHECK(false, "unknown backend '" << name << "' (bsp|blas)");
}

/// Probes every requested output destination up front (see
/// gala::probe_output_path): a run that cannot write its reports should fail
/// before the solve, not after it.
void check_writable_outputs(const ArgParser& args, std::initializer_list<const char*> options) {
  for (const char* opt : options) probe_output_path(opt, args.get(opt));
}

/// Parses a byte count for the budget flags: a positive integer, optionally
/// suffixed K/M/G (binary multiples). Zero, negatives, and non-numeric text
/// fail fast with the flag name and reason, matching the fail-fast style of
/// the output-path probes and gala_perf_diff's tolerance validation.
std::uint64_t parse_budget_bytes(const std::string& flag, const std::string& text) {
  const bool leading_digit = !text.empty() && text[0] >= '0' && text[0] <= '9';
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = leading_digit ? std::strtoull(text.c_str(), &end, 10) : 0;
  std::uint64_t mult = 1;
  bool ok = leading_digit && end != text.c_str() && errno == 0;
  if (ok && *end != '\0') {
    const char suffix = *end;
    ok = end[1] == '\0';
    if (suffix == 'K' || suffix == 'k') {
      mult = 1024ull;
    } else if (suffix == 'M' || suffix == 'm') {
      mult = 1024ull * 1024;
    } else if (suffix == 'G' || suffix == 'g') {
      mult = 1024ull * 1024 * 1024;
    } else {
      ok = false;
    }
  }
  GALA_CHECK(ok, "--" << flag << ": '" << text
                      << "' is not a byte count (positive integer, optional K/M/G suffix)");
  GALA_CHECK(v > 0, "--" << flag << ": budget must be positive, got '" << text << "'");
  GALA_CHECK(static_cast<std::uint64_t>(v) <= std::numeric_limits<std::uint64_t>::max() / mult,
             "--" << flag << ": '" << text << "' overflows a 64-bit byte count");
  return static_cast<std::uint64_t>(v) * mult;
}

/// Parses --mem-budget-sub's "subsystem=bytes[,subsystem=bytes...]" form.
std::vector<std::pair<std::string, std::uint64_t>> parse_subsystem_caps(const std::string& text) {
  std::vector<std::pair<std::string, std::uint64_t>> caps;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string entry = text.substr(pos, comma - pos);
    const std::size_t eq = entry.find('=');
    GALA_CHECK(eq != std::string::npos && eq > 0,
               "--mem-budget-sub: '" << entry << "' is not subsystem=bytes");
    caps.emplace_back(entry.substr(0, eq),
                      parse_budget_bytes("mem-budget-sub", entry.substr(eq + 1)));
    pos = comma + 1;
  }
  GALA_CHECK(!caps.empty(), "--mem-budget-sub: no subsystem caps given");
  return caps;
}

int cmd_detect(int argc, const char* const* argv) {
  ArgParser args("gala detect",
                 "Detect communities with the GALA multi-level Louvain pipeline.");
  args.add_positional("graph", "edge list / .bin / standin:ABBR[:scale]")
      .add_option("pruning", "none|SM|RM|PM|MG|MG+RM", "MG")
      .add_option("hashtable", "global|unified|hierarchical", "hierarchical")
      .add_option("backend", "bsp|blas phase-1 engine (blas = linear-algebra formulation)",
                  "bsp")
      .add_option("resolution", "gamma for generalised modularity", "1.0")
      .add_option("theta", "per-iteration convergence threshold", "1e-6")
      .add_option("gpus", "simulated devices (>1 distributes every level's phase 1)", "1")
      .add_option("output", "write 'vertex community' lines here", "")
      .add_option("algorithm", "louvain|lpa", "louvain")
      .add_option("trace-out", "write a Chrome-trace/Perfetto JSON of the run here", "")
      .add_option("report-out", "arm every observer and write the run report here (run, "
                  "metrics, kernel profile, flight window, health, memory, governor)", "")
      .add_option("mem-budget", "hard modeled-bytes budget for the memory governor (positive "
                  "integer, optional K/M/G suffix)", "")
      .add_option("mem-budget-sub", "per-subsystem governor caps, comma-separated tag=bytes "
                  "pairs (e.g. phase1=8M,gpusim=2M)", "")
      .add_option("faults", "arm a fault-injection plan (JSON, see docs/resilience.md)", "")
      .add_option("max-retries", "supervised: transient-fault retries per level", "2")
      .add_option("query-epochs", "epochs retained by the --serve snapshot store (positive "
                  "integer)", "4")
      .add_flag("overlap", "multi-GPU: double-buffered async sync (post/complete with flow arrows)")
      .add_flag("compress", "multi-GPU: ship sparse syncs as compressed delta frames")
      .add_flag("refine", "Leiden-style refinement before each aggregation")
      .add_flag("follow", "vertex-following preprocessing (merge pendants)")
      .add_flag("supervise", "run under the resilience supervisor (validate/retry/degrade)")
      .add_flag("strict", "supervised: fail closed on the first fault (no recovery)")
      .add_flag("probe-min-budget", "after the run, binary-search the smallest feasible budget "
                "(completes unsupervised, bit-identical partition, peak within budget; "
                "single-device runs are replayed with sequential launches; fails when even "
                "the unlimited peak is infeasible)")
      .add_flag("serve", "publish the final partition into the epoch-versioned query store "
                "and answer a deterministic sample query batch")
      .add_flag("connected", "report whether every community is connected");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;

  check_writable_outputs(args, {"output", "trace-out", "report-out"});

  // Fail-fast probes: reject bad engine selections before the graph loads.
  const core::Backend backend = parse_backend(args.get("backend"));
  GALA_CHECK(backend == core::Backend::Bsp || args.get_int("gpus") <= 1,
             "--backend: blas is single-device only (drop --gpus or use bsp)");
  GALA_CHECK(args.has("serve") || !args.has("query-epochs"),
             "--query-epochs: only meaningful with --serve (no query store to size)");
  long query_epochs = 0;
  if (args.has("serve")) {
    query_epochs = args.get_int("query-epochs");
    GALA_CHECK(query_epochs > 0, "--query-epochs: must be positive, got " << query_epochs);
  }

  // The run's observers. --report-out is the one arm switch: it enables the
  // tracer, profiler and health monitor (--trace-out alone enables only the
  // tracer) on top of the always-armed flight and memory recorders.
  RunScope scope;
  auto& tracer = scope.tracer();
  const std::string trace_out = args.get("trace-out");
  const std::string report_out = args.get("report-out");
  const bool reporting = !report_out.empty();
  metrics::RunReport report;
  // The health monitor rides the engines' end-of-iteration hook; it observes
  // globally-reduced, modeled state only, so its section is byte-identical
  // across pooling / parallelism / sync configurations.
  std::optional<metrics::HealthMonitor> health;
  if (reporting) {
    health.emplace();
    scope.profiler().set_enabled(true);
  }
  if (reporting || !trace_out.empty()) {
    tracer.set_enabled(true);
    if (!trace_out.empty()) {
      tracer.add_sink(std::make_shared<telemetry::ChromeTraceSink>(trace_out));
    }
  }

  // Fault injection: arm the plan before any pipeline work so every
  // instrumented site (kernel launches, arena, scratch, collectives) sees it.
  if (const std::string plan_path = args.get("faults"); !plan_path.empty()) {
    scope.faults().arm(resilience::FaultPlan::load(plan_path));
    std::printf("armed fault plan %s\n", plan_path.c_str());
  }

  // Memory governor: install the budget before the graph loads so the very
  // first modeled allocation is already admitted.
  governor::BudgetConfig gov_cfg;
  if (const std::string b = args.get("mem-budget"); !b.empty()) {
    gov_cfg.total_bytes = parse_budget_bytes("mem-budget", b);
  }
  if (const std::string s = args.get("mem-budget-sub"); !s.empty()) {
    gov_cfg.subsystem_caps = parse_subsystem_caps(s);
  }
  const bool governed = gov_cfg.total_bytes != 0 || !gov_cfg.subsystem_caps.empty();
  if (governed) {
    scope.governor().install(gov_cfg);
    std::printf("governor: enforcing budget %llu B with %zu subsystem caps\n",
                static_cast<unsigned long long>(gov_cfg.total_bytes),
                gov_cfg.subsystem_caps.size());
  }

  PhaseTimer load_timer;
  graph::Graph g;
  {
    ScopedPhase load_phase(load_timer);
    telemetry::ScopedSpan load_span(tracer, "load-graph", "cli");
    g = load_graph(args.get("graph"));
  }
  std::printf("graph: %s (loaded in %.3f s)\n", graph::summary(g).c_str(),
              load_timer.total_seconds());

  std::vector<cid_t> assignment;
  // --probe-min-budget replays the solve under trial budgets; the Louvain
  // branch stashes a replayable unsupervised configuration here (without the
  // health callback, so the probe never pollutes the health report).
  std::function<std::vector<cid_t>()> probe_solve;
  std::unique_ptr<core::LouvainBackend> engine;  // the Louvain run's, shared with the probe
  if (args.get("algorithm") == "lpa") {
    baselines::LpaOptions opts;
    const auto r = baselines::label_propagation(g, opts);
    assignment = r.labels;
    const double q = core::modularity(g, assignment, args.get_double("resolution"));
    if (reporting) report.run = metrics::run_section(g, r, q);
    std::printf("label propagation: %u communities in %d iterations, modularity %.5f\n",
                r.num_communities, r.iterations, q);
  } else {
    core::GalaConfig cfg;
    cfg.backend = backend;
    cfg.bsp.pruning = parse_pruning(args.get("pruning"));
    cfg.bsp.hashtable = parse_hashtable(args.get("hashtable"));
    cfg.bsp.resolution = args.get_double("resolution");
    cfg.bsp.theta = args.get_double("theta");
    cfg.refine = args.has("refine");
    cfg.vertex_following = args.has("follow");
    // --gpus N > 1 distributes every level's phase 1 (multigpu/dist_louvain.hpp).
    if (args.get_int("gpus") > 1) {
      multigpu::Exchange exchange;
      exchange.num_gpus = static_cast<std::size_t>(args.get_int("gpus"));
      exchange.overlap = args.has("overlap");
      exchange.compress = args.has("compress");
      engine = std::make_unique<multigpu::DistributedBackend>(exchange);
    } else {
      engine = core::make_backend(backend, cfg.blas);
    }
    {
      core::GalaConfig probe_cfg = cfg;
      // Peaks of parallel launches depend on how many pool workers hold
      // scratch at once, so a trial could exceed the reference peak it was
      // sized from. Sequential replays make feasibility a deterministic,
      // monotone function of the budget, which the binary search assumes.
      // (Distributed ranks always launch sequentially.)
      probe_cfg.bsp.parallel = false;
      probe_solve = [&g, &engine, probe_cfg] {
        return core::run_louvain(g, probe_cfg, *engine).assignment;
      };
    }
    const bool supervised = args.has("supervise") || args.has("faults") || args.has("strict") ||
                            args.has("max-retries");
    core::GalaResult r;
    if (supervised) {
      resilience::SupervisorConfig sup;
      sup.max_retries = args.get_int("max-retries");
      sup.strict = args.has("strict");
      // Incidents (retries, validator failures, fallbacks, rollbacks) dump
      // a flight-only report to the report path; the end-of-run report
      // overwrites it and keeps the incident events (they are still in the
      // ring) under the freshest reason.
      sup.flight_dump_path = report_out;
      const resilience::SupervisedResult sr =
          resilience::run_louvain_supervised(g, cfg, sup, *engine);
      r = sr.result;
      // The supervisor's health monitor is the run's one monitor.
      if (health.has_value()) {
        health.reset();
        report.health = sr.health.json();
      }
      std::printf("supervisor: %d retries%s%s%s\n", sr.retries,
                  sr.degraded ? ", degraded path taken" : "",
                  sr.rolled_back ? ", rolled back to the held partition" : "",
                  sr.events.empty() ? ", no recovery events" : "");
      for (const auto& ev : sr.events) {
        std::printf("  recovery: level %d attempt %d [%s] %s — %s\n", ev.level, ev.attempt,
                    ev.stage.c_str(), ev.action.c_str(), ev.detail.c_str());
      }
    } else {
      if (health.has_value()) cfg.bsp.on_iteration = health->callback();
      r = core::run_louvain(g, cfg, *engine);
    }
    assignment = r.assignment;
    if (reporting) report.run = metrics::run_section(g, cfg, r, *engine);
    std::printf("GALA: %u communities, modularity %.5f, %zu levels, %.3f s wall, "
                "%.3f modeled ms\n",
                r.num_communities, r.modularity, r.levels.size(), r.wall_seconds, r.modeled_ms);
    for (const auto& lv : r.levels) {
      std::printf("  level: %u -> %u (Q=%.5f, %d iters)\n", lv.vertices, lv.communities,
                  lv.modularity, lv.iterations);
    }
    if (r.rejected) {
      std::printf("  rejected level: %u -> %u (Q=%.5f, %d iters), below its start; not folded\n",
                  r.rejected->vertices, r.rejected->communities, r.rejected->modularity,
                  r.rejected->iterations);
    }
  }

  const auto cs = graph::community_stats(g, assignment);
  std::printf("sizes: largest=%u median=%.0f smallest=%u, coverage=%.1f%%\n", cs.largest,
              cs.median_size, cs.smallest, 100.0 * cs.coverage);
  if (args.has("connected")) {
    std::printf("all communities connected: %s\n",
                core::is_partition_connected(g, assignment) ? "yes" : "no");
  }
  if (args.has("serve")) {
    // Scoped so the store (and its governor reclaimer) unwinds before the
    // governor epilogue below.
    query::StoreOptions qopts;
    qopts.max_retained = static_cast<std::size_t>(query_epochs);
    query::CommunityStore store(qopts);
    const std::uint64_t epoch = store.publish(g, assignment, query::SnapshotSource::Direct,
                                              args.get_double("resolution"));
    query::SnapshotRef snap = store.current();
    GALA_CHECK(snap && snap->validate().empty(), "--serve: published snapshot failed validation");
    query::QueryExecutor exec(store);
    const auto top = exec.top_k(*snap, 3);
    std::ostringstream tops;
    for (std::size_t i = 0; i < top.size(); ++i) {
      tops << (i ? " " : "") << top[i].community << "=" << top[i].size;
    }
    std::printf("query: epoch %llu serving %u communities (retain %ld), top sizes [%s], "
                "%llu B resident\n",
                static_cast<unsigned long long>(epoch), snap->num_communities(), query_epochs,
                tops.str().c_str(), static_cast<unsigned long long>(store.resident_bytes()));
    if (g.num_vertices() > 0) {
      const std::vector<vid_t> probes = {0, g.num_vertices() / 2, g.num_vertices() - 1};
      const auto owners = exec.community_of(*snap, probes);
      const auto sizes = exec.community_size_of(*snap, probes);
      for (std::size_t i = 0; i < probes.size(); ++i) {
        std::printf("query: v%u -> community %u (%u members)\n", probes[i], owners[i], sizes[i]);
      }
    }
  }
  if (const std::string out = args.get("output"); !out.empty()) {
    std::ofstream f(out);
    GALA_CHECK(f.is_open(), "cannot open " << out);
    for (vid_t v = 0; v < g.num_vertices(); ++v) f << v << ' ' << assignment[v] << '\n';
    std::printf("wrote %s\n", out.c_str());
  }
  if (!trace_out.empty()) {
    tracer.flush_sinks();
    std::printf("wrote trace to %s (%zu spans; open in chrome://tracing or ui.perfetto.dev)\n",
                trace_out.c_str(), tracer.span_count());
  }
  // Governor epilogue: summary line, then the optional min-feasible-budget
  // probe, then the report.
  if (governed) {
    const auto& gov = scope.governor();
    std::printf("governor: budget %llu B, rung %s, %llu admits, %llu denials, %llu shrinks, "
                "%llu reclaims\n",
                static_cast<unsigned long long>(gov.budget_total()),
                governor::to_string(gov.rung()),
                static_cast<unsigned long long>(gov.admits()),
                static_cast<unsigned long long>(gov.denials()),
                static_cast<unsigned long long>(gov.shrinks()),
                static_cast<unsigned long long>(gov.reclaims()));
  }

  std::optional<std::pair<std::uint64_t, std::uint64_t>> probed;  // (min feasible, unlimited peak)
  if (args.has("probe-min-budget")) {
    GALA_CHECK(probe_solve != nullptr, "--probe-min-budget requires algorithm=louvain");
    // Each trial replays the run in a fresh scope: no fault plan (a firing
    // fault would break the probe's monotone-feasibility assumption), the
    // trial's budget if any, and the run's profiler setting (its per-block
    // cycle buffers count toward the peak). A --gpus replay is the run
    // (ranks always launch sequentially), so its peak is the live
    // high-water, what the budget caps; summing every tag's own peak would
    // count phase 2's scratch as if it coexisted with phase 1's. A
    // single-device replay launches sequentially while the run holds a
    // scratch set per pool worker, so it keeps the summed peaks' headroom.
    const bool replay_is_run = args.get_int("gpus") > 1;
    const auto replay = [&](std::uint64_t budget, std::uint64_t& peak) {
      RunScope trial;
      trial.profiler().set_enabled(scope.profiler().enabled());
      if (budget != 0) trial.governor().install({.total_bytes = budget});
      std::vector<cid_t> partition = probe_solve();
      const memtrace::MemReport mem = trial.memory().report();
      peak = replay_is_run ? mem.peak_live_bytes : mem.peak_total_bytes();
      return partition;
    };
    std::uint64_t unlimited_peak = 0;
    const std::vector<cid_t> reference = replay(0, unlimited_peak);
    const auto feasible = [&](std::uint64_t budget) {
      std::uint64_t peak = 0;
      try {
        return replay(budget, peak) == reference && peak <= budget;
      } catch (const ResourceExhausted&) {
        return false;
      }
    };
    const std::uint64_t min_feasible = governor::min_feasible_budget(unlimited_peak, feasible);
    std::printf("min feasible budget: %llu B (unlimited peak %llu B)\n",
                static_cast<unsigned long long>(min_feasible),
                static_cast<unsigned long long>(unlimited_peak));
    probed.emplace(min_feasible, unlimited_peak);
  }

  if (reporting) {
    report.capture(scope, "end-of-run");
    if (health.has_value()) report.health = health->report().json();
    if (probed) {
      JsonWriter w;
      w.begin_object();
      if (governed) scope.governor().append_json(w);
      w.key("min_feasible_budget_bytes").value(probed->first);
      w.key("unlimited_peak_bytes").value(probed->second);
      w.end_object();
      report.governor = w.str();
    }
    report.save(report_out);
    std::printf("wrote run report to %s\n", report_out.c_str());
  }
  return 0;
}

int cmd_stats(int argc, const char* const* argv) {
  ArgParser args("gala stats", "Print graph statistics.");
  args.add_positional("graph", "edge list / .bin / standin:ABBR[:scale]");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;
  const graph::Graph g = load_graph(args.get("graph"));
  std::printf("%s\n%s\n", graph::summary(g).c_str(),
              graph::describe(graph::degree_stats(g)).c_str());
  vid_t components = 0;
  graph::connected_components(g, components);
  std::printf("connected components: %u (largest %u vertices)\n", components,
              graph::largest_component_size(g));
  const auto ds = graph::degree_stats(g);
  TextTable hist({"degree bucket", "vertices"});
  for (std::size_t b = 0; b < ds.log2_histogram.size(); ++b) {
    std::ostringstream label;
    label << "[" << (b == 0 ? 0 : (1u << b)) << ", " << (1u << (b + 1)) << ")";
    hist.row().cell(label.str()).cell(ds.log2_histogram[b]);
  }
  hist.print();
  return 0;
}

int cmd_generate(int argc, const char* const* argv) {
  ArgParser args("gala generate", "Synthesize a graph and write it to disk.");
  args.add_positional("type", "planted|lfr|rmat|er|ring")
      .add_option("out", "output path (.bin for binary)", "graph.txt")
      .add_option("vertices", "vertex count", "10000")
      .add_option("communities", "community count (planted)", "100")
      .add_option("avg-degree", "average degree (planted)", "16")
      .add_option("mixing", "inter-community mixing (planted/lfr)", "0.2")
      .add_option("degree-exponent", "power-law exponent (planted skew / lfr)", "0")
      .add_option("edges", "edge count (er)", "50000")
      .add_option("scale", "log2 vertices (rmat)", "14")
      .add_option("edge-factor", "edges per vertex (rmat)", "8")
      .add_option("cliques", "clique count (ring)", "100")
      .add_option("clique-size", "clique size (ring)", "10")
      .add_option("seed", "random seed", "1")
      .add_option("truth", "also write ground-truth communities here", "");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;

  const std::string type = args.get("type");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  std::vector<cid_t> truth;
  graph::Graph g;
  if (type == "planted") {
    graph::PlantedPartitionParams p;
    p.num_vertices = static_cast<vid_t>(args.get_int("vertices"));
    p.num_communities = static_cast<vid_t>(args.get_int("communities"));
    p.avg_degree = args.get_double("avg-degree");
    p.mixing = args.get_double("mixing");
    p.degree_exponent = args.get_double("degree-exponent");
    p.seed = seed;
    g = graph::planted_partition(p, &truth);
  } else if (type == "lfr") {
    graph::LfrParams p;
    p.num_vertices = static_cast<vid_t>(args.get_int("vertices"));
    p.mixing = args.get_double("mixing");
    if (args.get_double("degree-exponent") > 0) p.degree_exponent = args.get_double("degree-exponent");
    p.seed = seed;
    g = graph::lfr(p, truth);
  } else if (type == "rmat") {
    graph::RmatParams p;
    p.scale = static_cast<int>(args.get_int("scale"));
    p.edge_factor = args.get_double("edge-factor");
    p.seed = seed;
    g = graph::rmat(p);
  } else if (type == "er") {
    g = graph::erdos_renyi(static_cast<vid_t>(args.get_int("vertices")),
                           static_cast<eid_t>(args.get_int("edges")), seed);
  } else if (type == "ring") {
    g = graph::ring_of_cliques(static_cast<vid_t>(args.get_int("cliques")),
                               static_cast<vid_t>(args.get_int("clique-size")));
  } else {
    std::fprintf(stderr, "unknown type '%s'\n", type.c_str());
    return 2;
  }

  const std::string out = args.get("out");
  if (ends_with(out, ".bin")) {
    graph::save_binary(g, out);
  } else {
    graph::save_edge_list(g, out);
  }
  std::printf("wrote %s: %s\n", out.c_str(), graph::summary(g).c_str());
  if (const std::string tpath = args.get("truth"); !tpath.empty() && !truth.empty()) {
    std::ofstream f(tpath);
    GALA_CHECK(f.is_open(), "cannot open " << tpath);
    for (vid_t v = 0; v < g.num_vertices(); ++v) f << v << ' ' << truth[v] << '\n';
    std::printf("wrote ground truth to %s\n", tpath.c_str());
  }
  return 0;
}

/// Loads a "vertex community" file (as written by detect --output).
std::vector<cid_t> load_assignment(const std::string& path) {
  std::ifstream in(path);
  GALA_CHECK(in.is_open(), "cannot open assignment file: " << path);
  std::vector<std::pair<vid_t, cid_t>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t v = 0, c = 0;
    GALA_CHECK(static_cast<bool>(ls >> v >> c), "malformed assignment line: " << line);
    rows.emplace_back(static_cast<vid_t>(v), static_cast<cid_t>(c));
  }
  vid_t n = 0;
  for (const auto& [v, c] : rows) n = std::max(n, v + 1);
  std::vector<cid_t> out(n, kInvalidCid);
  for (const auto& [v, c] : rows) out[v] = c;
  for (vid_t v = 0; v < n; ++v) {
    GALA_CHECK(out[v] != kInvalidCid, "assignment missing vertex " << v);
  }
  return out;
}

int cmd_compare(int argc, const char* const* argv) {
  ArgParser args("gala compare",
                 "Compare two community assignments (NMI / ARI / sizes).");
  args.add_positional("a", "first 'vertex community' file")
      .add_positional("b", "second 'vertex community' file");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;
  const auto a = load_assignment(args.get("a"));
  const auto b = load_assignment(args.get("b"));
  GALA_CHECK(a.size() == b.size(), "assignments cover different vertex counts: " << a.size()
                                                                                 << " vs "
                                                                                 << b.size());
  std::printf("vertices: %zu\n", a.size());
  std::printf("communities: %u vs %u\n", core::count_communities(a),
              core::count_communities(b));
  std::printf("NMI: %.5f\n", metrics::nmi(a, b));
  std::printf("ARI: %.5f\n", metrics::adjusted_rand_index(a, b));
  return 0;
}

int cmd_convert(int argc, const char* const* argv) {
  ArgParser args("gala convert", "Convert between text edge lists and binary snapshots.");
  args.add_positional("input", "source graph").add_positional("output", "destination");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;
  const graph::Graph g = load_graph(args.get("input"));
  const std::string out = args.get("output");
  if (ends_with(out, ".bin")) {
    graph::save_binary(g, out);
  } else if (ends_with(out, ".graph") || ends_with(out, ".metis")) {
    graph::save_metis(g, out);
  } else {
    graph::save_edge_list(g, out);
  }
  std::printf("wrote %s: %s\n", out.c_str(), graph::summary(g).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: gala <command> [args]\n"
                 "commands: detect, stats, generate, convert, compare\n"
                 "run 'gala <command> --help' for details\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "detect") return cmd_detect(argc - 1, argv + 1);
    if (cmd == "stats") return cmd_stats(argc - 1, argv + 1);
    if (cmd == "generate") return cmd_generate(argc - 1, argv + 1);
    if (cmd == "convert") return cmd_convert(argc - 1, argv + 1);
    if (cmd == "compare") return cmd_compare(argc - 1, argv + 1);
    std::fprintf(stderr,
                 "unknown command '%s' (detect|stats|generate|convert|compare)\n", cmd.c_str());
    return 2;
  } catch (const gala::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
