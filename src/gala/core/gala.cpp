#include "gala/core/gala.hpp"

#include <memory>

#include "gala/common/timer.hpp"
#include "gala/core/aggregation.hpp"
#include "gala/core/modularity.hpp"
#include "gala/core/refinement.hpp"
#include "gala/core/vertex_following.hpp"
#include "gala/scope/run_scope.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::core {

GalaResult run_louvain(const graph::Graph& g, const GalaConfig& config,
                       std::span<const cid_t> initial) {
  const std::unique_ptr<LouvainBackend> engine = make_backend(config.backend, config.blas);
  return run_louvain(g, config, *engine, initial);
}

GalaResult run_louvain(const graph::Graph& g, const GalaConfig& config, LouvainBackend& engine,
                       std::span<const cid_t> initial) {
  if (config.vertex_following) {
    GALA_CHECK(initial.empty(), "a warm start cannot be combined with vertex following");
    // Preprocess: merge pendant vertices, solve the reduced instance, and
    // expand. Contraction preserves modularity exactly (see
    // vertex_following.hpp), so the reported Q transfers unchanged.
    VertexFollowingResult vf;
    {
      telemetry::ScopedSpan vf_span(RunScope::current().tracer(), "vertex-following", "pipeline");
      vf = follow_vertices(g);
      if (vf_span.active()) {
        vf_span.arg("vertices", static_cast<double>(g.num_vertices()));
        vf_span.arg("reduced_vertices", static_cast<double>(vf.reduced.num_vertices()));
      }
    }
    GalaConfig inner = config;
    inner.vertex_following = false;
    GalaResult result = run_louvain(vf.reduced, inner, engine);
    result.assignment = expand_assignment(vf, result.assignment);
    result.num_communities = renumber_communities(result.assignment);
    return result;
  }

  GalaResult result;
  Timer total_timer;

  // One execution context per pipeline run: every level's engine draws from
  // the same pooled workspace (level N+1 recycles level N's slabs), and
  // reset_level() marks the level boundaries for the epoch trap and the
  // per-level high-water mark. Callers may pre-bind their own context.
  std::unique_ptr<exec::ExecutionContext> owned_ctx;
  GalaConfig cfg = config;
  if (cfg.bsp.context == nullptr) {
    owned_ctx = std::make_unique<exec::ExecutionContext>(cfg.bsp.device, cfg.bsp.seed);
    cfg.bsp.context = owned_ctx.get();
  }
  exec::Workspace& ws = cfg.bsp.context->workspace();
  // Contraction runs on the phase-1 engines' pool: the context's, or inline
  // on this thread when the run is sequential.
  ThreadPool* const pool = cfg.bsp.parallel ? &cfg.bsp.context->pool() : nullptr;

  const vid_t n = g.num_vertices();
  result.assignment.resize(n);
  for (vid_t v = 0; v < n; ++v) result.assignment[v] = v;

  const graph::Graph* current = &g;
  graph::Graph owned;
  wt_t prev_q = -1;  // any first level is an improvement
  bool held_refined = false;  // the held partition is a refined fold, not phase 1's
  memtrace::set_resident("graph.csr", g.memory_bytes());

  for (int level = 0; level < cfg.max_levels; ++level) {
    telemetry::ScopedSpan level_span(RunScope::current().tracer(), "level", "pipeline");
    telemetry::flight(telemetry::FlightKind::LevelBegin, static_cast<double>(level),
                      static_cast<double>(current->num_vertices()));
    Timer level_timer;
    // The partition this level starts from: the warm start at level 0,
    // singletons (empty) after.
    const std::span<const cid_t> start = level == 0 ? initial : std::span<const cid_t>{};
    Phase1Result phase1 = engine.run_level(*current, cfg.bsp, start);
    if (level == 0 && config.keep_first_round) result.first_round = phase1;
    if (level_span.active()) {
      level_span.last_arg("level", static_cast<double>(level));
      level_span.arg("vertices", static_cast<double>(current->num_vertices()));
      level_span.last_arg("communities", static_cast<double>(phase1.num_communities));
      level_span.last_arg("modularity", phase1.modularity);
    }

    GalaLevel lv;
    lv.vertices = current->num_vertices();
    lv.communities = phase1.num_communities;
    lv.modularity = phase1.modularity;
    lv.iterations = static_cast<int>(phase1.iterations.size());
    result.modeled_ms += phase1.modeled_ms();

    if (phase1.modularity < phase1.start_modularity) {
      // Synchronous moves can lose modularity. Folding this partition would
      // hand back a worse one than the level started from, so fold that one.
      telemetry::flight(telemetry::FlightKind::Rollback, static_cast<double>(level),
                        phase1.modularity);
      if (start.empty()) {
        // Singletons do not compress: the run ends on the partition it held.
        lv.wall_seconds = level_timer.seconds();
        result.rejected = std::move(lv);
        memtrace::mark_epoch(memtrace::EpochKind::Level, level);
        break;
      }
      phase1.community.assign(start.begin(), start.end());
      phase1.modularity = phase1.start_modularity;
      lv.communities = count_communities(phase1.community);
      lv.modularity = phase1.modularity;
    }
    const bool converged = level > 0 && phase1.modularity - prev_q < cfg.level_theta;
    prev_q = phase1.modularity;

    // The partition this level folds: phase 1's, or its refinement. A
    // converged level folds phase 1's so the reported assignment matches the
    // reported modularity exactly (matters when refinement made the
    // previously-folded partition finer than phase 1's).
    RefinementResult refined;
    std::span<const cid_t> folded = phase1.community;
    vid_t folded_count = lv.communities;
    if (!converged && cfg.refine) {
      telemetry::ScopedSpan refine_span(RunScope::current().tracer(), "refine", "phase2");
      refined = refine_partition(*current, phase1.community, cfg.bsp.resolution,
                                 cfg.bsp.seed ^ (level + 1));
      folded = refined.refined;
      folded_count = refined.num_subcommunities;
    }
    // A level that ends the run only renumbers its fold: nothing reads the
    // coarse graph it would contract to.
    const bool compressed = folded_count < current->num_vertices();
    const bool last = converged || !compressed || level + 1 == cfg.max_levels;
    AggregationResult agg;
    if (last) {
      agg = fold(folded, &ws);
    } else {
      telemetry::ScopedSpan agg_span(RunScope::current().tracer(), "aggregate", "phase2");
      agg = engine.contract(*current, folded, &ws, pool);
    }
    GALA_CHECK(agg.num_communities == folded_count,
               "level " << level << " folds " << agg.num_communities << " communities, its engine "
                        << "counted " << folded_count);
    result.assignment = compose_assignment(result.assignment, agg.fine_to_coarse);
    held_refined = cfg.refine && !converged;
    lv.wall_seconds = level_timer.seconds();
    lv.fold = std::move(agg.fine_to_coarse);
    result.levels.push_back(std::move(lv));
    memtrace::mark_epoch(memtrace::EpochKind::Level, level);

    if (last) break;
    owned = std::move(agg.coarse);
    current = &owned;
    // Level boundary: no lease is outstanding here (the engine and the
    // aggregation scratch are gone), so the epoch bump only arms the
    // use-after-reset trap and snapshots the level high-water mark.
    ws.reset_level();
  }

  result.num_communities = renumber_communities(result.assignment);
  // prev_q measured the last phase-1 partition. The run may hold another:
  // the one before a rejected level, or a refined fold when max_levels or a
  // non-compressing level ended the run. Audit the held one then.
  result.modularity = result.rejected || held_refined
                          ? modularity(g, result.assignment, cfg.bsp.resolution)
                          : prev_q;
  result.wall_seconds = total_timer.seconds();
  result.workspace = ws.stats();
  return result;
}

}  // namespace gala::core
