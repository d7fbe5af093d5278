#include "gala/resilience/supervisor.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "gala/common/timer.hpp"
#include "gala/core/aggregation.hpp"
#include "gala/core/modularity.hpp"
#include "gala/core/refinement.hpp"
#include "gala/core/sequential_louvain.hpp"
#include "gala/core/vertex_following.hpp"
#include "gala/metrics/health.hpp"
#include "gala/metrics/report.hpp"
#include "gala/telemetry/flight_recorder.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::resilience {

namespace {

/// The last-resort level re-run: the reference sequential Louvain sweep on
/// the host (core/sequential_louvain.hpp). It shares no code with the gpusim
/// substrate — no kernel launches, no shared-memory arena, no hashtable
/// scratch — so no injection point can reach it and the degradation ladder
/// terminates. Vertex-at-a-time greedy with immediate updates typically
/// lands on a (slightly different) local optimum, which is why degraded runs
/// report the path taken instead of promising bitwise modularity parity.
core::Phase1Result sequential_host_phase1(const graph::Graph& g, const core::BspConfig& bsp) {
  core::SequentialOptions opts;
  opts.resolution = bsp.resolution;
  opts.theta = bsp.theta;
  opts.max_passes_per_level = bsp.max_iterations;
  core::SequentialResult seq = core::sequential_phase1(g, opts);
  core::Phase1Result phase1;
  phase1.community = std::move(seq.assignment);
  phase1.modularity = seq.modularity;
  phase1.num_communities = seq.num_communities;
  return phase1;
}

bool is_transient(const std::exception& e) {
  return dynamic_cast<const TransientFault*>(&e) != nullptr ||
         dynamic_cast<const ResourceExhausted*>(&e) != nullptr ||
         dynamic_cast<const ValidationError*>(&e) != nullptr;
}

}  // namespace

void validate_partition(const graph::Graph& g, std::span<const cid_t> community) {
  if (community.size() != g.num_vertices()) {
    GALA_THROW(ValidationError, "assignment size " << community.size() << " != vertex count "
                                                   << g.num_vertices());
  }
  for (std::size_t v = 0; v < community.size(); ++v) {
    if (community[v] >= g.num_vertices()) {
      GALA_THROW(ValidationError, "assignment[" << v << "] = " << community[v]
                                                << " out of range [0, " << g.num_vertices()
                                                << ")");
    }
  }
}

std::vector<wt_t> validate_community_weights(const graph::Graph& g,
                                             std::span<const cid_t> community) {
  validate_partition(g, community);
  std::vector<wt_t> totals(g.num_vertices(), 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) totals[community[v]] += g.degree(v);
  wt_t sum = 0;
  for (std::size_t c = 0; c < totals.size(); ++c) {
    const wt_t w = totals[c];
    if (!std::isfinite(w) || w < 0) {
      GALA_THROW(ValidationError, "community " << c << " has invalid total degree " << w);
    }
    sum += w;
  }
  const wt_t two_m = 2 * g.total_weight();
  if (two_m > 0 && std::abs(sum - two_m) > 1e-6 * two_m) {
    GALA_THROW(ValidationError,
               "community degrees sum to " << sum << ", expected 2|E| = " << two_m);
  }
  return totals;
}

void validate_modularity(wt_t q) {
  if (!std::isfinite(q) || q < -1.0 || q > 1.0) {
    GALA_THROW(ValidationError, "modularity " << q << " outside [-1, 1]");
  }
}

void validate_csr(const graph::Graph& g) {
  try {
    g.validate();
  } catch (const Error& e) {
    GALA_THROW(ValidationError, "CSR invariant violated: " << e.what());
  }
}

SupervisedResult run_louvain_supervised(const graph::Graph& g, const core::GalaConfig& config,
                                        const SupervisorConfig& sup) {
  using core::AggregationResult;
  using core::Phase1Result;

  if (config.vertex_following) {
    // Same preprocessing recursion as core::run_louvain: contraction is
    // modularity-exact, so supervision of the reduced run covers the whole.
    core::VertexFollowingResult vf = core::follow_vertices(g);
    core::GalaConfig inner = config;
    inner.vertex_following = false;
    SupervisedResult sr = run_louvain_supervised(vf.reduced, inner, sup);
    sr.result.assignment = core::expand_assignment(vf, sr.result.assignment);
    sr.result.num_communities = core::renumber_communities(sr.result.assignment);
    return sr;
  }

  SupervisedResult sr;
  core::GalaResult& result = sr.result;
  Timer total_timer;

  auto& retries_counter = telemetry::Registry::global().counter("resilience.retries");
  auto& fallback_counter = telemetry::Registry::global().counter("resilience.sequential_fallbacks");
  auto& rollback_counter = telemetry::Registry::global().counter("resilience.rollbacks");

  // Post-mortem hook: each recovery decision dumps the flight recorder's
  // merged event window as a flight-only run report. write_postmortem is
  // noexcept — a dump that cannot be written never masks the incident.
  auto dump_flight = [&sup](const std::string& reason) {
    if (sup.flight_dump_path.empty()) return;
    metrics::write_postmortem(sup.flight_dump_path, reason, sup.flight_dump_depth);
  };

  // Health advisory: a fresh monitor per phase-1 attempt (each attempt is
  // one engine run == one level trajectory), observed through the engine's
  // iteration callback without displacing the caller's own hook.
  core::BspConfig bsp = config.bsp;
  metrics::HealthMonitor* live_monitor = nullptr;
  if (sup.health_advisory) {
    core::IterationCallback user = config.bsp.on_iteration;
    bsp.on_iteration = [&live_monitor, user](int iter, const core::IterationStats& stats,
                                             std::span<const std::uint8_t> active,
                                             std::span<const std::uint8_t> moved,
                                             std::span<const cid_t> comm) {
      if (live_monitor != nullptr) live_monitor->observe(iter, stats, active, moved, comm);
      if (user) user(iter, stats, active, moved, comm);
    };
  }

  const vid_t n = g.num_vertices();
  result.assignment.resize(n);
  for (vid_t v = 0; v < n; ++v) result.assignment[v] = v;

  const graph::Graph* current = &g;
  graph::Graph owned;
  wt_t prev_q = -1;  // any first level is an improvement

  // The rollback target: the best accepted hierarchy so far. Level -1 is the
  // singleton partition (every vertex its own community).
  Checkpoint best;
  best.assignment = result.assignment;
  best.modularity = prev_q;

  for (int level = 0; level < config.max_levels; ++level) {
    telemetry::ScopedSpan level_span(telemetry::Tracer::global(), "supervised-level", "pipeline");
    Timer level_timer;

    // ---- phase 1 under retry/degradation ----------------------------------
    Phase1Result phase1;
    bool level_ok = false;
    std::optional<metrics::HealthMonitor> attempt_monitor;
    for (int attempt = 0; !level_ok; ++attempt) {
      try {
        if (sup.health_advisory) {
          attempt_monitor.emplace();
          live_monitor = &*attempt_monitor;
        }
        phase1 = core::bsp_phase1(*current, bsp);
        if (sup.validate) {
          validate_partition(*current, phase1.community);
          validate_modularity(phase1.modularity);
        }
        level_ok = true;
      } catch (const Error& e) {
        if (dynamic_cast<const ValidationError*>(&e) != nullptr) {
          telemetry::flight(telemetry::FlightKind::ValidatorFail, static_cast<double>(level),
                            static_cast<double>(attempt));
        }
        if (sup.strict || !is_transient(e)) {
          dump_flight(std::string("fatal: ") + e.what());
          throw;
        }
        if (attempt < sup.max_retries) {
          telemetry::flight(telemetry::FlightKind::Retry, static_cast<double>(level),
                            static_cast<double>(attempt));
          sr.events.push_back({level, attempt, "phase1", "retry", e.what()});
          ++sr.retries;
          retries_counter.add(1);
          dump_flight(std::string("retry: ") + e.what());
          if (sup.backoff_base_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(static_cast<long>(sup.backoff_base_ms) << attempt));
          }
          continue;
        }
        if (!sup.sequential_fallback) {
          dump_flight(std::string("retries-exhausted: ") + e.what());
          throw;
        }
        // Last resort: re-run this level on the sequential host path. If the
        // armed plan reaches this path too, the fault propagates — the run
        // fails closed with the injection point named.
        telemetry::ScopedSpan fb_span(telemetry::Tracer::global(), "sequential-fallback",
                                      "resilience");
        telemetry::flight(telemetry::FlightKind::SequentialFallback, static_cast<double>(level),
                          static_cast<double>(attempt));
        sr.events.push_back({level, attempt, "phase1", "sequential-fallback", e.what()});
        fallback_counter.add(1);
        sr.degraded = true;
        dump_flight(std::string("sequential-fallback: ") + e.what());
        if (sup.health_advisory) {
          // The failed BSP attempt may have fed the monitor a partial
          // trajectory; the sequential path reports no iterations, so start
          // clean rather than misattribute the aborted attempt.
          attempt_monitor.emplace();
          live_monitor = &*attempt_monitor;
        }
        phase1 = sequential_host_phase1(*current, config.bsp);
        if (sup.validate) {
          validate_partition(*current, phase1.community);
          validate_modularity(phase1.modularity);
        }
        level_ok = true;
      }
    }

    // ---- health advisory on the attempt that stuck ------------------------
    if (sup.health_advisory && attempt_monitor.has_value()) {
      live_monitor = nullptr;
      metrics::HealthReport attempt_health = attempt_monitor->report();
      sr.health.config = attempt_health.config;
      for (metrics::LevelHealth lv : attempt_health.levels) {
        lv.level = level;  // the monitor numbers attempts; renumber to the pipeline level
        if (lv.stalled) {
          sr.events.push_back({level, 0, "health", "advisory",
                               "stall: gain below epsilon from iteration " +
                                   std::to_string(lv.first_stall) + " while vertices still move"});
        }
        if (lv.oscillating_vertices > 0) {
          sr.events.push_back({level, 0, "health", "advisory",
                               std::to_string(lv.oscillating_vertices) +
                                   " oscillating vertices (" +
                                   std::to_string(lv.oscillation_moves) + " flip-flops)"});
        }
        sr.health.levels.push_back(std::move(lv));
      }
    }

    if (level == 0 && config.keep_first_round) result.first_round = phase1;
    if (level_span.active()) {
      level_span.last_arg("level", static_cast<double>(level));
      level_span.arg("vertices", static_cast<double>(current->num_vertices()));
      level_span.last_arg("modularity", phase1.modularity);
    }

    core::GalaLevel lv;
    lv.vertices = current->num_vertices();
    lv.communities = phase1.num_communities;
    lv.modularity = phase1.modularity;
    lv.iterations = static_cast<int>(phase1.iterations.size());
    result.modeled_ms += phase1.modeled_ms();

    // ---- monotonicity guard ----------------------------------------------
    if (level > 0 && phase1.modularity < prev_q - sup.q_slack) {
      if (sup.strict) {
        GALA_THROW(ValidationError, "modularity regressed at level "
                                        << level << ": " << phase1.modularity << " < " << prev_q);
      }
      telemetry::flight(telemetry::FlightKind::Rollback, static_cast<double>(level),
                        phase1.modularity);
      sr.events.push_back({level, 0, "monotonicity", "rollback",
                           "level modularity " + std::to_string(phase1.modularity) +
                               " below best " + std::to_string(best.modularity)});
      rollback_counter.add(1);
      dump_flight("rollback: modularity regressed at level " + std::to_string(level));
      sr.rolled_back = true;
      result.assignment = best.assignment;
      prev_q = best.modularity;
      break;
    }

    // ---- convergence / fold (mirrors core::run_louvain) -------------------
    if (level > 0 && phase1.modularity - prev_q < config.level_theta) {
      const AggregationResult last = core::aggregate(*current, phase1.community);
      result.assignment = core::compose_assignment(result.assignment, last.fine_to_coarse);
      prev_q = phase1.modularity;
      lv.wall_seconds = level_timer.seconds();
      result.levels.push_back(lv);
      break;
    }
    prev_q = phase1.modularity;

    AggregationResult agg;
    if (config.refine) {
      core::RefinementResult refined = core::refine_partition(
          *current, phase1.community, config.bsp.resolution, config.bsp.seed ^ (level + 1));
      agg = core::aggregate(*current, refined.refined);
    } else {
      agg = core::aggregate(*current, phase1.community);
    }
    result.assignment = core::compose_assignment(result.assignment, agg.fine_to_coarse);
    lv.wall_seconds = level_timer.seconds();
    result.levels.push_back(lv);

    // ---- checkpoint the accepted fold -------------------------------------
    if (prev_q > best.modularity) {
      best.level = level;
      best.assignment = result.assignment;
      best.modularity = prev_q;
      if (sup.validate) {
        best.community_weights = validate_community_weights(g, result.assignment);
        validate_csr(agg.coarse);
      }
    }

    if (agg.num_communities == current->num_vertices()) break;  // no compression
    owned = std::move(agg.coarse);
    current = &owned;
  }

  result.num_communities = core::renumber_communities(result.assignment);
  result.modularity = prev_q;
  result.wall_seconds = total_timer.seconds();
  return sr;
}

}  // namespace gala::resilience
