#include "gala/resilience/supervisor.hpp"

#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "gala/core/modularity.hpp"
#include "gala/core/sequential_louvain.hpp"
#include "gala/metrics/report.hpp"
#include "gala/scope/run_scope.hpp"
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
/// The sweep starts from singletons, but its start modularity is that of
/// `initial`, the partition the level was given (singletons when empty), so
/// the level loop judges it against what the level started from.
core::Phase1Result sequential_host_phase1(const graph::Graph& g, const core::BspConfig& bsp,
                                          std::span<const cid_t> initial) {
  core::SequentialOptions opts;
  opts.resolution = bsp.resolution;
  opts.theta = bsp.theta;
  opts.max_passes_per_level = bsp.max_iterations;
  core::SequentialResult seq = core::sequential_phase1(g, opts);
  core::Phase1Result phase1;
  phase1.community = std::move(seq.assignment);
  phase1.modularity = seq.modularity;
  phase1.num_communities = seq.num_communities;
  std::vector<cid_t> singletons;
  if (initial.empty()) {
    singletons.resize(g.num_vertices());
    std::iota(singletons.begin(), singletons.end(), cid_t{0});
    initial = singletons;
  }
  phase1.start_modularity = core::modularity(g, initial, bsp.resolution);
  return phase1;
}

bool is_transient(const std::exception& e) {
  return dynamic_cast<const TransientFault*>(&e) != nullptr ||
         dynamic_cast<const ResourceExhausted*>(&e) != nullptr ||
         dynamic_cast<const ValidationError*>(&e) != nullptr;
}

/// The supervision envelope around one level of core::run_louvain's loop:
/// retry, sequential fallback, validation and the run's health monitor
/// around `inner`'s phase 1. Contraction is `inner`'s.
class SupervisedEngine final : public core::LouvainBackend {
 public:
  SupervisedEngine(core::LouvainBackend& inner, const SupervisorConfig& sup, SupervisedResult& sr)
      : inner_(inner), sup_(sup), sr_(sr) {}

  const char* name() const override { return inner_.name(); }

  core::Phase1Result run_level(const graph::Graph& g, const core::BspConfig& config,
                               std::span<const cid_t> initial) override {
    const int level = level_++;
    // The monitor observes through the engine's iteration hook without
    // displacing the caller's own.
    core::BspConfig bsp = config;
    bsp.on_iteration = [this, user = config.on_iteration](
                           int iter, const core::IterationStats& stats,
                           std::span<const std::uint8_t> active,
                           std::span<const std::uint8_t> moved, std::span<const cid_t> comm) {
      monitor_.observe(iter, stats, active, moved, comm);
      if (user) user(iter, stats, active, moved, comm);
    };
    for (int attempt = 0;; ++attempt) {
      monitor_.begin_level(level);
      try {
        core::Phase1Result phase1 = inner_.run_level(g, bsp, initial);
        validate_level(g, phase1);
        return phase1;
      } catch (const Error& e) {
        if (dynamic_cast<const ValidationError*>(&e) != nullptr) {
          telemetry::flight(telemetry::FlightKind::ValidatorFail, static_cast<double>(level),
                            static_cast<double>(attempt));
        }
        if (sup_.strict || !is_transient(e)) {
          dump_flight(std::string("fatal: ") + e.what());
          throw;
        }
        if (attempt < sup_.max_retries) {
          telemetry::flight(telemetry::FlightKind::Retry, static_cast<double>(level),
                            static_cast<double>(attempt));
          sr_.events.push_back({level, attempt, "phase1", "retry", e.what()});
          ++sr_.retries;
          RunScope::current().registry().counter("resilience.retries").add(1);
          dump_flight(std::string("retry: ") + e.what());
          continue;
        }
        if (!sup_.sequential_fallback) {
          dump_flight(std::string("retries-exhausted: ") + e.what());
          throw;
        }
        // Last resort: re-run this level on the sequential host path. If the
        // armed plan reaches this path too, the fault propagates — the run
        // fails closed with the injection point named.
        telemetry::ScopedSpan fb_span(RunScope::current().tracer(), "sequential-fallback",
                                      "resilience");
        telemetry::flight(telemetry::FlightKind::SequentialFallback, static_cast<double>(level),
                          static_cast<double>(attempt));
        sr_.events.push_back({level, attempt, "phase1", "sequential-fallback", e.what()});
        RunScope::current().registry().counter("resilience.sequential_fallbacks").add(1);
        sr_.degraded = true;
        dump_flight(std::string("sequential-fallback: ") + e.what());
        monitor_.begin_level(level);  // drop the failed attempt's trajectory
        core::Phase1Result phase1 = sequential_host_phase1(g, config, initial);
        validate_level(g, phase1);
        return phase1;
      }
    }
  }

  core::AggregationResult contract(const graph::Graph& g, std::span<const cid_t> community,
                                   exec::Workspace* workspace) override {
    return inner_.contract(g, community, workspace);
  }

  metrics::HealthReport health() { return monitor_.report(); }

  /// Post-mortem hook: each recovery decision dumps the flight recorder's
  /// merged event window as a flight-only run report. write_postmortem is
  /// noexcept — a dump that cannot be written never masks the incident.
  void dump_flight(const std::string& reason) const {
    if (!sup_.flight_dump_path.empty()) metrics::write_postmortem(sup_.flight_dump_path, reason);
  }

 private:
  static void validate_level(const graph::Graph& g, const core::Phase1Result& phase1) {
    validate_csr(g);
    validate_community_weights(g, phase1.community);
    validate_modularity(phase1.modularity);
  }

  core::LouvainBackend& inner_;
  const SupervisorConfig& sup_;
  SupervisedResult& sr_;
  int level_ = 0;
  metrics::HealthMonitor monitor_;
};

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

void validate_community_weights(const graph::Graph& g, std::span<const cid_t> community) {
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
                                        const SupervisorConfig& sup,
                                        std::span<const cid_t> initial) {
  const std::unique_ptr<core::LouvainBackend> engine =
      core::make_backend(config.backend, config.blas);
  return run_louvain_supervised(g, config, sup, *engine, initial);
}

SupervisedResult run_louvain_supervised(const graph::Graph& g, const core::GalaConfig& config,
                                        const SupervisorConfig& sup, core::LouvainBackend& engine,
                                        std::span<const cid_t> initial) {
  SupervisedResult sr;
  SupervisedEngine envelope(engine, sup, sr);
  sr.result = core::run_louvain(g, config, envelope, initial);

  sr.health = envelope.health();
  for (const metrics::LevelHealth& lv : sr.health.levels) {
    if (lv.stalled) {
      sr.events.push_back({lv.level, 0, "health", "advisory",
                           "stall: gain below epsilon from iteration " +
                               std::to_string(lv.first_stall) + " while vertices still move"});
    }
    if (lv.oscillating_vertices > 0) {
      sr.events.push_back({lv.level, 0, "health", "advisory",
                           std::to_string(lv.oscillating_vertices) + " oscillating vertices (" +
                               std::to_string(lv.oscillation_moves) + " flip-flops)"});
    }
  }

  if (sr.result.rejected) {
    const int level = static_cast<int>(sr.result.levels.size());
    sr.events.push_back({level, 0, "monotonicity", "rollback",
                         "level modularity " + std::to_string(sr.result.rejected->modularity) +
                             " below the held partition's " +
                             std::to_string(sr.result.modularity)});
    RunScope::current().registry().counter("resilience.rollbacks").add(1);
    sr.rolled_back = true;
    envelope.dump_flight("rollback: modularity regressed at level " + std::to_string(level));
  }
  return sr;
}

}  // namespace gala::resilience
