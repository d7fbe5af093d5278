// Supervised execution of the GALA pipeline: checkpoints, validation,
// bounded retry, and graceful degradation.
//
// run_louvain_supervised() mirrors core::run_louvain's level loop but wraps
// each level in a supervision envelope:
//
//   1. checkpoint — before a level runs, the best composed assignment so far
//      (plus its community weights and modularity) is retained as the
//      rollback target ("dendrogram cursor": how deep the accepted hierarchy
//      goes).
//   2. run phase 1, retrying transient faults (resilience::TransientFault,
//      gala::ResourceExhausted, ValidationError) up to max_retries with
//      exponential backoff. Retries are counted and emitted as
//      RecoveryEvents.
//   3. degrade — when retries are exhausted the level re-runs on the
//      sequential host path (core/sequential_louvain.hpp): no gpusim, no
//      arena, no scratch, so no injection point can reach it and the ladder
//      terminates. The result may differ slightly from the BSP optimum, so
//      degraded runs report the path taken (SupervisedResult::degraded +
//      events) instead of promising bitwise parity.
//   4. validate — between phases: assignment well-formedness (size, id
//      bounds), finite/non-negative community weights, finite modularity in
//      [-1, 1]. Failures are retryable (they indicate corrupted state).
//   5. monotonicity guard — a level whose modularity falls more than q_slack
//      below the best prior level is rejected and the run rolls back to the
//      best checkpoint instead of folding the bad partition in.
//
// strict mode disables every recovery path: the first fault is rethrown
// unchanged (chaos suites use this to assert fail-closed behaviour).
//
// Every recovery decision increments a telemetry counter
// (resilience.retries / sequential_fallbacks / rollbacks) and is recorded in
// SupervisedResult::events for the run report.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "gala/core/gala.hpp"
#include "gala/metrics/health.hpp"
#include "gala/resilience/fault_injection.hpp"

namespace gala::resilience {

/// An inter-phase invariant did not hold (corrupted assignment, non-finite
/// weights, out-of-range modularity). Retryable under supervision.
class ValidationError : public Error {
 public:
  using Error::Error;
};

struct SupervisorConfig {
  /// Transient-fault retries per level before degrading.
  int max_retries = 2;
  /// Backoff before retry r sleeps backoff_base_ms << r (0 = no sleep; the
  /// simulated faults need no cool-down, real deployments would set this).
  int backoff_base_ms = 0;
  /// Fail closed: rethrow the first fault, no retry / fallback / rollback.
  bool strict = false;
  /// Allow the sequential host-path re-run once retries are exhausted.
  bool sequential_fallback = true;
  /// Validate inter-phase invariants (cheap: O(V) per level).
  bool validate = true;
  /// Modularity-monotonicity tolerance before a rollback triggers.
  double q_slack = 1e-9;
  /// When non-empty, every recovery decision (retry, validator failure,
  /// sequential fallback, rollback) dumps the flight recorder's merged
  /// event window to this path as a flight-only run report
  /// (metrics/report.hpp). Later dumps overwrite earlier ones, so the file
  /// always holds the window around the *latest* incident; the CLI passes
  /// its --report-out path, which the end-of-run report then overwrites.
  std::string flight_dump_path;
  /// Keep only the newest N events per dump (0 = the full window).
  std::size_t flight_dump_depth = 0;
  /// Run the algorithm-health monitor (metrics/health.hpp) over every
  /// level's iteration trajectory and record stall / oscillation verdicts
  /// as advisory RecoveryEvents (stage "health", action "advisory"). Purely
  /// observational: advisories never trigger retries or rollbacks.
  bool health_advisory = true;
};

/// One recovery decision taken by the supervisor (chronological).
struct RecoveryEvent {
  int level = 0;
  int attempt = 0;
  std::string stage;   ///< "phase1", "validate", "monotonicity"
  std::string action;  ///< "retry", "sequential-fallback", "rollback"
  std::string detail;  ///< the fault/violation message that triggered it
};

/// A restorable snapshot of the accepted hierarchy: the composed assignment
/// after `level` folds, its per-community total degrees D_V(C) on the
/// original graph, and its modularity.
struct Checkpoint {
  int level = -1;  ///< dendrogram cursor: folds accepted so far
  std::vector<cid_t> assignment;
  std::vector<wt_t> community_weights;
  wt_t modularity = -1;
};

struct SupervisedResult {
  core::GalaResult result;
  std::vector<RecoveryEvent> events;
  int retries = 0;
  /// True when any level ran on a degraded path (sequential fallback).
  bool degraded = false;
  /// True when the monotonicity guard rejected a level.
  bool rolled_back = false;
  /// Algorithm-health verdicts per accepted attempt (only populated when
  /// SupervisorConfig::health_advisory is on). Retried attempts restart the
  /// level trajectory, so the report reflects the attempt that stuck.
  metrics::HealthReport health;
};

// -- Inter-phase validators (throw ValidationError) --------------------------

/// Assignment covers every vertex with an id in [0, V).
void validate_partition(const graph::Graph& g, std::span<const cid_t> community);

/// Per-community total degrees are finite, non-negative, and sum to 2|E|.
/// Returns the computed weights (reused for checkpoints).
std::vector<wt_t> validate_community_weights(const graph::Graph& g,
                                             std::span<const cid_t> community);

/// Modularity is finite and within the theoretical [-1, 1] envelope.
void validate_modularity(wt_t q);

/// Structural CSR invariants (delegates to graph::Graph::validate, wrapping
/// its Error as ValidationError).
void validate_csr(const graph::Graph& g);

/// Runs the full multi-level pipeline under supervision.
SupervisedResult run_louvain_supervised(const graph::Graph& g, const core::GalaConfig& config = {},
                                        const SupervisorConfig& sup = {});

}  // namespace gala::resilience
