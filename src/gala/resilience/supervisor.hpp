// Supervised execution of the GALA pipeline: validation, bounded retry, and
// graceful degradation.
//
// run_louvain_supervised() runs core::run_louvain's level loop through an
// engine that wraps the selected one (core/backend.hpp). Each level's phase
// 1 runs inside a supervision envelope; contraction is the wrapped engine's:
//
//   1. run phase 1, retrying transient faults (resilience::TransientFault,
//      gala::ResourceExhausted, ValidationError) up to max_retries. Retries
//      are counted and emitted as RecoveryEvents.
//   2. degrade — when retries are exhausted the level re-runs on the
//      sequential host path (core/sequential_louvain.hpp): no gpusim, no
//      arena, no scratch, so no injection point can reach it and the ladder
//      terminates. The result may differ slightly from the BSP optimum, so
//      degraded runs report the path taken (SupervisedResult::degraded +
//      events) instead of promising bitwise parity.
//   3. validate — between phases: the level's CSR invariants, assignment
//      well-formedness (size, id bounds), finite/non-negative community
//      weights summing to 2|E|, finite modularity in [-1, 1]. Failures are
//      retryable (they indicate corrupted state).
//   4. health — one monitor (metrics/health.hpp) records each level's
//      trajectory once, tagged with its pipeline level; an aborted attempt's
//      partial trajectory is dropped. Stall / oscillation verdicts become
//      advisory RecoveryEvents.
//
// The loop itself never folds a level whose phase 1 lost modularity
// (core/gala.hpp); when it rejects one, the supervisor reports a rollback.
//
// strict mode disables every recovery path: the first fault is rethrown
// unchanged (chaos suites use this to assert fail-closed behaviour). A
// rejected level is the loop's stop rule, not a fault.
//
// Every recovery decision appends a flight event (retry /
// sequential-fallback), whose per-kind total the run report's flight section
// counts, and is recorded in SupervisedResult::events for the run report.
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
  /// Fail closed: rethrow the first fault, no retry or fallback.
  bool strict = false;
  /// Allow the sequential host-path re-run once retries are exhausted.
  bool sequential_fallback = true;
  /// When non-empty, every recovery decision (retry, validator failure,
  /// sequential fallback, rollback) dumps the flight recorder's merged
  /// event window to this path as a flight-only run report
  /// (metrics/report.hpp). Later dumps overwrite earlier ones, so the file
  /// always holds the window around the *latest* incident; the CLI passes
  /// its --report-out path, which the end-of-run report then overwrites.
  std::string flight_dump_path;
};

/// One recovery decision taken by the supervisor.
struct RecoveryEvent {
  int level = 0;
  int attempt = 0;
  std::string stage;   ///< "phase1", "health", "monotonicity"
  std::string action;  ///< "retry", "sequential-fallback", "advisory", "rollback"
  std::string detail;  ///< the fault/violation message that triggered it
};

struct SupervisedResult {
  core::GalaResult result;
  /// Retries and fallbacks in the order taken, then the health advisories,
  /// then the rollback, if the loop rejected a level.
  std::vector<RecoveryEvent> events;
  int retries = 0;
  /// True when any level ran on a degraded path (sequential fallback).
  bool degraded = false;
  /// True when the loop rejected a level (GalaResult::rejected).
  bool rolled_back = false;
  /// Algorithm-health verdicts, one per level whose phase 1 completed (a
  /// rejected level included; a sequential fallback records none).
  metrics::HealthReport health;
};

// -- Inter-phase validators (throw ValidationError) --------------------------

/// Assignment covers every vertex with an id in [0, V).
void validate_partition(const graph::Graph& g, std::span<const cid_t> community);

/// Per-community total degrees are finite, non-negative, and sum to 2|E|.
void validate_community_weights(const graph::Graph& g, std::span<const cid_t> community);

/// Modularity is finite and within the theoretical [-1, 1] envelope.
void validate_modularity(wt_t q);

/// Structural CSR invariants (delegates to graph::Graph::validate, wrapping
/// its Error as ValidationError).
void validate_csr(const graph::Graph& g);

/// Runs the full multi-level pipeline under supervision, over
/// make_backend(config.backend, config.blas). Level 0 starts from `initial`
/// as in core::run_louvain (a warm start), or from singletons when it is
/// empty.
SupervisedResult run_louvain_supervised(const graph::Graph& g, const core::GalaConfig& config = {},
                                        const SupervisorConfig& sup = {},
                                        std::span<const cid_t> initial = {});

/// Same, supervising `engine` instead.
SupervisedResult run_louvain_supervised(const graph::Graph& g, const core::GalaConfig& config,
                                        const SupervisorConfig& sup, core::LouvainBackend& engine,
                                        std::span<const cid_t> initial = {});

}  // namespace gala::resilience
