// Deterministic, seeded fault injection for the GALA pipeline.
//
// A FaultPlan is a list of rules, each naming an injection *site* (kernel
// launch, shared-memory allocation, hashtable global-scratch growth, or a
// multi-GPU collective), an optional label substring (kernel name, policy
// name), an optional rank, and a firing schedule (skip the first N matching
// hits, then fire up to M times, each with a seeded deterministic
// probability). Plans load from JSON (schema in docs/resilience.md) or are
// built programmatically by tests.
//
// Each RunScope (gala/scope/run_scope.hpp) owns one injector; a plan armed
// on it fires only inside that scope's run.
//
// Cost discipline (same as telemetry): when no plan is armed, every
// instrumented site pays exactly one relaxed atomic load and a predicted
// branch — no strings, no locks, no allocation. Sites are wired via
// resilience::maybe_inject() (run_scope.hpp; throwing sites: gpusim launches,
// arena allocation, scratch growth) or should_fire() (non-throwing sites: the
// Communicator corrupts / drops payloads itself so the fault is *detected*
// rather than thrown).
//
// Determinism: a rule's firing decision depends only on (plan seed, rule
// index, per-rule hit count). Rules evaluated from a single call site — or
// from a rank-filtered collective site — fire identically run after run;
// probability < 1 on a site reached concurrently from many threads is
// deterministic in *count* but not in which thread observes the fault.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gala/common/error.hpp"
#include "gala/telemetry/flight_recorder.hpp"

namespace gala::resilience {

/// Retryable injected failure (kernel launch died, collective failed). The
/// run supervisor retries these with backoff before degrading.
class TransientFault : public Error {
 public:
  using Error::Error;
};

enum class FaultSite {
  KernelLaunch,       ///< gpusim::Device::launch entry
  SharedAlloc,        ///< SharedMemoryArena::allocate (simulated exhaustion)
  ScratchGrow,        ///< NeighborCommunityTable global-scratch growth
  CollectiveDrop,     ///< a rank's collective contribution is lost
  CollectiveTimeout,  ///< a rank stalls past the collective deadline
  CollectiveCorrupt,  ///< a rank's payload is corrupted on the wire
  BudgetShrink,       ///< the governor's memory budget is cut mid-run
};

std::string to_string(FaultSite site);
/// Inverse of to_string; throws gala::Error on an unknown name.
FaultSite fault_site_from_string(std::string_view name);

struct FaultRule {
  FaultSite site = FaultSite::KernelLaunch;
  /// Substring match on the site label (kernel name, policy, collective
  /// name); empty matches everything.
  std::string label;
  /// Collective sites only: fire on this rank (-1 = any rank).
  int rank = -1;
  /// Seeded per-hit firing probability in [0, 1].
  double probability = 1.0;
  /// Matching hits to let pass before the rule may fire.
  int skip_first = 0;
  /// Cap on total fires (-1 = unlimited).
  int max_fires = -1;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  /// Parses the JSON schema documented in docs/resilience.md.
  static FaultPlan from_json(std::string_view text);
  /// Reads and parses a plan file.
  static FaultPlan load(const std::string& path);
  std::string to_json() const;
};

/// A run scope's injector. Disarmed by default; arm() installs a plan and
/// flips the fast-path flag that every instrumented site checks. Each fire
/// appends a flight event to `flight`.
class FaultInjector {
 public:
  explicit FaultInjector(telemetry::FlightRecorder& flight) : flight_(flight) {}

  /// Fast disarmed check: a single relaxed load (the only cost instrumented
  /// sites pay in production).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  void arm(FaultPlan plan);

  /// Evaluates the plan for one site hit; true when a rule fires. `fired_rule`
  /// (optional) receives a copy of the winning rule. Safe to call when
  /// disarmed (returns false).
  bool should_fire(FaultSite site, std::string_view label, int rank = -1,
                   FaultRule* fired_rule = nullptr);

  /// Throwing form for sites whose natural failure is an exception: kernel
  /// launches throw TransientFault; shared-memory allocation and
  /// global-scratch growth throw gala::ResourceExhausted (the same type a
  /// real overflow raises, so degradation paths treat both identically).
  void inject_throw(FaultSite site, std::string_view label);

  /// Total fires since the last arm().
  std::uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }

 private:
  telemetry::FlightRecorder& flight_;
  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  FaultPlan plan_;
  std::vector<std::uint64_t> hits_;   // per-rule matching-hit count
  std::vector<std::uint64_t> fired_;  // per-rule fire count
  std::atomic<std::uint64_t> fires_{0};
};

}  // namespace gala::resilience
