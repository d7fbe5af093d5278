// gala::governor — enforceable memory budgets with a deterministic
// graceful-degradation ladder.
//
// The memtrace registry answers "where do the bytes live"; the governor
// turns that accounting into an enforceable contract. Each RunScope owns one
// governor beside its registry; installing a budget makes the scope's
// memtrace:: wrappers admit through it before any modeled bytes go live
// (Workspace checkouts, one-shot charges, resident gauges). An admission
// charges the registry's live total in one atomic step, so concurrent
// admissions (distributed ranks) see each other's bytes.
// Instead of failing at the wall, the governor walks a degradation ladder,
// each rung trading performance for footprint while preserving bit-identical
// partitions:
//
//   rung 1  reclaim-slabs     trim idle pooled Workspace slabs (host bytes;
//                             the modeled charge is unchanged — this rung
//                             frees the slack the pool was hoarding)
//   rung 2  global-only-hash  downgrade Hierarchical hashtables to
//                             GlobalOnly (PR 3's exact-parity fallback), so
//                             shared-arena pages stop being charged; the
//                             blas SpGEMM likewise swaps its dense SPA (C
//                             slots per thread) for the sorted-merge pair
//                             buffer (at most C/4 pairs, half the bytes;
//                             upper triangle plus scatters either way)
//   rung 3  sparse-sync       force sparse+compressed sync staging in the
//                             distributed engine (snapshot at level grain so
//                             every rank agrees on collective shapes)
//   rung 4  chunked-frontier  process the phase-1 decide frontier through a
//                             bounded window instead of materialising the
//                             whole active list
//   rung 5  host-fallback     the floor: refuse the checkout by throwing
//                             ResourceExhausted, which the resilience
//                             supervisor retries and then degrades to the
//                             sequential host path
//
// Determinism: every decision keys off *modeled* bytes (live checked-out +
// resident), never host capacities, so a fixed (graph, config, budget)
// triple walks the same rungs in the same order run after run under
// sequential launches. Rungs are sticky — the ladder only escalates, never
// de-escalates mid-run — so rung events in flight dumps are monotonically
// non-decreasing, which trace_check validates in a report's flight section.
//
// Thresholds: rungs 1-4 engage at 80/85/90/95% projected utilisation. They
// have to engage *below* the wall because each rung only shrinks future
// allocations; waiting for an overrun would collapse the whole ladder into
// the rung-5 throw. The throw itself fires only on may-throw admissions
// (Workspace checkouts, where unwinding is clean); charges and resident
// gauges observe-and-escalate but never throw mid-collective.
//
// Fault site: `budget-shrink` (gala::resilience) cuts the budget mid-run to
// max(live, budget/2) on a seeded FaultPlan schedule, exercising the
// supervisor's retry/rollback machinery under genuine memory pressure.
//
// Cost discipline: with no budget, every allocation site pays one relaxed load.
// Installed, an admission is an atomic add, a couple of relaxed loads and a
// compare; the mutex is only taken on escalation, shrink, and reclaim — all
// rare.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gala/common/error.hpp"
#include "gala/common/json.hpp"
#include "gala/memtrace/memtrace.hpp"
#include "gala/resilience/fault_injection.hpp"
#include "gala/telemetry/flight_recorder.hpp"

namespace gala::governor {

/// Degradation ladder rungs, ordered by severity. The governor's current
/// rung is the highest it has escalated to; flags for rungs 2-4 are derived
/// (rung() >= that rung).
enum class Rung : std::uint8_t {
  None = 0,
  ReclaimSlabs = 1,
  GlobalOnlyHash = 2,
  SparseSync = 3,
  ChunkedFrontier = 4,
  HostFallback = 5,
};

const char* to_string(Rung rung);

struct BudgetConfig {
  /// Hard modeled-bytes budget; 0 means unlimited (governor still observes).
  std::uint64_t total_bytes = 0;
  /// Optional per-subsystem caps, keyed by tag prefix ("phase1", "gpusim",
  /// ...). A cap overrun escalates the ladder exactly like the total.
  std::vector<std::pair<std::string, std::uint64_t>> subsystem_caps{};
  /// Decide-frontier window applied at rung 4 (vertices per kernel launch).
  std::size_t frontier_chunk = 4096;
};

/// One ladder escalation, recorded for the report.
struct RungTransition {
  Rung rung = Rung::None;
  std::uint64_t projected = 0;  ///< modeled bytes that triggered it
  std::uint64_t budget = 0;     ///< budget in force at that moment
};

/// A run scope's budget enforcer. Install once per scope (CLI --mem-budget,
/// tests, bench probes); every memtrace-instrumented allocation site of the
/// scope then funnels through admit(). It charges `memory`, records rung
/// events in `flight` and evaluates the budget-shrink site of `faults`, all
/// of the same scope.
class Governor {
 public:
  Governor(memtrace::MemRegistry& memory, telemetry::FlightRecorder& flight,
           resilience::FaultInjector& faults)
      : memory_(memory), flight_(flight), faults_(faults) {}

  /// True when a budget is installed (one relaxed load).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Installs `config`, once per scope; the budget holds until the scope
  /// ends. Budgets must be enforceable, so the scope's memory registry is
  /// armed as a side effect (modeled live bytes are the enforcement input).
  void install(BudgetConfig config);

  /// Admission of `bytes` modeled bytes under `tag`: charges them to the
  /// registry's live total and returns the bytes left charged (0 when no
  /// budget is installed), which the allocation's accounting must not
  /// charge again. Escalates the ladder when projected utilisation crosses a
  /// threshold; on a may-throw site whose projected total still exceeds the
  /// budget after reclaim, the floor gives the bytes back and throws
  /// gala::ResourceExhausted. Non-throwing sites record the overrun and
  /// escalate only. Evaluates the `budget-shrink` fault site.
  std::uint64_t admit(std::string_view tag, std::uint64_t bytes, bool may_throw);

  Rung rung() const { return static_cast<Rung>(rung_.load(std::memory_order_relaxed)); }
  /// Rung 2+: decide kernels must run the GlobalOnly hashtable policy.
  bool force_global_only() const { return rung() >= Rung::GlobalOnlyHash; }
  /// Rung 2+: the blas SpGEMM must trade its dense SPA (C slots per thread)
  /// for the sorted-merge accumulator's pair buffer (at most C/4 pairs, half
  /// the bytes). Results are bit-identical — only footprint and traffic
  /// change.
  bool force_sorted_accumulator() const { return rung() >= Rung::GlobalOnlyHash; }
  /// Rung 3+: the distributed engine must use sparse+compressed staging.
  bool force_sparse_sync() const { return rung() >= Rung::SparseSync; }
  /// Rung 4+: the decide-frontier window, in vertices; 0 when unchunked.
  std::size_t frontier_chunk() const {
    return rung() >= Rung::ChunkedFrontier ? chunk_.load(std::memory_order_relaxed) : 0;
  }

  std::uint64_t budget_total() const { return total_.load(std::memory_order_relaxed); }
  /// Cuts the budget to `new_total` (the budget-shrink fault path, also
  /// callable directly by tests). Never raises it.
  void shrink_budget(std::uint64_t new_total);

  /// Registers a slab reclaimer (Workspace::trim) under `key`; rung 1
  /// invokes every registered reclaimer once per escalation. The callback
  /// returns host bytes freed. Reclaimers run under the governor mutex, so
  /// they must be brief and must never call back into the governor.
  void register_reclaimer(const void* key, std::function<std::uint64_t()> fn);
  /// Removes `key`'s reclaimer. Blocks until any in-flight invocation has
  /// drained (invocations hold the same mutex), so the callback's captures
  /// may be destroyed as soon as this returns — ~ExecutionContext relies on
  /// this to unregister a reclaimer that captures the dying context.
  void unregister_reclaimer(const void* key);

  /// Statistics for the report (deterministic under sequential launches).
  std::uint64_t admits() const { return admits_.load(std::memory_order_relaxed); }
  std::uint64_t denials() const { return denials_.load(std::memory_order_relaxed); }
  std::uint64_t shrinks() const { return shrinks_.load(std::memory_order_relaxed); }
  std::uint64_t reclaims() const { return reclaims_.load(std::memory_order_relaxed); }
  /// Host bytes the reclaimers have freed, over every reclaim.
  std::uint64_t reclaimed_bytes() const {
    return reclaimed_bytes_.load(std::memory_order_relaxed);
  }

  /// Writes the run report's "governor" members into an open JSON object:
  /// budget, current rung, counts, and the ordered transition list.
  void append_json(JsonWriter& w) const;

 private:
  void escalate_to(Rung target, std::uint64_t projected, std::uint64_t budget);
  std::uint64_t run_reclaimers();
  void maybe_shrink(std::string_view tag);

  memtrace::MemRegistry& memory_;
  telemetry::FlightRecorder& flight_;
  resilience::FaultInjector& faults_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> initial_total_{0};
  std::atomic<std::uint8_t> rung_{0};
  std::atomic<std::size_t> chunk_{4096};
  std::atomic<std::uint64_t> admits_{0};
  std::atomic<std::uint64_t> denials_{0};
  std::atomic<std::uint64_t> shrinks_{0};
  std::atomic<std::uint64_t> reclaims_{0};
  std::atomic<std::uint64_t> reclaimed_bytes_{0};

  mutable std::mutex mutex_;  // escalation, reclaimers, caps, transitions
  std::vector<std::pair<std::string, std::uint64_t>> subsystem_caps_;
  std::vector<std::pair<const void*, std::function<std::uint64_t()>>> reclaimers_;
  std::vector<RungTransition> transitions_;
};

/// Binary-searches the smallest budget in [granularity, hi] for which
/// `feasible` holds, assuming feasibility is monotone in the budget. Throws
/// gala::Error naming `hi` when even `hi` (rounded up to a granule) is
/// infeasible: there is no floor to report. `feasible` typically runs the
/// full solve under an installed budget and checks completion + partition
/// parity + peak <= budget (see bench/perf_profile.cpp and the CLI's
/// --probe-min-budget).
std::uint64_t min_feasible_budget(std::uint64_t hi,
                                  const std::function<bool(std::uint64_t)>& feasible,
                                  std::uint64_t granularity = 4096);

}  // namespace gala::governor
