// RunScope — the observers one run owns: the span tracer, the instrument
// registry, the flight recorder, the memory registry, the memory governor,
// the kernel profiler and the fault injector. Two runs in one process (two
// tests, an ingest epoch beside a detect) never share a counter, a flight
// ring, a budget or a fault plan.
//
// Propagation has one route: the scope installed on the calling thread
// (common/scope_handle.hpp). Constructing a RunScope installs it on the
// constructing thread until it is destroyed; ThreadPool runs each call's
// chunks under the caller's scope, and distributed rank threads enter the
// scope of the thread that spawned them. Code outside any installed scope
// records into one process-default scope. A scope starts as the defaults
// always were: flight and memory recorders armed, tracer and profiler off,
// no fault plan, no budget.
//
// The memtrace::, telemetry::flight and resilience::maybe_inject wrappers
// below are the instrumented sites' entry points; each costs one
// thread-local load plus the observer's own disarmed check.
#pragma once

#include <cstdint>
#include <string_view>

#include "gala/common/scope_handle.hpp"
#include "gala/governor/governor.hpp"
#include "gala/memtrace/memtrace.hpp"
#include "gala/profiler/profiler.hpp"
#include "gala/resilience/fault_injection.hpp"
#include "gala/telemetry/flight_recorder.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala {

class RunScope {
 public:
  /// A fresh scope, installed on the constructing thread until destruction
  /// (on the same thread), which restores the scope it displaced.
  RunScope();
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  /// The scope installed on the calling thread, else the process default.
  static RunScope& current() {
    RunScope* scope = EnterScope::installed();
    return scope != nullptr ? *scope : process_default();
  }

  telemetry::Tracer& tracer() { return tracer_; }
  telemetry::Registry& registry() { return registry_; }
  telemetry::FlightRecorder& flight() { return flight_; }
  memtrace::MemRegistry& memory() { return memory_; }
  governor::Governor& governor() { return governor_; }
  profiler::Profiler& profiler() { return profiler_; }
  resilience::FaultInjector& faults() { return faults_; }

  /// Budget admission, before the bytes go live: with no budget one relaxed
  /// load and 0; else the governor charges `bytes` to the live total and
  /// returns them, and a `may_throw` site (a Workspace checkout) may be
  /// refused with gala::ResourceExhausted instead.
  std::uint64_t admit(std::string_view tag, std::uint64_t bytes, bool may_throw) {
    return governor_.enabled() ? governor_.admit(tag, bytes, may_throw) : 0;
  }

 private:
  static RunScope& process_default();

  // Declaration order is construction order: each observer is built after
  // the ones it records into.
  telemetry::Tracer tracer_;
  telemetry::Registry registry_;
  telemetry::FlightRecorder flight_;
  memtrace::MemRegistry memory_{&tracer_};
  profiler::Profiler profiler_{registry_};
  resilience::FaultInjector faults_{registry_, flight_};
  governor::Governor governor_{memory_, registry_, flight_, faults_};
  RunScope* prev_ = nullptr;  // the scope this one displaced on its thread
};

namespace telemetry {
/// Appends to the current scope's flight recorder.
inline void flight(FlightKind kind, double a = 0, double b = 0, int rank = -1) {
  RunScope::current().flight().record(kind, a, b, rank);
}
}  // namespace telemetry

namespace resilience {
/// Fires the current scope's fault plan at a throwing site, if one is armed.
inline void maybe_inject(FaultSite site, std::string_view label) {
  FaultInjector& faults = RunScope::current().faults();
  if (faults.armed()) faults.inject_throw(site, label);
}
}  // namespace resilience

namespace memtrace {
inline void on_free(std::string_view tag, std::uint64_t modeled) noexcept {
  MemRegistry& memory = RunScope::current().memory();
  if (memory.armed()) memory.on_free(tag, modeled);
}
/// A transient: live only while it is admitted.
inline void charge(std::string_view tag, std::uint64_t modeled) {
  RunScope& scope = RunScope::current();
  scope.memory().release(scope.admit(tag, modeled, /*may_throw=*/false));
  if (scope.memory().armed()) scope.memory().charge(tag, modeled);
}
inline void set_resident(std::string_view tag, std::uint64_t bytes) {
  RunScope& scope = RunScope::current();
  MemRegistry& memory = scope.memory();
  std::uint64_t admitted = 0;
  if (scope.governor().enabled()) {
    // live_total already includes this gauge's current value — admit only
    // the increase, or a re-set each level (e.g. "graph.contraction")
    // double-counts the old value and escalates the ladder spuriously. A
    // shrinking re-set is a release and can never be refused.
    const std::uint64_t current = memory.resident_of(tag);
    admitted = scope.admit(tag, bytes > current ? bytes - current : 0, /*may_throw=*/false);
  }
  if (memory.armed()) {
    memory.set_resident(tag, bytes, admitted);
  } else {
    memory.release(admitted);
  }
}
inline void mark_epoch(EpochKind kind, std::int64_t index) {
  MemRegistry& memory = RunScope::current().memory();
  if (memory.armed()) memory.mark_epoch(kind, index);
}
}  // namespace memtrace

}  // namespace gala
