// Always-on flight recorder: per-thread fixed-size ring buffers of compact
// binary events, drainable on demand for post-mortem diagnosis.
//
// The recorder answers "what was the solver doing just before it failed?"
// without the cost or volume of full span tracing. Each instrumented site
// appends one 32-byte event (iteration begin/end, decide outcome, prune
// summary, sync post/complete, fault fire, retry, rollback, workspace heap
// allocation, ...) to its thread's ring; the ring overwrites its oldest
// events, so memory is bounded and the last `depth` events per thread are
// always available. The resilience supervisor drains the merged window into
// a post-mortem run report on any validator failure, retry exhaustion, or
// degradation event (docs/resilience.md), and the CLI's --report-out carries
// the same window as its "flight" section.
//
// Each RunScope (gala/scope/run_scope.hpp) owns one recorder, and
// telemetry::flight() appends to the calling thread's current scope.
//
// Cost discipline: the recorder is armed by default, and an armed append is
// a handful of relaxed atomic word stores into a pre-allocated ring — no
// locks, no strings, no allocation (a thread allocates its ring once, on its
// first event). Disarmed, every site pays a single relaxed load, the same
// contract as Tracer and FaultInjector. Because events never touch the
// gpusim cost model, armed recording leaves every modeled counter
// bit-identical (bench/perf_profile.cpp gates this at <= 2% forever).
//
// Concurrency: writers are wait-free and never coordinate; drain() snapshots
// every ring through atomic word loads while writers keep appending, then
// discards any slot the writer could have lapped during the copy. The global
// monotonic event clock (`seq`) gives a total order across threads and
// ranks, which trace_check validates in a report's flight section.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gala::telemetry {

/// Event vocabulary. The a/b payload convention per kind:
///   LevelBegin          a = level,          b = vertices
///   IterationBegin      a = iteration,      b = vertices
///   Prune               a = active,         b = pruned
///   Decide              a = shuffle count,  b = hash count
///   Apply               a = moved,          b = iteration
///   IterationEnd        a = modularity,     b = delta_q
///   SyncPost            a = iteration,      b = bytes shipped
///   SyncComplete        a = iteration,      b = wait_us
///   FaultFire           a = site ordinal,   b = total fires
///   Retry               a = level,          b = attempt
///   SequentialFallback  a = level,          b = attempt
///   Rollback            a = level,          b = rejected modularity
///   ValidatorFail       a = level,          b = attempt
///   WorkspaceAlloc      a = bytes,          b = cumulative heap allocs
///   HealthStall         a = level,          b = first stalled iteration
///   HealthOscillation   a = level,          b = oscillating vertices
///   GovernorRung        a = rung ordinal,   b = projected modeled bytes
///   GovernorShrink      a = new budget,     b = old budget
enum class FlightKind : std::uint16_t {
  LevelBegin = 1,
  IterationBegin,
  Prune,
  Decide,
  Apply,
  IterationEnd,
  SyncPost,
  SyncComplete,
  FaultFire,
  Retry,
  SequentialFallback,
  Rollback,
  ValidatorFail,
  WorkspaceAlloc,
  HealthStall,
  HealthOscillation,
  GovernorRung,
  GovernorShrink,
};

const char* to_string(FlightKind kind);

/// One drained event. `seq` is the global monotonic clock (total order
/// across threads); `tid` is the recorder-assigned dense thread id; `rank`
/// is the multi-GPU rank (-1 outside any rank scope).
struct FlightEvent {
  std::uint64_t seq = 0;
  FlightKind kind{};
  std::uint16_t tid = 0;
  std::int32_t rank = -1;
  double a = 0;
  double b = 0;
};

class FlightRecorder {
 public:
  /// Post-mortem document schema version ("flight_schema").
  static constexpr int kSchema = 1;
  /// Default per-thread ring depth, in events.
  static constexpr std::size_t kDefaultDepth = 4096;

  FlightRecorder();

  /// Fast disarmed check: one relaxed load. Armed by default.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  void arm() { armed_.store(true, std::memory_order_relaxed); }
  void disarm() { armed_.store(false, std::memory_order_relaxed); }

  /// Per-thread ring depth in events (rounded up to a power of two, min 8).
  /// Resizing abandons already-recorded events: threads re-register on their
  /// next append.
  void set_depth(std::size_t events);
  std::size_t depth() const;

  /// Appends one event to the calling thread's ring unless disarmed (one
  /// relaxed load). When `rank` is -1 the ambient RankScope (telemetry.hpp)
  /// is recorded instead.
  void record(FlightKind kind, double a = 0, double b = 0, int rank = -1) {
    if (armed()) append(kind, a, b, rank);
  }

  /// Events ever recorded (including ones since overwritten).
  std::uint64_t recorded() const { return clock_.load(std::memory_order_relaxed); }

  /// Merged snapshot of every thread's ring, sorted by seq. Safe to call
  /// while writers are appending; events a writer lapped mid-copy are
  /// discarded rather than returned torn.
  std::vector<FlightEvent> drain() const;

  /// Forgets all recorded events and restarts the clock. Armed state is
  /// untouched.
  void reset();

  /// The post-mortem document: {"flight_schema":1,"reason":...,"depth":...,
  /// "recorded":...,"dropped":...,"events":[...]} with events sorted by seq.
  /// `last_n` > 0 keeps only the newest n events.
  std::string json(std::string_view reason, std::size_t last_n = 0) const;

 private:
  struct Ring;

  Ring* ring_for_this_thread();
  void append(FlightKind kind, double a, double b, int rank);

  std::atomic<bool> armed_{true};
  const std::uint64_t id_;  // distinguishes recorder instances in the TLS cache
  std::atomic<std::uint64_t> clock_{0};
  /// Packed ring configuration: depth in the low 32 bits, a generation
  /// counter in the high 32. Writers revalidate their cached ring against
  /// this word with one relaxed load per event.
  std::atomic<std::uint64_t> config_;
  std::atomic<std::uint32_t> next_tid_{0};

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Ring>> rings_;
};

}  // namespace gala::telemetry
