// Span tracing and its machine-readable exporters.
//
// The tracer records nested begin/end spans (wall-clock microseconds plus
// arbitrary numeric payloads such as modeled cycles or memory traffic) from
// any thread. Spans export as Chrome `chrome://tracing` / Perfetto JSON, as
// a flat per-span JSON dump, or as an aggregated summary (the run report's
// "metrics" section). Counts live with the subsystem that owns them: the
// kernel profile, the flight recorder's per-kind totals, the governor, the
// per-iteration stats.
//
// Cost discipline: everything is off by default. When the tracer is
// disabled, ScopedSpan's constructor is a single relaxed atomic load and no
// strings are built — instrumented hot paths pay one predictable branch.
//
// Each RunScope (gala/scope/run_scope.hpp) owns one tracer; instrumented
// code records into the calling thread's current scope.
//
// Usage:
//   auto& tracer = RunScope::current().tracer();
//   tracer.add_sink(std::make_shared<telemetry::ChromeTraceSink>("trace.json"));
//   {
//     telemetry::ScopedSpan span(tracer, "decide", "phase1");
//     span.arg("modeled_cycles", cycles);
//     ...
//   }
//   tracer.flush_sinks();
#pragma once

#include "gala/common/json.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gala::telemetry {

/// Numeric span payload: (key, value) pairs, e.g. {"global_reads", 1234}.
using Args = std::vector<std::pair<std::string, double>>;

/// How the summary folds one span arg over the spans of a (category, name)
/// when summing would be wrong. A ratio names two args of the same span and
/// is recomputed as sum(numerator) / sum(denominator); a state names none
/// and reports its last value, as does a ratio whose parts sum to zero.
/// Args without a rule are amounts and are summed.
struct ArgRollup {
  std::string key;
  std::string numerator;
  std::string denominator;
};

/// Ambient multi-GPU rank for the current thread. A rank's worker thread
/// installs one scope at entry; every span and flight event recorded inside
/// picks the rank up automatically, which is what groups the merged Chrome
/// trace into per-rank tracks. -1 (the default) means "not rank-scoped".
class RankScope {
 public:
  explicit RankScope(int rank) : prev_(current_ref()) { current_ref() = rank; }
  ~RankScope() { current_ref() = prev_; }
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

  static int current() { return current_ref(); }

 private:
  static int& current_ref() {
    thread_local int rank = -1;
    return rank;
  }
  int prev_;
};

/// One completed span. Timestamps are microseconds relative to the owning
/// tracer's epoch (its construction, or the last reset()).
struct SpanRecord {
  std::string name;
  std::string category;
  double start_us = 0;
  double dur_us = 0;
  std::uint32_t tid = 0;   ///< dense per-thread id (not the OS tid)
  std::uint32_t depth = 0; ///< nesting depth within the thread at begin
  std::uint64_t seq = 0;   ///< global begin order
  std::int32_t rank = -1;  ///< ambient RankScope at begin (-1 = none)
  /// Flow-arrow correlation (Chrome "s"/"f" events): flow_out emits a flow
  /// start at this span's end, flow_in a flow finish at its begin. 0 = none.
  /// Used to link post_gather -> complete_gather pairs across a window.
  std::uint64_t flow_out = 0;
  std::uint64_t flow_in = 0;
  Args args;
  std::vector<ArgRollup> rollups;  ///< rules of the args that are not summed
};

/// One counter sample for a Chrome counter ("C") track: named series values
/// at a point in time. memtrace emits these on its "memory" track so byte
/// curves line up with the level/iteration spans.
struct CounterRecord {
  std::string name;        ///< track name (e.g. "memory")
  double ts_us = 0;        ///< tracer-epoch-relative timestamp
  std::int32_t rank = -1;  ///< ambient RankScope at emission (-1 = host)
  Args values;             ///< series name -> sampled value
};

/// Receives completed spans as they end. Implementations must tolerate
/// concurrent on_span calls (the tracer serialises them under its lock, but
/// flush() may race with a manual flush — keep sinks internally locked or
/// flush only after tracing stops).
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_span(const SpanRecord& span) = 0;
  /// Counter samples; sinks without a counter track ignore them.
  virtual void on_counter(const CounterRecord& counter) { (void)counter; }
  /// Writes any buffered output. Called by Tracer::flush_sinks and on tracer
  /// shutdown; must be idempotent.
  virtual void flush() {}
};

/// Buffers spans and writes Chrome-trace/Perfetto JSON on flush(). Open the
/// file via chrome://tracing or https://ui.perfetto.dev.
class ChromeTraceSink : public Sink {
 public:
  explicit ChromeTraceSink(std::string path) : path_(std::move(path)) {}
  ~ChromeTraceSink() override {
    try {
      flush();
    } catch (...) {
    }
  }
  void on_span(const SpanRecord& span) override;
  void on_counter(const CounterRecord& counter) override;
  void flush() override;

 private:
  std::mutex mutex_;
  std::string path_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
  bool dirty_ = false;
};

/// Thread-safe span tracer. Disabled (null-sink) by default: recording costs
/// one relaxed load until a sink is attached or set_enabled(true) is called.
class Tracer {
 public:
  Tracer();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Attaches a sink and enables the tracer.
  void add_sink(std::shared_ptr<Sink> sink);
  /// Flushes buffered sink output (e.g. before reading an exported file).
  void flush_sinks();

  /// Records a completed span (normally via ScopedSpan, not directly).
  void record(SpanRecord&& span);

  /// Records a counter sample (Chrome "C" track). Subject to the same
  /// retention cap as spans; dropped samples count toward dropped().
  void record_counter(CounterRecord&& counter);

  /// Copies out all retained spans, in completion order.
  std::vector<SpanRecord> snapshot() const;
  /// Copies out all retained counter samples, in emission order.
  std::vector<CounterRecord> counters_snapshot() const;
  std::size_t span_count() const;
  /// Spans dropped after the retention cap was hit.
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Forgets retained spans and restarts the clock epoch. Sinks and the
  /// enabled flag are untouched.
  void reset();

  /// Microseconds since the tracer epoch.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }

  std::uint64_t next_seq() { return seq_.fetch_add(1, std::memory_order_relaxed); }

  /// Chrome-trace JSON ({"traceEvents":[...]}) of the retained spans.
  std::string chrome_trace_json() const;
  /// Aggregated per-(category,name) summary of the retained spans: counts,
  /// wall totals, and args folded by their ArgRollup (summed by default).
  std::string summary_json() const;
  /// Writes the summary's "spans" member into an open JSON object.
  void append_summary(JsonWriter& w) const;

  /// Retention cap (default 1M spans); exceeding it increments dropped().
  void set_max_spans(std::size_t cap) { max_spans_ = cap; }

 private:
  using Clock = std::chrono::steady_clock;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> dropped_{0};
  Clock::time_point epoch_;
  std::size_t max_spans_ = 1u << 20;

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
  std::vector<std::shared_ptr<Sink>> sinks_;
};

/// RAII span: begins on construction (if the tracer is enabled), ends and
/// records on destruction. arg() attaches numeric payloads while open.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::string_view category = "phase");
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when the tracer was enabled at construction (payload work can be
  /// skipped otherwise).
  bool active() const { return tracer_ != nullptr; }

  void arg(std::string_view key, double value) {
    if (tracer_ != nullptr) rec_.args.emplace_back(key, value);
  }

  /// An arg the summary reports as its last value: a state, not an amount.
  void last_arg(std::string_view key, double value) {
    if (tracer_ == nullptr) return;
    rec_.args.emplace_back(key, value);
    rec_.rollups.push_back({std::string(key), {}, {}});
  }

  /// A ratio arg: the summary recomputes it as the sum of `numerator` over
  /// the sum of `denominator`, two args this span also carries. With a zero
  /// denominator sum it reports the last value.
  void ratio_arg(std::string_view key, double value, std::string_view numerator,
                 std::string_view denominator) {
    if (tracer_ == nullptr) return;
    rec_.args.emplace_back(key, value);
    rec_.rollups.push_back({std::string(key), std::string(numerator), std::string(denominator)});
  }

  /// Marks this span as the source (flow_out) or destination (flow_in) of a
  /// Chrome flow arrow; both ends must use the same non-zero id.
  void flow_out(std::uint64_t id) {
    if (tracer_ != nullptr) rec_.flow_out = id;
  }
  void flow_in(std::uint64_t id) {
    if (tracer_ != nullptr) rec_.flow_in = id;
  }

 private:
  Tracer* tracer_ = nullptr;  // null when tracing was disabled at construction
  SpanRecord rec_;
};

void write_file(const std::string& path, const std::string& contents);

}  // namespace gala::telemetry
