#include "gala/telemetry/telemetry.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>

#include "gala/common/error.hpp"
#include "gala/common/provenance.hpp"

namespace gala::telemetry {
namespace {

/// Dense thread ids: assigned on first use, stable for the thread lifetime.
std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Per-thread span nesting depth (shared across tracers; in practice one
/// tracer is live at a time and depth is only used for display/ordering).
std::uint32_t& this_thread_depth() {
  thread_local std::uint32_t depth = 0;
  return depth;
}

void append_args_object(JsonWriter& w, const Args& args) {
  w.begin_object();
  for (const auto& [k, v] : args) w.key(k).value(v);
  w.end_object();
}

}  // namespace

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  GALA_CHECK(out.is_open(), "cannot open " << path << " for writing");
  out << contents << '\n';
  GALA_CHECK(out.good(), "write failure: " << path);
}

// --------------------------------------------------------------------------
// Sinks.

void ChromeTraceSink::on_span(const SpanRecord& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
  dirty_ = true;
}

void ChromeTraceSink::on_counter(const CounterRecord& counter) {
  std::lock_guard lock(mutex_);
  counters_.push_back(counter);
  dirty_ = true;
}

namespace {

/// Rank-scoped spans render on their own process track: pid = rank + 1, so
/// pid 0 stays the host/unscoped track and rank r is track r + 1.
int chrome_pid(const SpanRecord& s) { return s.rank >= 0 ? s.rank + 1 : 0; }

void append_chrome_events(JsonWriter& w, const std::vector<SpanRecord>& spans,
                          const std::vector<CounterRecord>& counters) {
  w.key("traceEvents").begin_array();
  std::set<int> pids;
  // Counter ("C") events first: each sample renders a stacked byte curve on
  // its named track (memtrace's "memory"), aligned with the span timeline.
  for (const auto& c : counters) {
    const int pid = c.rank >= 0 ? c.rank + 1 : 0;
    w.begin_object();
    w.key("name").value(c.name);
    w.key("cat").value("memory");
    w.key("ph").value("C");
    w.key("ts").value(c.ts_us);
    w.key("pid").value(pid);
    w.key("tid").value(std::uint64_t{0});
    w.key("args");
    append_args_object(w, c.values);
    w.end_object();
  }
  for (const auto& s : spans) {
    const int pid = chrome_pid(s);
    pids.insert(pid);
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(s.category);
    w.key("ph").value("X");
    w.key("ts").value(s.start_us);
    w.key("dur").value(s.dur_us);
    w.key("pid").value(pid);
    w.key("tid").value(static_cast<std::uint64_t>(s.tid));
    w.key("args");
    append_args_object(w, s.args);
    w.end_object();
    // Flow arrows bind to the enclosing slice: the start rides the posting
    // span's end, the finish the completing span's begin. Viewers draw one
    // arrow per id from "s" to "f" (post_gather -> complete_gather).
    if (s.flow_out != 0) {
      w.begin_object();
      w.key("name").value("gather");
      w.key("cat").value("flow");
      w.key("ph").value("s");
      w.key("id").value(s.flow_out);
      w.key("ts").value(s.start_us + s.dur_us);
      w.key("pid").value(pid);
      w.key("tid").value(static_cast<std::uint64_t>(s.tid));
      w.end_object();
    }
    if (s.flow_in != 0) {
      w.begin_object();
      w.key("name").value("gather");
      w.key("cat").value("flow");
      w.key("ph").value("f");
      w.key("bp").value("e");
      w.key("id").value(s.flow_in);
      w.key("ts").value(s.start_us);
      w.key("pid").value(pid);
      w.key("tid").value(static_cast<std::uint64_t>(s.tid));
      w.end_object();
    }
  }
  // Name the per-rank tracks so the merged trace reads "rank 0..P-1" rather
  // than bare pid numbers. Host-only traces (no rank-scoped span anywhere)
  // skip the metadata and keep the legacy single-track shape.
  if (pids.size() == 1 && *pids.begin() == 0) pids.clear();
  for (const int pid : pids) {
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("ts").value(0.0);
    w.key("pid").value(pid);
    w.key("args").begin_object();
    w.key("name").value(pid == 0 ? std::string("host") : "rank " + std::to_string(pid - 1));
    w.end_object();
    w.end_object();
    w.begin_object();
    w.key("name").value("process_sort_index");
    w.key("ph").value("M");
    w.key("ts").value(0.0);
    w.key("pid").value(pid);
    w.key("args").begin_object();
    w.key("sort_index").value(pid);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
}

}  // namespace

void ChromeTraceSink::flush() {
  std::lock_guard lock(mutex_);
  if (!dirty_) return;
  JsonWriter w;
  w.begin_object();
  append_chrome_events(w, spans_, counters_);
  provenance::append(w, "trace", 1);
  w.end_object();
  write_file(path_, w.str());
  dirty_ = false;
}

// --------------------------------------------------------------------------
// Tracer.

Tracer::Tracer() : epoch_(Clock::now()) {}

void Tracer::add_sink(std::shared_ptr<Sink> sink) {
  {
    std::lock_guard lock(mutex_);
    sinks_.push_back(std::move(sink));
  }
  set_enabled(true);
}

void Tracer::flush_sinks() {
  std::vector<std::shared_ptr<Sink>> sinks;
  {
    std::lock_guard lock(mutex_);
    sinks = sinks_;
  }
  for (const auto& s : sinks) s->flush();
}

void Tracer::record(SpanRecord&& span) {
  std::lock_guard lock(mutex_);
  for (const auto& s : sinks_) s->on_span(span);
  if (spans_.size() < max_spans_) {
    spans_.push_back(std::move(span));
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Tracer::record_counter(CounterRecord&& counter) {
  std::lock_guard lock(mutex_);
  for (const auto& s : sinks_) s->on_counter(counter);
  if (counters_.size() < max_spans_) {
    counters_.push_back(std::move(counter));
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<CounterRecord> Tracer::counters_snapshot() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

void Tracer::reset() {
  std::lock_guard lock(mutex_);
  spans_.clear();
  counters_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = Clock::now();
}

std::string Tracer::chrome_trace_json() const {
  std::vector<SpanRecord> spans = snapshot();
  // Chrome renders complete events fine in any order, but a stable begin-time
  // order makes the file diffable.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) { return a.seq < b.seq; });
  JsonWriter w;
  w.begin_object();
  append_chrome_events(w, spans, counters_snapshot());
  provenance::append(w, "trace", 1);
  w.end_object();
  return w.str();
}

void Tracer::append_summary(JsonWriter& w) const {
  struct Agg {
    std::uint64_t count = 0;
    double wall_ms = 0;
    std::map<std::string, double> sums;
    std::map<std::string, double> last;
    std::map<std::string, ArgRollup> rules;
  };
  std::map<std::string, Agg> byname;
  for (const auto& s : snapshot()) {
    Agg& a = byname[s.category + "/" + s.name];
    ++a.count;
    a.wall_ms += s.dur_us / 1e3;
    for (const auto& [k, v] : s.args) {
      a.sums[k] += v;
      a.last[k] = v;
    }
    for (const auto& r : s.rollups) a.rules.try_emplace(r.key, r);
  }
  w.key("spans").begin_object();
  for (const auto& [key, a] : byname) {
    const auto sum_of = [&a](const std::string& k) {
      const auto it = a.sums.find(k);
      return it == a.sums.end() ? 0.0 : it->second;
    };
    w.key(key).begin_object();
    w.key("count").value(a.count);
    w.key("wall_ms").value(a.wall_ms);
    w.key("args").begin_object();
    for (const auto& [k, sum] : a.sums) {
      double v = sum;
      if (const auto rule = a.rules.find(k); rule != a.rules.end()) {
        const double den = sum_of(rule->second.denominator);
        v = den != 0 ? sum_of(rule->second.numerator) / den : a.last.at(k);
      }
      w.key(k).value(v);
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
}

std::string Tracer::summary_json() const {
  JsonWriter w;
  w.begin_object();
  append_summary(w);
  w.end_object();
  return w.str();
}

// --------------------------------------------------------------------------
// ScopedSpan.

ScopedSpan::ScopedSpan(Tracer& tracer, std::string_view name, std::string_view category) {
  if (!tracer.enabled()) return;  // the one branch a disabled hot path pays
  tracer_ = &tracer;
  rec_.name.assign(name);
  rec_.category.assign(category);
  rec_.tid = this_thread_id();
  rec_.rank = RankScope::current();
  rec_.depth = this_thread_depth()++;
  rec_.seq = tracer.next_seq();
  rec_.start_us = tracer.now_us();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  rec_.dur_us = tracer_->now_us() - rec_.start_us;
  --this_thread_depth();
  tracer_->record(std::move(rec_));
}

}  // namespace gala::telemetry
