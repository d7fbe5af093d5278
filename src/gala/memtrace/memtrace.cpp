#include "gala/memtrace/memtrace.hpp"

#include <algorithm>
#include <utility>

namespace gala::memtrace {

namespace {

std::string_view subsystem_of(std::string_view tag) {
  const auto dot = tag.find('.');
  return dot == std::string_view::npos ? tag : tag.substr(0, dot);
}

}  // namespace

const char* to_string(EpochKind kind) {
  switch (kind) {
    case EpochKind::Iteration:
      return "iteration";
    case EpochKind::Level:
      return "level";
  }
  return "unknown";
}

MemRegistry::Cell& MemRegistry::cell(std::string_view tag) {
  const int rank = telemetry::RankScope::current();
  const std::pair<std::string_view, int> key{tag, rank};
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    it = cells_.emplace(Key{std::string(tag), rank}, Cell{.stream = &streams_[rank]}).first;
  }
  return it->second;
}

void MemRegistry::on_alloc(std::string_view tag, std::uint64_t modeled,
                           std::uint64_t requested, bool workspace, std::uint64_t reserved) {
  std::lock_guard lock(mutex_);
  Cell& c = cell(tag);
  ++c.allocs;
  c.bytes_total += modeled;
  c.live += modeled;
  c.peak = std::max(c.peak, c.live);
  if (modeled > requested) c.waste += modeled - requested;
  c.workspace = c.workspace || workspace;
  c.stream->grow(modeled);
  live_total_.fetch_add(modeled - reserved, std::memory_order_relaxed);
}

void MemRegistry::on_free(std::string_view tag, std::uint64_t modeled) noexcept {
  // Find-only (no node allocation): safe inside noexcept release paths. A
  // release for a tag the registry never saw allocate (armed mid-run) is
  // dropped rather than underflowing.
  std::lock_guard lock(mutex_);
  const std::pair<std::string_view, int> key{tag, telemetry::RankScope::current()};
  const auto it = cells_.find(key);
  if (it == cells_.end()) return;
  Cell& c = it->second;
  ++c.frees;
  const std::uint64_t delta = std::min(c.live, modeled);
  c.live -= delta;
  c.stream->live -= delta;
  live_total_.fetch_sub(delta, std::memory_order_relaxed);
}

void MemRegistry::charge(std::string_view tag, std::uint64_t modeled) {
  std::lock_guard lock(mutex_);
  Cell& c = cell(tag);
  ++c.allocs;
  c.bytes_total += modeled;
  c.peak = std::max(c.peak, modeled);
  c.stream->high_water = std::max(c.stream->high_water, c.stream->live + modeled);
}

void MemRegistry::set_resident(std::string_view tag, std::uint64_t bytes,
                               std::uint64_t reserved) {
  std::lock_guard lock(mutex_);
  Cell& c = cell(tag);
  // Unsigned wrap-around makes this the signed change (bytes - resident -
  // reserved), whichever way the gauge moved.
  live_total_.fetch_add(bytes - c.resident - reserved, std::memory_order_relaxed);
  c.stream->grow(bytes - c.resident);
  c.resident = bytes;
  c.resident_peak = std::max(c.resident_peak, bytes);
}

void MemRegistry::add_resident(std::string_view tag, std::int64_t delta,
                               std::uint64_t reserved) {
  std::lock_guard lock(mutex_);
  Cell& c = cell(tag);
  live_total_.fetch_add(static_cast<std::uint64_t>(delta) - reserved, std::memory_order_relaxed);
  c.resident += static_cast<std::uint64_t>(delta);
  c.stream->grow(static_cast<std::uint64_t>(delta));
  c.resident_peak = std::max(c.resident_peak, c.resident);
}

std::uint64_t MemRegistry::live_subsystem(std::string_view subsys) const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, c] : cells_) {
    if (subsystem_of(key.tag) == subsys) total += c.live + c.resident;
  }
  return total;
}

std::uint64_t MemRegistry::resident_of(std::string_view tag) const {
  std::lock_guard lock(mutex_);
  const std::pair<std::string_view, int> key{tag, telemetry::RankScope::current()};
  const auto it = cells_.find(key);
  return it == cells_.end() ? 0 : it->second.resident;
}

void MemRegistry::note_slack(std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  slack_bytes_ += bytes;
}

void MemRegistry::mark_epoch(EpochKind kind, std::int64_t index) {
  EpochSnapshot snap;
  snap.kind = kind;
  snap.index = index;
  {
    std::lock_guard lock(mutex_);
    // Sum live + resident per subsystem across every rank's cells; cells_
    // is ordered by tag, so subsystems come out sorted and merged.
    for (const auto& [key, c] : cells_) {
      const std::uint64_t bytes = c.live + c.resident;
      if (bytes == 0) continue;
      const std::string_view subsys = subsystem_of(key.tag);
      if (!snap.subsystems.empty() && snap.subsystems.back().first == subsys) {
        snap.subsystems.back().second += bytes;
      } else {
        snap.subsystems.emplace_back(std::string(subsys), bytes);
      }
      snap.total += bytes;
    }
    if (timeline_.size() < kMaxTimeline) {
      timeline_.push_back(snap);
    } else {
      ++timeline_dropped_;
    }
  }
  // Counter emission outside the registry lock: the tracer takes its own.
  if (tracer_ != nullptr && tracer_->enabled()) {
    telemetry::CounterRecord rec;
    rec.name = "memory";
    rec.ts_us = tracer_->now_us();
    rec.rank = telemetry::RankScope::current();
    for (const auto& [name, bytes] : snap.subsystems) {
      rec.values.emplace_back(name, static_cast<double>(bytes));
    }
    tracer_->record_counter(std::move(rec));
  }
}

void MemRegistry::note_level_reset() {
  std::lock_guard lock(mutex_);
  ++level_resets_;
  for (auto& [key, c] : cells_) {
    if (c.live > 0) c.retained = std::max(c.retained, c.live);
  }
}

MemReport MemRegistry::report() const {
  MemReport r;
  r.armed = armed();
  std::lock_guard lock(mutex_);
  // Merge ranks: cells_ is ordered by (tag, rank), so equal tags are
  // adjacent; counts, peaks, and waste sum deterministically.
  std::vector<TagStats> tags;
  for (const auto& [key, c] : cells_) {
    if (tags.empty() || tags.back().name != key.tag) {
      tags.emplace_back();
      tags.back().name = key.tag;
    }
    TagStats& t = tags.back();
    t.allocs += c.allocs;
    t.frees += c.frees;
    t.bytes_total += c.bytes_total;
    t.live += c.live;
    t.peak += c.peak;
    t.waste += c.waste;
    t.resident += c.resident;
    t.resident_peak += c.resident_peak;
    t.retained += c.retained;
    t.workspace = t.workspace || c.workspace;
  }
  // Group merged tags into subsystems (tags are sorted, so prefixes are
  // adjacent too).
  for (auto& t : tags) {
    const std::string_view subsys = subsystem_of(t.name);
    if (r.subsystems.empty() || r.subsystems.back().name != subsys) {
      r.subsystems.emplace_back();
      r.subsystems.back().name = std::string(subsys);
    }
    SubsystemStats& s = r.subsystems.back();
    s.allocs += t.allocs;
    s.bytes_total += t.bytes_total;
    s.live += t.live;
    s.peak += t.peak;
    s.waste += t.waste;
    s.resident += t.resident;
    s.resident_peak += t.resident_peak;
    s.tags.push_back(std::move(t));
  }
  r.timeline = timeline_;
  r.timeline_dropped = timeline_dropped_;
  r.level_resets = level_resets_;
  for (const auto& [rank, s] : streams_) r.peak_live_bytes += s.high_water;
  r.pool_slack_bytes = slack_bytes_;
  return r;
}

// --------------------------------------------------------------------------
// MemReport.

std::uint64_t MemReport::peak_ws_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : subsystems) {
    for (const auto& t : s.tags) {
      if (t.workspace) total += t.peak;
    }
  }
  return total;
}

std::uint64_t MemReport::peak_total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : subsystems) total += s.peak + s.resident_peak;
  return total;
}

std::uint64_t MemReport::live_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : subsystems) total += s.live + s.resident;
  return total;
}

double MemReport::frag_pct() const {
  std::uint64_t waste = 0, charged = 0;
  for (const auto& s : subsystems) {
    waste += s.waste;
    charged += s.bytes_total;
  }
  return charged == 0 ? 0.0
                      : 100.0 * static_cast<double>(waste) / static_cast<double>(charged);
}

std::vector<const TagStats*> MemReport::leaks() const {
  std::vector<const TagStats*> out;
  for (const auto& s : subsystems) {
    for (const auto& t : s.tags) {
      if (t.retained > 0) out.push_back(&t);
    }
  }
  return out;
}

std::string MemReport::json(bool include_host) const {
  JsonWriter w;
  w.begin_object();
  w.key("mem_schema").value(kSchema);
  w.key("armed").value(armed);
  w.key("subsystems").begin_array();
  for (const auto& s : subsystems) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("allocs").value(s.allocs);
    w.key("bytes_total").value(s.bytes_total);
    w.key("live").value(s.live);
    w.key("peak").value(s.peak);
    w.key("waste").value(s.waste);
    w.key("resident").value(s.resident);
    w.key("resident_peak").value(s.resident_peak);
    w.key("tags").begin_array();
    for (const auto& t : s.tags) {
      w.begin_object();
      w.key("name").value(t.name);
      w.key("workspace").value(t.workspace);
      w.key("allocs").value(t.allocs);
      w.key("frees").value(t.frees);
      w.key("bytes_total").value(t.bytes_total);
      w.key("live").value(t.live);
      w.key("peak").value(t.peak);
      w.key("waste").value(t.waste);
      w.key("resident").value(t.resident);
      w.key("resident_peak").value(t.resident_peak);
      w.key("retained").value(t.retained);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("totals").begin_object();
  w.key("peak_ws_bytes").value(peak_ws_bytes());
  w.key("peak_total_bytes").value(peak_total_bytes());
  w.key("peak_live_bytes").value(peak_live_bytes);
  w.key("live_bytes").value(live_bytes());
  w.key("frag_pct").value(frag_pct());
  w.end_object();
  w.key("leak_check").begin_object();
  w.key("level_resets").value(level_resets);
  w.key("clean").value(leak_free());
  w.key("leaked_tags").begin_array();
  for (const TagStats* t : leaks()) {
    w.begin_object();
    w.key("name").value(t->name);
    w.key("retained").value(t->retained);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("timeline").begin_array();
  for (const auto& e : timeline) {
    w.begin_object();
    w.key("kind").value(to_string(e.kind));
    w.key("index").value(static_cast<std::uint64_t>(e.index < 0 ? 0 : e.index));
    w.key("total").value(e.total);
    w.key("subsystems").begin_object();
    for (const auto& [name, bytes] : e.subsystems) w.key(name).value(bytes);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("timeline_dropped").value(timeline_dropped);
  if (include_host) {
    // Host section: actual-slab-capacity facts that depend on pool state
    // (excluded from the byte-identity guarantee).
    w.key("host").begin_object();
    w.key("pool_slack_bytes").value(pool_slack_bytes);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

}  // namespace gala::memtrace
