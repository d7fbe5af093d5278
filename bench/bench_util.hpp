// Shared helpers for the per-table/figure benchmark harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation on the synthetic stand-in suite. GALA_BENCH_SCALE (default 0.5)
// multiplies all stand-in sizes; raise it for slower, closer-to-paper runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gala/common/json.hpp"
#include "gala/common/table.hpp"
#include "gala/common/timer.hpp"
#include "gala/graph/standin.hpp"
#include "gala/scope/run_scope.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::bench {

inline double scale_from_env(double fallback = 0.5) {
  if (const char* env = std::getenv("GALA_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0) return s;
  }
  return fallback;
}

struct NamedGraph {
  std::string abbr;
  graph::Graph graph;
};

/// Loads the stand-in suite (all seven graphs, or the listed subset).
inline std::vector<NamedGraph> load_suite(double scale,
                                          const std::vector<std::string>& subset = {}) {
  const auto& abbrs = subset.empty() ? graph::standin_abbrs() : subset;
  std::vector<NamedGraph> out;
  out.reserve(abbrs.size());
  for (const auto& a : abbrs) {
    out.push_back({a, graph::make_standin(a, scale)});
  }
  return out;
}

inline void print_header(const std::string& title, const std::string& paper_ref, double scale) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s | stand-in scale %.2f (GALA_BENCH_SCALE)\n\n", paper_ref.c_str(),
              scale);
}

/// Machine-readable sidecar for a bench binary: collects flat key/value rows
/// and writes BENCH_<name>.json next to the stdout table, so per-PR bench
/// trajectories can be tracked by tooling instead of scraped from text.
///
/// Enabled when GALA_BENCH_JSON_DIR names a writable directory (unset =
/// disabled, every call is a no-op). Usage:
///   bench::JsonRecord rec("fig08", scale);
///   rec.row().field("graph", "LJ").field("decide_ms", 12.5);
///   ...
///   rec.save();
class JsonRecord {
 public:
  JsonRecord(std::string name, double scale) : name_(std::move(name)) {
    const char* dir = std::getenv("GALA_BENCH_JSON_DIR");
    if (dir == nullptr || *dir == '\0') return;
    enabled_ = true;
    path_ = std::string(dir) + "/BENCH_" + name_ + ".json";
    // GALA_BENCH_PROFILE=1 additionally captures the per-kernel
    // hardware-counter profile over the bench's lifetime (its own scope's
    // launches plus those of every row folded in) and attaches it to the
    // sidecar as a "profile" member (the perf-diff gate's input).
    if (const char* p = std::getenv("GALA_BENCH_PROFILE");
        p != nullptr && *p != '\0' && std::strcmp(p, "0") != 0) {
      profile_ = &RunScope::current().profiler();
      profile_->set_enabled(true);
    }
    w_.begin_object();
    w_.key("bench").value(name_);
    w_.key("scale").value(scale);
    w_.key("rows").begin_array();
  }

  bool enabled() const { return enabled_; }
  bool profiling() const { return profile_ != nullptr; }
  /// Adds a row scope's kernel profiles to the sidecar's profile.
  void fold(const profiler::Profiler& row) {
    if (profile_ != nullptr) profile_->merge(row);
  }

  /// Begins a new row (closing any open one).
  JsonRecord& row() {
    if (!enabled_) return *this;
    close_row();
    w_.begin_object();
    row_open_ = true;
    return *this;
  }

  JsonRecord& field(const std::string& key, const std::string& value) {
    if (enabled_) w_.key(key).value(value);
    return *this;
  }
  JsonRecord& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonRecord& field(const std::string& key, double value) {
    if (enabled_) w_.key(key).value(value);
    return *this;
  }
  JsonRecord& field(const std::string& key, std::uint64_t value) {
    if (enabled_) w_.key(key).value(value);
    return *this;
  }

  /// Closes the document and writes the file. Idempotent; ~JsonRecord calls
  /// it as a safety net.
  void save() {
    if (!enabled_ || saved_) return;
    close_row();
    w_.end_array();
    if (profile_ != nullptr) {
      w_.key("profile").begin_object();
      profile_->append_report(w_);
      w_.end_object();
    }
    w_.end_object();
    telemetry::write_file(path_, w_.str());
    std::printf("wrote %s\n", path_.c_str());
    saved_ = true;
  }

  ~JsonRecord() { save(); }

 private:
  void close_row() {
    if (row_open_) {
      w_.end_object();
      row_open_ = false;
    }
  }

  std::string name_;
  std::string path_;
  JsonWriter w_;
  profiler::Profiler* profile_ = nullptr;  // the sidecar's profile, when profiling
  bool enabled_ = false;
  bool row_open_ = false;
  bool saved_ = false;
};

/// A fresh run scope for one bench row (or one probe trial), so its memory
/// accounting, flight ring and budget cover that run alone. It is profiled
/// while the sidecar is (the profiler's cycle buffers count toward its
/// peaks); a row that measures a kernel adds its profiles to the sidecar's
/// with JsonRecord::fold.
class RowScope : public RunScope {
 public:
  explicit RowScope(const JsonRecord& rec) { profiler().set_enabled(rec.profiling()); }
};

}  // namespace gala::bench
