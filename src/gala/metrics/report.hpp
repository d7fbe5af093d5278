// One run report: every fact a detection run records, in one JSON document.
//
//   {"report_schema":1,"run":{...},"metrics":{...},"profile":{...},
//    "flight":{...},"health":{...},"mem":{...},"governor":{...},
//    "provenance":{...}}
//
// Each section is the object its subsystem renders (Tracer::summary_json,
// Profiler::report_json, FlightRecorder::json, HealthReport::json,
// MemReport::json, Governor::append_json) and carries no stamp of its own;
// the report's one provenance member covers them all. capture() renders the
// observer sections from one RunScope. A section left empty is absent. `gala detect --report-out` writes the full report, the
// supervisor's incident post-mortems write a flight-only one to the same
// path, and tools/trace_check validates either.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "gala/baselines/label_propagation.hpp"
#include "gala/common/json.hpp"
#include "gala/common/scope_handle.hpp"
#include "gala/core/gala.hpp"
#include "gala/graph/csr.hpp"
#include "gala/multigpu/dist_louvain.hpp"

namespace gala::metrics {

struct RunReport {
  static constexpr int kSchema = 1;

  /// Pre-rendered JSON objects, in document order.
  std::string run, metrics, profile, flight, health, mem, governor;

  /// Renders the observer sections from `scope`: flight (tagged `reason`)
  /// and, unless `flight_only`, metrics while the tracer is enabled, profile
  /// while the profiler is, mem while the memory registry is armed and
  /// governor while a budget is installed.
  void capture(RunScope& scope, std::string_view reason, bool flight_only = false);

  std::string json() const;
  /// Writes json() to `path`; throws gala::Error naming the path on failure.
  void save(const std::string& path) const;
};

/// The "run" section of a Louvain detection: graph summary, config
/// highlights, per-level stats and final quality. `engine` is the one that
/// ran (its name is the config's backend); a distributed one adds its device
/// count, overlap and compression.
std::string run_section(const graph::Graph& g, const core::GalaConfig& config,
                        const core::GalaResult& result, const core::LouvainBackend& engine);

/// The "run" section of a label-propagation run scored at `modularity`.
std::string run_section(const graph::Graph& g, const baselines::LpaResult& result,
                        double modularity);

/// Writes a report holding only the current scope's flight window, tagged
/// with `reason`. Returns false and never throws: post-mortems run inside
/// exception handlers, and a dump that cannot be written must not mask the
/// incident it records.
bool write_postmortem(const std::string& path, std::string_view reason) noexcept;

}  // namespace gala::metrics
