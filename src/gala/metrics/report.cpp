#include "gala/metrics/report.hpp"

#include <fstream>

#include "gala/common/provenance.hpp"
#include "gala/graph/stats.hpp"
#include "gala/scope/run_scope.hpp"

namespace gala::metrics {

namespace {

/// Opens the run section with its "graph" member.
void begin_run(JsonWriter& w, const graph::Graph& g) {
  w.begin_object();
  w.key("graph").begin_object();
  w.key("vertices").value(static_cast<std::uint64_t>(g.num_vertices()));
  w.key("edges").value(static_cast<std::uint64_t>(g.num_edges()));
  w.key("total_weight").value(g.total_weight());
  w.key("max_out_degree").value(static_cast<std::uint64_t>(g.max_out_degree()));
  w.end_object();
}

}  // namespace

void RunReport::capture(RunScope& scope, std::string_view reason, bool flight_only) {
  flight = scope.flight().json(reason);
  if (flight_only) return;
  if (scope.tracer().enabled()) metrics = telemetry::metrics_json(scope.tracer(), scope.registry());
  if (scope.profiler().enabled()) profile = scope.profiler().report_json();
  if (scope.memory().armed()) mem = scope.memory().report().json();
  if (scope.governor().enabled()) {
    JsonWriter w;
    w.begin_object();
    scope.governor().append_json(w);
    w.end_object();
    governor = w.str();
  }
}

std::string RunReport::json() const {
  JsonWriter w;
  w.begin_object();
  w.key("report_schema").value(kSchema);
  const std::pair<const char*, const std::string*> sections[] = {
      {"run", &run},       {"metrics", &metrics}, {"profile", &profile}, {"flight", &flight},
      {"health", &health}, {"mem", &mem},         {"governor", &governor}};
  for (const auto& [name, body] : sections) {
    if (!body->empty()) w.key(name).raw(*body);
  }
  provenance::append(w, "report", kSchema);
  w.end_object();
  return w.str();
}

void RunReport::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  GALA_CHECK(out.is_open(), "cannot write run report: " << path);
  out << json() << '\n';
  GALA_CHECK(out.good(), "short write on run report: " << path);
}

std::string run_section(const graph::Graph& g, const core::GalaConfig& config,
                        const core::GalaResult& result, const core::LouvainBackend& engine) {
  JsonWriter w;
  begin_run(w, g);

  w.key("config").begin_object();
  w.key("backend").value(engine.name());
  w.key("pruning").value(core::to_string(config.bsp.pruning));
  w.key("kernel").value(core::to_string(config.bsp.kernel));
  w.key("hashtable").value(core::to_string(config.bsp.hashtable));
  w.key("weight_update").value(core::to_string(config.bsp.weight_update));
  w.key("resolution").value(config.bsp.resolution);
  w.key("theta").value(config.bsp.theta);
  w.key("refine").value(config.refine);
  w.key("vertex_following").value(config.vertex_following);
  if (const auto* dist = dynamic_cast<const multigpu::DistributedBackend*>(&engine)) {
    w.key("devices").value(static_cast<std::uint64_t>(dist->exchange().num_gpus));
    w.key("overlap").value(dist->exchange().overlap);
    w.key("compress").value(dist->exchange().compress);
  }
  w.end_object();

  w.key("result").begin_object();
  w.key("modularity").value(result.modularity);
  w.key("communities").value(static_cast<std::uint64_t>(result.num_communities));
  w.key("wall_seconds").value(result.wall_seconds);
  w.key("modeled_ms").value(result.modeled_ms);
  const auto cs = graph::community_stats(g, result.assignment);
  w.key("largest_community").value(static_cast<std::uint64_t>(cs.largest));
  w.key("coverage").value(cs.coverage);
  const auto write_level = [&w](const core::GalaLevel& lv) {
    w.begin_object();
    w.key("vertices").value(static_cast<std::uint64_t>(lv.vertices));
    w.key("communities").value(static_cast<std::uint64_t>(lv.communities));
    w.key("modularity").value(lv.modularity);
    w.key("iterations").value(lv.iterations);
    w.end_object();
  };
  w.key("levels").begin_array();
  for (const auto& lv : result.levels) write_level(lv);
  w.end_array();
  if (result.rejected) {
    w.key("rejected_level");
    write_level(*result.rejected);
  }
  w.end_object();

  w.end_object();
  return w.str();
}

std::string run_section(const graph::Graph& g, const baselines::LpaResult& result,
                        double modularity) {
  JsonWriter w;
  begin_run(w, g);
  w.key("result").begin_object();
  w.key("modularity").value(modularity);
  w.key("communities").value(static_cast<std::uint64_t>(result.num_communities));
  w.key("iterations").value(result.iterations);
  w.end_object();
  w.end_object();
  return w.str();
}

bool write_postmortem(const std::string& path, std::string_view reason) noexcept {
  try {
    RunReport report;
    report.capture(RunScope::current(), reason, /*flight_only=*/true);
    report.save(path);
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace gala::metrics
