// JSON writer and run reports.
#include <gtest/gtest.h>

#include <fstream>

#include "gala/core/gala.hpp"
#include "gala/metrics/health.hpp"
#include "gala/metrics/report.hpp"
#include "gala/scope/run_scope.hpp"
#include "losing_engine.hpp"
#include "test_util.hpp"

namespace gala {
namespace {

TEST(JsonWriter, NestedStructuresAndCommas) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array().value(1.5).value("x").value(true).end_array();
  w.key("c").begin_object().key("d").value(2).end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[1.5,"x",true],"c":{"d":2}})");
}

TEST(JsonWriter, EscapesStrings) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("quote\"and\\slash").value("line\nbreak\ttab");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"quote\\\"and\\\\slash\":\"line\\nbreak\\ttab\"}");
}

TEST(JsonWriter, MismatchedEndThrows) {
  metrics::JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.end_array(), Error);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(RunReport, ContainsTheKeyFacts) {
  const auto g = testing::small_planted(3, 300, 6, 0.2);
  core::GalaConfig cfg;
  cfg.refine = true;
  const auto result = core::run_louvain(g, cfg);
  const std::string json = metrics::run_section(g, cfg, result, *core::make_backend(cfg.backend));
  EXPECT_NE(json.find("\"backend\":\"bsp\""), std::string::npos);
  EXPECT_NE(json.find("\"pruning\":\"MG\""), std::string::npos);
  EXPECT_NE(json.find("\"refine\":true"), std::string::npos);
  EXPECT_NE(json.find("\"modularity\":"), std::string::npos);
  EXPECT_NE(json.find("\"levels\":["), std::string::npos);
  // Every brace balances.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), std::count(json.begin(), json.end(), '}'));
}

TEST(RunReport, NamesTheRejectedLevel) {
  // The level the loop did not fold ran phase 1 (the health section has
  // it), so the run section names it beside the folded levels.
  const auto g = testing::small_planted();
  testing::LosingEngine engine(/*losing_level=*/1);
  const auto result = core::run_louvain(g, {}, engine);
  const JsonValue run = parse_json(metrics::run_section(g, {}, result, engine)).at("result");
  EXPECT_EQ(run.at("levels").array.size(), 1u);
  EXPECT_EQ(run.at("rejected_level").at("communities").number, 1);
  const auto bsp = core::make_backend(core::Backend::Bsp);
  EXPECT_EQ(parse_json(metrics::run_section(g, {}, core::run_louvain(g), *bsp))
                .at("result")
                .find("rejected_level"),
            nullptr);
}

TEST(RunReport, SavesToDisk) {
  const auto g = testing::two_triangles();
  const auto result = core::run_louvain(g);
  const testing::ScopedTempDir tmp;
  const auto path = tmp.file("run.json");
  metrics::RunReport report;
  report.run = metrics::run_section(g, {}, result, *core::make_backend(core::Backend::Bsp));
  report.save(path);
  const JsonValue doc = parse_json(slurp(path));
  EXPECT_EQ(doc.at("report_schema").number, metrics::RunReport::kSchema);
  EXPECT_EQ(doc.at("run").at("graph").at("vertices").number, 6);
  EXPECT_EQ(doc.find("metrics"), nullptr) << "an empty section must be absent";
  EXPECT_THROW(report.save("/nonexistent-dir/run.json"), Error);
}

TEST(RunReport, PostmortemReportsIoFailureWithoutThrowing) {
  RunScope scope;
  scope.flight().record(telemetry::FlightKind::Apply);
  EXPECT_FALSE(metrics::write_postmortem("/nonexistent-dir/flight.json", "reason"));

  const testing::ScopedTempDir tmp;
  const std::string path = tmp.file("flight_ok.json");
  EXPECT_TRUE(metrics::write_postmortem(path, "reason"));
  const JsonValue doc = parse_json(slurp(path));
  EXPECT_EQ(doc.at("flight").at("reason").string, "reason");
  EXPECT_EQ(doc.at("flight").at("events").array.size(), 1u);
  for (const char* absent : {"run", "metrics", "profile", "health", "mem", "governor"}) {
    EXPECT_EQ(doc.find(absent), nullptr) << absent;
  }
}

TEST(RunReport, GovernorSectionIsAbsentWhenEmpty) {
  memtrace::MemRegistry reg;
  reg.on_alloc("a.b", 64, 64, /*workspace=*/false);
  metrics::RunReport report;
  report.mem = reg.report().json(false);
  JsonValue doc = parse_json(report.json());
  EXPECT_EQ(doc.find("governor"), nullptr)
      << "an ungoverned report must not grow a governor section";
  EXPECT_EQ(doc.at("mem").find("governor"), nullptr) << "the governor section appears once";
  report.governor = "{\"budget_total\":123,\"rung\":\"none\"}";
  doc = parse_json(report.json());
  EXPECT_EQ(doc.at("governor").at("budget_total").number, 123.0);
  EXPECT_EQ(doc.at("governor").at("rung").string, "none");
}

TEST(ProvenanceTest, EveryReportWriterIsStamped) {
  // The run report and the Chrome trace are the two documents written; each
  // carries one stamp, and the sections the report embeds carry none.
  const auto expect_stamp = [](const JsonValue& doc, const std::string& schema) {
    const JsonValue* prov = doc.find("provenance");
    ASSERT_NE(prov, nullptr) << schema << " document has no provenance";
    EXPECT_FALSE(prov->at("git_sha").string.empty());
    EXPECT_FALSE(prov->at("build_type").string.empty());
    EXPECT_EQ(prov->at("schema").string, schema);
    EXPECT_GE(prov->at("schema_version").number, 1);
  };
  RunScope scope;
  expect_stamp(parse_json(scope.tracer().chrome_trace_json()), "trace");

  scope.tracer().set_enabled(true);
  scope.profiler().set_enabled(true);
  scope.governor().install({.total_bytes = 1 << 20});
  metrics::RunReport report;
  report.capture(scope, "test");
  report.health = metrics::HealthMonitor().report().json();
  const JsonValue doc = parse_json(report.json());
  expect_stamp(doc, "report");
  for (const char* section : {"metrics", "profile", "flight", "health", "mem", "governor"}) {
    EXPECT_EQ(doc.at(section).find("provenance"), nullptr) << section;
  }

  const testing::ScopedTempDir tmp;
  const std::string path = tmp.file("postmortem.json");
  ASSERT_TRUE(metrics::write_postmortem(path, "incident"));
  expect_stamp(parse_json(slurp(path)), "report");
}

}  // namespace
}  // namespace gala
