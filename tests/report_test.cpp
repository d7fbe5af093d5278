// JSON writer and run reports, plus the distributed full pipeline.
#include <gtest/gtest.h>

#include <fstream>

#include "gala/core/gala.hpp"
#include "gala/metrics/report.hpp"
#include "gala/multigpu/dist_louvain.hpp"
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

TEST(RunReport, ContainsTheKeyFacts) {
  const auto g = testing::small_planted(3, 300, 6, 0.2);
  core::GalaConfig cfg;
  cfg.refine = true;
  const auto result = core::run_louvain(g, cfg);
  const std::string json = metrics::run_report_json(g, cfg, result);
  EXPECT_NE(json.find("\"pruning\":\"MG\""), std::string::npos);
  EXPECT_NE(json.find("\"refine\":true"), std::string::npos);
  EXPECT_NE(json.find("\"modularity\":"), std::string::npos);
  EXPECT_NE(json.find("\"levels\":["), std::string::npos);
  // Every brace balances.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), std::count(json.begin(), json.end(), '}'));
}

TEST(RunReport, SavesToDisk) {
  const auto g = testing::two_triangles();
  const auto result = core::run_louvain(g);
  const testing::ScopedTempDir tmp;
  const auto path = tmp.file("run.json");
  metrics::save_run_report(g, {}, result, path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"vertices\":6"), std::string::npos);
}

TEST(DistributedFull, MatchesSingleDevicePipelineQuality) {
  const auto g = testing::small_planted(7, 1200, 12, 0.2);
  const auto single = core::run_louvain(g);
  multigpu::DistributedConfig cfg;
  cfg.num_gpus = 4;
  const auto dist = multigpu::distributed_louvain(g, cfg);
  EXPECT_NEAR(dist.modularity, single.modularity, 0.02);
  EXPECT_NEAR(dist.modularity, core::modularity(g, dist.assignment), 1e-9);
  EXPECT_GT(dist.levels, 1);
  EXPECT_GT(dist.modeled_ms, 0.0);
}

TEST(DistributedFull, DeterministicAcrossDeviceCounts) {
  const auto g = testing::small_planted(9, 600, 8, 0.25);
  multigpu::DistributedConfig two, eight;
  two.num_gpus = 2;
  eight.num_gpus = 8;
  const auto a = multigpu::distributed_louvain(g, two);
  const auto b = multigpu::distributed_louvain(g, eight);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.modularity, b.modularity);
}

}  // namespace
}  // namespace gala
