// End-to-end tests of the `gala_perf_diff` gate: small baseline/current JSON
// pairs through the built binary (GALA_PERF_DIFF_PATH), one exit code per
// comparison rule.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "test_util.hpp"

namespace {

class PerfDiff : public ::testing::Test {
 protected:
  /// Writes `baseline` and `current` and returns the tool's exit code on them.
  int diff(const std::string& baseline, const std::string& current) const {
    write("base.json", baseline);
    write("cur.json", current);
    return run(tmp_.file("base.json") + " " + tmp_.file("cur.json"));
  }

  int run(const std::string& args) const {
    const std::string cmd =
        std::string(GALA_PERF_DIFF_PATH) + " " + args + " > " + tmp_.file("out.txt") + " 2>&1";
    return WEXITSTATUS(std::system(cmd.c_str()));
  }

  void write(const std::string& name, const std::string& text) const {
    std::ofstream(tmp_.file(name)) << text;
  }

  gala::testing::ScopedTempDir tmp_;
};

TEST_F(PerfDiff, IdenticalDocumentsPass) {
  const std::string doc = R"({"rows":[{"modularity":0.5,"modeled_ms":1.5,"ws_heap_allocs":3}]})";
  EXPECT_EQ(diff(doc, doc), 0);
}

TEST_F(PerfDiff, WallKeysAreSkipped) {
  EXPECT_EQ(diff(R"({"wall_ms":1,"x":{"wall_seconds":1}})",
                 R"({"wall_ms":100,"x":{"wall_seconds":100}})"),
            0);
  EXPECT_EQ(diff(R"({"wall_ms":1})", R"({})"), 0);
}

TEST_F(PerfDiff, AnEfficiencyDropFails) {
  EXPECT_EQ(diff(R"({"overlap_efficiency":0.5})", R"({"overlap_efficiency":0.4})"), 1);
  EXPECT_EQ(diff(R"({"overlap_efficiency":0.5})", R"({"overlap_efficiency":0.495})"), 0);
  EXPECT_EQ(diff(R"({"overlap_efficiency":0.5})", R"({"overlap_efficiency":0.9})"), 0);
}

TEST_F(PerfDiff, ModeledTimeGrowthAboveTenPercentFails) {
  EXPECT_EQ(diff(R"({"modeled_ms":1.0})", R"({"modeled_ms":1.11})"), 1);
  EXPECT_EQ(diff(R"({"modeled_cycles":100})", R"({"modeled_cycles":111})"), 1);
  EXPECT_EQ(diff(R"({"modeled_ms":1.0})", R"({"modeled_ms":1.09})"), 0);
  EXPECT_EQ(diff(R"({"modeled_ms":1.0})", R"({"modeled_ms":0.5})"), 0);
}

TEST_F(PerfDiff, AnyGrowthInExactCountsFails) {
  for (const std::string key :
       {"ws_heap_allocs", "comm_bytes", "peak_total_bytes", "min_feasible_budget_bytes"}) {
    EXPECT_EQ(diff("{\"" + key + "\":100}", "{\"" + key + "\":101}"), 1) << key;
    EXPECT_EQ(diff("{\"" + key + "\":100}", "{\"" + key + "\":99}"), 0) << key;
    // Zero growth from a zero baseline is the regression these rules gate.
    EXPECT_EQ(diff("{\"" + key + "\":0}", "{\"" + key + "\":1}"), 1) << key;
  }
}

TEST_F(PerfDiff, OtherCountersDriftNoMoreThanTwoPercent) {
  EXPECT_EQ(diff(R"({"blocks":100})", R"({"blocks":101})"), 0);
  EXPECT_EQ(diff(R"({"blocks":100})", R"({"blocks":99})"), 0);
  EXPECT_EQ(diff(R"({"blocks":100})", R"({"blocks":103})"), 1);
  EXPECT_EQ(diff(R"({"blocks":100})", R"({"blocks":97})"), 1);
}

TEST_F(PerfDiff, AZeroBaselineMetricFails) {
  EXPECT_EQ(diff(R"({"blocks":0})", R"({"blocks":1})"), 1);
  EXPECT_EQ(diff(R"({"modeled_ms":0})", R"({"modeled_ms":1})"), 1);
  EXPECT_EQ(diff(R"({"overlap_efficiency":0})", R"({"overlap_efficiency":0.5})"), 1);
  EXPECT_EQ(diff(R"({"blocks":0})", R"({"blocks":0})"), 0);
}

TEST_F(PerfDiff, MissingMembersAndTypeChangesFail) {
  EXPECT_EQ(diff(R"({"blocks":1})", R"({})"), 1);
  EXPECT_EQ(diff(R"({"blocks":1})", R"({"blocks":"1"})"), 1);
}

TEST_F(PerfDiff, ArrayElementsAlignByName) {
  const std::string base = R"({"kernels":[{"name":"a","blocks":1},{"name":"b","blocks":2}]})";
  EXPECT_EQ(diff(base, R"({"kernels":[{"name":"b","blocks":2},{"name":"a","blocks":1}]})"), 0);
  EXPECT_EQ(diff(base, R"({"kernels":[{"name":"b","blocks":1},{"name":"a","blocks":2}]})"), 1);
  EXPECT_EQ(diff(base, R"({"kernels":[{"name":"a","blocks":1}]})"), 1);
  // Without names, elements align by index and the length must match.
  EXPECT_EQ(diff(R"({"h":[1,2]})", R"({"h":[2,1]})"), 1);
  EXPECT_EQ(diff(R"({"h":[1,2]})", R"({"h":[1,2,3]})"), 1);
}

TEST_F(PerfDiff, DirectoriesCompareByFileName) {
  std::filesystem::create_directories(tmp_.path() / "base");
  std::filesystem::create_directories(tmp_.path() / "cur");
  write("base/BENCH_a.json", R"({"blocks":1})");
  write("cur/BENCH_a.json", R"({"blocks":1})");
  EXPECT_EQ(run(tmp_.file("base") + " " + tmp_.file("cur")), 0);
  write("base/BENCH_b.json", R"({"blocks":1})");
  EXPECT_EQ(run(tmp_.file("base") + " " + tmp_.file("cur")), 1);
}

TEST_F(PerfDiff, TakesNoOptions) {
  write("a.json", R"({"blocks":1})");
  EXPECT_EQ(run(tmp_.file("a.json") + " " + tmp_.file("a.json")), 0);
  EXPECT_EQ(run(tmp_.file("a.json") + " " + tmp_.file("a.json") + " --tolerance 0.5"), 2);
  EXPECT_EQ(run(tmp_.file("a.json")), 2);
}

}  // namespace
