// End-to-end tests of the `gala` CLI binary: real subprocess invocations
// exercising detect/stats/generate/convert and their error paths. The
// binary path is injected by CMake as GALA_CLI_PATH.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>

#include "gala/common/json.hpp"  // header-only; used to parse emitted telemetry
#include "test_util.hpp"

namespace {

namespace fs = std::filesystem;

/// `v` re-serialised without its wall-clock members (keys containing
/// "wall"), which differ from run to run.
std::string without_wall(const gala::JsonValue& v) {
  std::ostringstream out;
  out << std::setprecision(17);
  switch (v.type) {
    case gala::JsonValue::Type::Null:
      out << "null";
      break;
    case gala::JsonValue::Type::Bool:
      out << (v.boolean ? "true" : "false");
      break;
    case gala::JsonValue::Type::Number:
      out << v.number;
      break;
    case gala::JsonValue::Type::String:
      out << '"' << v.string << '"';
      break;
    case gala::JsonValue::Type::Array:
      out << '[';
      for (const auto& e : v.array) out << without_wall(e) << ',';
      out << ']';
      break;
    case gala::JsonValue::Type::Object:
      out << '{';
      for (const auto& [k, e] : v.object) {
        if (k.find("wall") == std::string::npos) out << '"' << k << "\":" << without_wall(e) << ',';
      }
      out << '}';
      break;
  }
  return out.str();
}

/// How many events of each kind the report's flight window holds, without
/// `ws-alloc`: how many workspace slabs the pool workers allocate depends on
/// thread timing.
std::map<std::string, int> flight_kind_counts(const gala::JsonValue& report) {
  std::map<std::string, int> counts;
  for (const auto& e : report.at("flight").at("events").array) {
    if (e.at("kind").string != "ws-alloc") ++counts[e.at("kind").string];
  }
  return counts;
}

std::set<std::string> span_names(const gala::JsonValue& report) {
  std::set<std::string> names;
  for (const auto& [name, span] : report.at("metrics").at("spans").object) names.insert(name);
  return names;
}

class CliE2e : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return tmp_.file(name); }

  /// Runs the CLI with `args`, capturing stdout+stderr; returns exit code.
  int run(const std::string& args, std::string* output = nullptr) const {
    const std::string out_file = path("last_output.txt");
    const std::string cmd = std::string(GALA_CLI_PATH) + " " + args + " > " + out_file + " 2>&1";
    const int status = std::system(cmd.c_str());
    if (output != nullptr) {
      std::ifstream in(out_file);
      std::ostringstream ss;
      ss << in.rdbuf();
      *output = ss.str();
    }
    return WEXITSTATUS(status);
  }

  std::string slurp(const std::string& name) const {
    std::ifstream in(path(name));
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  /// The parsed run report written to `name` by --report-out.
  gala::JsonValue report(const std::string& name) const { return gala::parse_json(slurp(name)); }

  gala::testing::ScopedTempDir tmp_;
};

TEST_F(CliE2e, GenerateDetectPipeline) {
  std::string out;
  ASSERT_EQ(run("generate planted --vertices 400 --communities 4 --mixing 0.1 --out " +
                    path("g.txt") + " --truth " + path("truth.txt"),
                &out),
            0)
      << out;
  EXPECT_TRUE(fs::exists(path("g.txt")));
  EXPECT_TRUE(fs::exists(path("truth.txt")));

  ASSERT_EQ(run("detect " + path("g.txt") + " --output " + path("comm.txt") + " --connected",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("modularity"), std::string::npos);
  EXPECT_NE(out.find("all communities connected: yes"), std::string::npos);

  // The community file covers every vertex.
  std::ifstream comm(path("comm.txt"));
  int lines = 0;
  std::string line;
  while (std::getline(comm, line)) ++lines;
  EXPECT_EQ(lines, 400);
}

TEST_F(CliE2e, DetectWithStandinAndJsonReport) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --refine --report-out " + path("run.json"), &out), 0)
      << out;
  EXPECT_NE(out.find("wrote run report to"), std::string::npos) << out;
  const gala::JsonValue doc = report("run.json");
  EXPECT_EQ(doc.at("report_schema").number, 1);
  EXPECT_TRUE(doc.at("run").at("config").at("refine").boolean);
  EXPECT_EQ(doc.at("provenance").at("schema").string, "report");
}

TEST_F(CliE2e, DistributedDetect) {
  // --gpus N runs the whole pipeline with every level's phase 1 distributed,
  // so it writes the single-device partition.
  std::string out;
  ASSERT_EQ(run("detect standin:OR:0.05 --output " + path("one.txt"), &out), 0) << out;
  ASSERT_EQ(run("detect standin:OR:0.05 --gpus 4 --output " + path("four.txt"), &out), 0) << out;
  EXPECT_NE(out.find("level:"), std::string::npos) << out;
  EXPECT_FALSE(slurp("one.txt").empty());
  EXPECT_EQ(slurp("four.txt"), slurp("one.txt"));
}

TEST_F(CliE2e, DistributedRunReportCarriesTheResult) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --gpus 4 --report-out " + path("d.json"), &out), 0)
      << out;
  const gala::JsonValue run_section = report("d.json").at("run");
  EXPECT_EQ(run_section.at("config").at("backend").string, "distributed");
  EXPECT_EQ(run_section.at("config").at("devices").number, 4);
  EXPECT_FALSE(run_section.at("config").at("overlap").boolean);
  EXPECT_FALSE(run_section.at("config").at("compress").boolean);
  const gala::JsonValue& result = run_section.at("result");
  ASSERT_TRUE(result.at("modularity").is_number());
  EXPECT_GT(result.at("modularity").number, 0);
  EXPECT_GT(result.at("communities").number, 0);
  EXPECT_GT(result.at("modeled_ms").number, 0);
  const auto& levels = result.at("levels").array;
  ASSERT_FALSE(levels.empty());
  for (const auto& lv : levels) EXPECT_GT(lv.at("iterations").number, 0);
}

TEST_F(CliE2e, DistributedHonoursEveryLouvainFlag) {
  // --refine, --follow and --supervise act on a --gpus run as on one device.
  for (const std::string flag : {"--refine", "--follow", "--supervise"}) {
    std::string out;
    ASSERT_EQ(run("detect standin:HW:0.05 " + flag + " --output " + path("one.txt"), &out), 0)
        << flag << "\n" << out;
    ASSERT_EQ(
        run("detect standin:HW:0.05 --gpus 4 " + flag + " --output " + path("four.txt"), &out),
        0)
        << flag << "\n" << out;
    EXPECT_FALSE(slurp("one.txt").empty()) << flag;
    EXPECT_EQ(slurp("four.txt"), slurp("one.txt")) << flag;
  }
}

TEST_F(CliE2e, DistributedCollectiveFaultRecoversUnderTheSupervisor) {
  // Three dropped gathers outlast the two sync retries, so level 0's
  // distributed phase 1 fails closed; --faults supervises the run, which
  // retries the level and writes the fault-free partition.
  {
    std::ofstream plan(path("plan.json"));
    plan << R"({"seed": 42, "rules": [{"site": "collective-drop", "label": "all_gather_v", )"
         << R"("rank": 1, "max_fires": 3}]})";
  }
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --gpus 4 --output " + path("plain.txt"), &out), 0)
      << out;
  ASSERT_EQ(run("detect standin:HW:0.05 --gpus 4 --faults " + path("plan.json") + " --output " +
                    path("recovered.txt"),
                &out),
            0)
      << out;
  EXPECT_NE(out.find("supervisor: 1 retries"), std::string::npos) << out;
  EXPECT_NE(out.find("recovery: level 0 attempt 0 [phase1] retry"), std::string::npos) << out;
  EXPECT_NE(out.find("collective-drop"), std::string::npos) << out;
  EXPECT_FALSE(slurp("plain.txt").empty());
  EXPECT_EQ(slurp("recovered.txt"), slurp("plain.txt"));
}

TEST_F(CliE2e, LpaAlgorithm) {
  std::string out;
  ASSERT_EQ(run("detect standin:LJ:0.05 --algorithm lpa", &out), 0) << out;
  EXPECT_NE(out.find("label propagation"), std::string::npos);
}

TEST_F(CliE2e, LpaRunReportCarriesTheResult) {
  std::string out;
  ASSERT_EQ(run("detect standin:LJ:0.05 --algorithm lpa --report-out " + path("l.json"), &out),
            0)
      << out;
  const gala::JsonValue result = report("l.json").at("run").at("result");
  ASSERT_TRUE(result.at("modularity").is_number());
  EXPECT_GT(result.at("modularity").number, 0);
  EXPECT_GT(result.at("iterations").number, 0);
  EXPECT_GT(result.at("communities").number, 0);
}

TEST_F(CliE2e, ReportArmSwitchLeavesPartitionsByteIdentical) {
  // Arming every observer must not move a single decision: the partition
  // written with --report-out equals the one written without it.
  for (const std::string engine : {"--backend bsp", "--backend blas", "--gpus 4 --overlap"}) {
    std::string out;
    ASSERT_EQ(run("detect standin:HW:0.05 " + engine + " --output " + path("plain.txt"), &out),
              0)
        << engine << "\n" << out;
    ASSERT_EQ(run("detect standin:HW:0.05 " + engine + " --output " + path("armed.txt") +
                      " --report-out " + path("armed.json"),
                  &out),
              0)
        << engine << "\n" << out;
    const std::string plain = slurp("plain.txt");
    EXPECT_FALSE(plain.empty()) << engine;
    EXPECT_EQ(plain, slurp("armed.txt")) << engine;
  }
}

TEST_F(CliE2e, StatsCommand) {
  std::string out;
  ASSERT_EQ(run("stats standin:TW:0.05", &out), 0) << out;
  EXPECT_NE(out.find("connected components"), std::string::npos);
  EXPECT_NE(out.find("degree bucket"), std::string::npos);
}

TEST_F(CliE2e, ConvertRoundTripAcrossFormats) {
  std::string out;
  ASSERT_EQ(run("generate ring --cliques 6 --clique-size 4 --out " + path("ring.txt"), &out), 0);
  ASSERT_EQ(run("convert " + path("ring.txt") + " " + path("ring.bin"), &out), 0) << out;
  ASSERT_EQ(run("convert " + path("ring.bin") + " " + path("ring.graph"), &out), 0) << out;
  ASSERT_EQ(run("detect " + path("ring.graph"), &out), 0) << out;
  EXPECT_NE(out.find("24 communities") == std::string::npos &&
                    out.find("6 communities") == std::string::npos,
            true)
      << out;  // either granularity is fine; detection must succeed
}

TEST_F(CliE2e, CompareCommand) {
  std::string out;
  ASSERT_EQ(run("generate planted --vertices 200 --communities 2 --mixing 0.05 --out " +
                    path("cmp.txt") + " --truth " + path("cmp_truth.txt"),
                &out),
            0);
  ASSERT_EQ(run("detect " + path("cmp.txt") + " --output " + path("cmp_comm.txt"), &out), 0);
  ASSERT_EQ(run("compare " + path("cmp_comm.txt") + " " + path("cmp_truth.txt"), &out), 0) << out;
  EXPECT_NE(out.find("NMI:"), std::string::npos);
  EXPECT_NE(out.find("ARI:"), std::string::npos);
}

TEST_F(CliE2e, DetectEmitsTraceAndMetrics) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --trace-out " + path("run.trace.json") +
                    " --report-out " + path("run.json"),
                &out),
            0)
      << out;
  EXPECT_NE(out.find("wrote trace to"), std::string::npos);

  // The trace is valid Chrome-trace JSON containing the pipeline phases.
  const gala::JsonValue trace = gala::parse_json(slurp("run.trace.json"));
  const gala::JsonValue& events = trace.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());
  std::set<std::string> names;
  std::size_t counter_events = 0;
  for (const auto& e : events.array) {
    names.insert(e.at("name").string);
    // Spans ("X") plus the memtrace residency counter track ("C").
    const std::string& ph = e.at("ph").string;
    EXPECT_TRUE(ph == "X" || ph == "C") << ph;
    if (ph == "C") {
      EXPECT_EQ(e.at("name").string, "memory");
      ++counter_events;
    }
  }
  for (const char* expected :
       {"load-graph", "phase1", "iteration", "decide", "weight-update", "pruning", "level"}) {
    EXPECT_TRUE(names.count(expected)) << "trace missing phase: " << expected;
  }
  EXPECT_GT(counter_events, 0u) << "trace missing the memory counter track";

  // The metrics section carries the aggregated spans and the registry.
  const gala::JsonValue metrics = report("run.json").at("metrics");
  EXPECT_NE(metrics.at("spans").find("phase1/decide"), nullptr);
  EXPECT_NE(metrics.at("spans").find("pipeline/phase1"), nullptr);
  EXPECT_GT(metrics.at("counters").at("gpusim.launches").number, 0);
  EXPECT_GT(metrics.at("counters").at("phase1.iterations").number, 0);
  EXPECT_NE(metrics.at("histograms").find("gpusim.blocks_per_launch"), nullptr);
}

TEST_F(CliE2e, DetectEmitsKernelProfile) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --report-out " + path("run.json"), &out), 0) << out;
  EXPECT_NE(out.find("wrote run report to"), std::string::npos);

  const gala::JsonValue profile = report("run.json").at("profile");
  EXPECT_EQ(profile.at("profile_schema").number, 1);
  EXPECT_GT(profile.at("ceilings").at("dram_gbps").number, 0);

  const gala::JsonValue& kernels = profile.at("kernels");
  ASSERT_TRUE(kernels.is_array());
  ASSERT_FALSE(kernels.array.empty());
  for (const auto& k : kernels.array) {
    EXPECT_GT(k.at("launches").number, 0);
    const double coalescing = k.at("coalescing_efficiency").number;
    EXPECT_GE(coalescing, 0.0);
    EXPECT_LE(coalescing, 1.0);
    EXPECT_GE(k.at("bank_conflict_factor").number, 1.0);
    EXPECT_NE(k.find("roofline"), nullptr);
  }
}

TEST_F(CliE2e, DetectEmitsFlightRecorderDump) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --report-out " + path("run.json"), &out), 0) << out;
  EXPECT_NE(out.find("wrote run report to"), std::string::npos);

  const gala::JsonValue doc = report("run.json").at("flight");
  EXPECT_EQ(doc.at("flight_schema").number, 1);
  EXPECT_EQ(doc.at("reason").string, "end-of-run");
  EXPECT_EQ(doc.at("depth").number, 4096);  // the ring's default depth
  const auto& events = doc.at("events").array;
  ASSERT_FALSE(events.empty());
  double prev_seq = -1;
  std::set<std::string> kinds;
  for (const auto& e : events) {
    EXPECT_GT(e.at("seq").number, prev_seq);  // the global clock is monotonic
    prev_seq = e.at("seq").number;
    kinds.insert(e.at("kind").string);
  }
  EXPECT_TRUE(kinds.count("level-begin"));
  EXPECT_TRUE(kinds.count("iter-begin"));
  EXPECT_TRUE(kinds.count("iter-end"));
}

TEST_F(CliE2e, DetectEmitsHealthReport) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --report-out " + path("run.json"), &out), 0) << out;
  EXPECT_NE(out.find("wrote run report to"), std::string::npos);

  const gala::JsonValue doc = report("run.json").at("health");
  EXPECT_EQ(doc.at("health_schema").number, 1);
  ASSERT_FALSE(doc.at("levels").array.empty());
  EXPECT_GT(doc.at("summary").at("total_iterations").number, 0);
  const auto& lv = doc.at("levels").array[0];
  EXPECT_GT(lv.at("vertices").number, 0);
  EXPECT_EQ(lv.at("series").at("modularity").array.size(),
            static_cast<std::size_t>(lv.at("iterations").number));
}

TEST_F(CliE2e, DetectEmitsMemReport) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --report-out " + path("run.json"), &out), 0) << out;
  EXPECT_NE(out.find("wrote run report to"), std::string::npos);

  const gala::JsonValue report_doc = report("run.json");
  EXPECT_EQ(report_doc.find("governor"), nullptr) << "no budget, no governor section";
  const gala::JsonValue& doc = report_doc.at("mem");
  EXPECT_EQ(doc.at("mem_schema").number, 1);
  ASSERT_FALSE(doc.at("subsystems").array.empty());
  std::set<std::string> names;
  for (const auto& s : doc.at("subsystems").array) names.insert(s.at("name").string);
  EXPECT_TRUE(names.count("graph"));  // CSR residency is always tracked
  EXPECT_GT(doc.at("totals").at("peak_total_bytes").number, 0);
  EXPECT_TRUE(doc.at("leak_check").at("clean").boolean);
  EXPECT_FALSE(doc.at("timeline").array.empty());
  const auto& first = doc.at("timeline").array[0];
  double sum = 0;
  for (const auto& [name, bytes] : first.at("subsystems").object) sum += bytes.number;
  EXPECT_EQ(sum, first.at("total").number);
}

TEST_F(CliE2e, UnwritableOutputPathsFailFastWithFileAndReason) {
  // Every output flag probes its path up front (one shared
  // probe_output_path table in the CLI): the run must fail before any work
  // happens, naming the file and the OS reason.
  for (const char* flag : {"--output", "--trace-out", "--report-out"}) {
    std::string out;
    EXPECT_NE(run(std::string("detect standin:HW:0.05 ") + flag +
                      " /nonexistent-dir/out.json",
                  &out),
              0)
        << flag;
    EXPECT_NE(out.find("/nonexistent-dir/out.json"), std::string::npos) << out;
    EXPECT_NE(out.find("No such file or directory"), std::string::npos) << out;
    EXPECT_NE(out.find(flag), std::string::npos) << out;  // which flag was at fault
  }
}

TEST_F(CliE2e, GovernedDetectEmitsGovernorSectionAndReport) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --mem-budget 1G --report-out " + path("gov.json"), &out),
            0)
      << out;
  EXPECT_NE(out.find("governor: enforcing budget 1073741824 B"), std::string::npos) << out;
  EXPECT_NE(out.find("governor: budget"), std::string::npos) << out;
  EXPECT_NE(out.find("wrote run report to"), std::string::npos) << out;

  // A generous budget engages no rungs, but the governor section must still
  // land, once, with the budget and zeroed ladder state.
  const gala::JsonValue doc = report("gov.json");
  EXPECT_EQ(doc.at("mem").find("governor"), nullptr) << "the governor section appears once";
  const gala::JsonValue& gov = doc.at("governor");
  EXPECT_EQ(gov.at("budget_total").number, 1073741824.0);
  EXPECT_EQ(gov.at("rung").string, "none");
  EXPECT_EQ(gov.at("denials").number, 0);
  EXPECT_GT(gov.at("admits").number, 0);
  EXPECT_EQ(gov.find("min_feasible_budget_bytes"), nullptr) << "no probe was run";
  EXPECT_EQ(doc.at("provenance").at("schema").string, "report");
}

TEST_F(CliE2e, ProbeMinBudgetReportsAFeasibleFloor) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --probe-min-budget --report-out " + path("probe.json"),
                &out),
            0)
      << out;
  EXPECT_NE(out.find("min feasible budget:"), std::string::npos) << out;

  const gala::JsonValue doc = report("probe.json").at("governor");
  const double min_feasible = doc.at("min_feasible_budget_bytes").number;
  const double peak = doc.at("unlimited_peak_bytes").number;
  EXPECT_GT(min_feasible, 0) << "probe found no feasible budget";
  EXPECT_GT(peak, 0);
  // The floor can round up past the raw peak (granule ceiling + ladder
  // effects) but never collapses to nothing or explodes past it.
  EXPECT_LE(min_feasible, peak + 2 * 4096);
}

TEST_F(CliE2e, DistributedProbeFloorWalksTheLadder) {
  // A --gpus probe gates on the live high-water, not on the summed tag
  // peaks (which count phase 2's scratch beside phase 1's), so a rerun at
  // the floor engages the ladder, stays within it and keeps the partition.
  std::string out;
  ASSERT_EQ(run("generate planted --vertices 2000 --communities 20 --mixing 0.1 --out " +
                    path("g.txt"),
                &out),
            0)
      << out;
  const std::string detect = "detect " + path("g.txt") + " --gpus 4 --overlap";
  ASSERT_EQ(run(detect + " --probe-min-budget --output " + path("base.txt") + " --report-out " +
                    path("probe.json"),
                &out),
            0)
      << out;
  const gala::JsonValue probe = report("probe.json");
  const double floor = probe.at("governor").at("min_feasible_budget_bytes").number;
  EXPECT_LT(probe.at("governor").at("unlimited_peak_bytes").number,
            probe.at("mem").at("totals").at("peak_total_bytes").number);
  ASSERT_EQ(run(detect + " --mem-budget " + std::to_string(static_cast<std::uint64_t>(floor)) +
                    " --output " + path("floor.txt") + " --report-out " + path("floor.json"),
                &out),
            0)
      << out;
  EXPECT_EQ(slurp("floor.txt"), slurp("base.txt"));
  const gala::JsonValue at_floor = report("floor.json");
  EXPECT_FALSE(at_floor.at("governor").at("transitions").array.empty()) << "no rung engaged";
  EXPECT_LE(at_floor.at("mem").at("totals").at("peak_live_bytes").number, floor);
}

TEST_F(CliE2e, InvalidBudgetsAreRejectedWithFlagAndReason) {
  // 18000000000000000000K wraps past 2^64 if multiplied unchecked; the parser
  // must refuse it rather than silently enforcing a tiny budget.
  for (const char* bad : {"0", "abc", "-5", "12Q", "4096X", "18000000000000000000K",
                          "99999999999999999999"}) {
    std::string out;
    EXPECT_NE(run(std::string("detect standin:HW:0.05 --mem-budget '") + bad + "'", &out), 0)
        << "accepted --mem-budget " << bad;
    EXPECT_NE(out.find("mem-budget"), std::string::npos) << out;
  }
  std::string out;
  EXPECT_NE(run("detect standin:HW:0.05 --mem-budget-sub phase1", &out), 0);
  EXPECT_NE(out.find("is not subsystem=bytes"), std::string::npos) << out;
  EXPECT_NE(run("detect standin:HW:0.05 --mem-budget-sub phase1=0", &out), 0);
  EXPECT_NE(out.find("must be positive"), std::string::npos) << out;
}

TEST_F(CliE2e, RetiredReportFlagsAreRejected) {
  // --output, --trace-out and --report-out are the only files detect
  // writes: any per-subsystem report flag is an unknown option that fails
  // the parse before any work.
  for (const char* flag : {"--json", "--metrics-out", "--profile-out", "--flight-out",
                           "--flight-depth", "--health-out", "--mem-out", "--governor-out"}) {
    std::string out;
    EXPECT_EQ(run(std::string("detect standin:HW:0.05 ") + flag + " " + path("x.json"), &out), 2)
        << flag << "\n" << out;
    EXPECT_EQ(out.find("graph:"), std::string::npos) << flag << "\n" << out;
  }
}

TEST_F(CliE2e, ErrorPathsReturnNonZero) {
  std::string out;
  EXPECT_NE(run("detect /nonexistent/path.txt", &out), 0);
  EXPECT_NE(out.find("error:"), std::string::npos);
  EXPECT_NE(run("nonsense-command", &out), 0);
  EXPECT_NE(run("detect standin:LJ:0.05 --pruning bogus", &out), 0);
  EXPECT_NE(run("generate bogus-type --out " + path("x.txt"), &out), 0);
}

TEST_F(CliE2e, BackendSelection) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --backend blas", &out), 0) << out;
  EXPECT_NE(out.find("modularity"), std::string::npos);

  // Fail-fast probe table: each bad selection is rejected before the solve,
  // naming the flag and the accepted values.
  struct Row {
    std::string args;
    std::string expect;
  };
  const Row rows[] = {
      {"detect standin:HW:0.05 --backend bogus", "unknown backend 'bogus' (bsp|blas)"},
      {"detect standin:HW:0.05 --backend blas --gpus 4", "--backend: blas is single-device"},
  };
  for (const Row& row : rows) {
    EXPECT_NE(run(row.args, &out), 0) << row.args;
    EXPECT_NE(out.find(row.expect), std::string::npos) << row.args << "\n" << out;
    EXPECT_EQ(out.find("graph:"), std::string::npos)
        << "solve started despite bad flags:\n" << out;
  }
}

TEST_F(CliE2e, ServeQueryFlags) {
  std::string out;
  ASSERT_EQ(run("detect standin:HW:0.05 --serve --query-epochs 2", &out), 0) << out;
  EXPECT_NE(out.find("query: epoch 1 serving"), std::string::npos) << out;
  EXPECT_NE(out.find("query: v0 -> community"), std::string::npos) << out;

  // Fail-fast probe table: bad query-store selections are rejected before
  // the graph loads, naming the flag and the reason (same contract as the
  // --backend probes above).
  struct Row {
    std::string args;
    std::string expect;
  };
  const Row rows[] = {
      {"detect standin:HW:0.05 --query-epochs 2", "--query-epochs: only meaningful with --serve"},
      {"detect standin:HW:0.05 --serve --query-epochs 0", "--query-epochs: must be positive"},
      {"detect standin:HW:0.05 --serve --query-epochs -3", "--query-epochs: must be positive"},
      {"detect standin:HW:0.05 --serve --query-epochs abc", "'abc' is not an integer"},
  };
  for (const Row& row : rows) {
    EXPECT_NE(run(row.args, &out), 0) << row.args;
    EXPECT_NE(out.find(row.expect), std::string::npos) << row.args << "\n" << out;
    EXPECT_EQ(out.find("graph:"), std::string::npos)
        << "solve started despite bad flags:\n" << out;
  }
}

TEST_F(CliE2e, FaultFreeSupervisedReportMatchesUnsupervised) {
  // The supervisor runs the pipeline's own loop, context and engine, so with
  // no fault its report records the same run.
  std::string out;
  ASSERT_EQ(run("generate planted --vertices 2000 --communities 20 --mixing 0.3 "
                "--avg-degree 12 --seed 5 --out " + path("g.txt"), &out),
            0)
      << out;
  for (const std::string backend : {"bsp", "blas"}) {
    const std::string detect = "detect " + path("g.txt") + " --backend " + backend;
    ASSERT_EQ(run(detect + " --report-out " + path("plain.json"), &out), 0) << out;
    ASSERT_EQ(run(detect + " --supervise --report-out " + path("sup.json"), &out), 0) << out;
    const gala::JsonValue plain = report("plain.json");
    const gala::JsonValue sup = report("sup.json");
    EXPECT_EQ(plain.at("run").at("config").at("backend").string, backend);
    for (const char* section : {"run", "health"}) {
      EXPECT_EQ(without_wall(sup.at(section)), without_wall(plain.at(section)))
          << backend << " " << section;
    }
    // Memory: the CSR residency and the epoch timeline. The totals' peaks
    // and the scratch subsystems' alloc counts depend on how many pool
    // workers hold hash scratch and arena pages at once, so they differ
    // between two runs of one command.
    const gala::JsonValue& sup_mem = sup.at("mem");
    const gala::JsonValue& plain_mem = plain.at("mem");
    EXPECT_EQ(sup_mem.at("totals").at("live_bytes").number,
              plain_mem.at("totals").at("live_bytes").number)
        << backend;
    EXPECT_EQ(sup_mem.at("timeline").array.size(), plain_mem.at("timeline").array.size())
        << backend;
    const auto graph_subsystem = [](const gala::JsonValue& mem) {
      for (const auto& s : mem.at("subsystems").array) {
        if (s.at("name").string == "graph") return without_wall(s);
      }
      return std::string("absent");
    };
    EXPECT_EQ(graph_subsystem(sup_mem), graph_subsystem(plain_mem)) << backend;
    EXPECT_EQ(flight_kind_counts(sup), flight_kind_counts(plain)) << backend;
    EXPECT_EQ(span_names(sup), span_names(plain)) << backend;
  }
}

TEST_F(CliE2e, SupervisedRetryRecordsEachLevelOnce) {
  // A kernel fault in the middle of level 1 aborts that attempt after it fed
  // the health monitor part of a trajectory. The report keeps one entry per
  // level, the retry's, and one verdict event per level.
  std::string out;
  ASSERT_EQ(run("generate planted --vertices 2000 --communities 20 --mixing 0.3 "
                "--avg-degree 12 --seed 5 --out " + path("g.txt"), &out),
            0)
      << out;
  {
    std::ofstream plan(path("plan.json"));
    plan << R"({"rules": [{"site": "kernel-launch", "skip_first": 25, "max_fires": 1}]})";
  }
  ASSERT_EQ(run("detect " + path("g.txt") + " --report-out " + path("plain.json"), &out), 0)
      << out;
  ASSERT_EQ(run("detect " + path("g.txt") + " --faults " + path("plan.json") +
                    " --report-out " + path("retry.json"),
                &out),
            0)
      << out;
  EXPECT_NE(out.find("recovery: level 1 attempt 0 [phase1] retry"), std::string::npos) << out;
  const gala::JsonValue plain = report("plain.json");
  const gala::JsonValue retry = report("retry.json");
  EXPECT_EQ(without_wall(retry.at("health")), without_wall(plain.at("health")));
  const auto& levels = retry.at("health").at("levels").array;
  ASSERT_EQ(levels.size(), retry.at("run").at("result").at("levels").array.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(levels[i].at("level").number, static_cast<double>(i));
  }
  EXPECT_EQ(flight_kind_counts(retry)["health-oscillation"],
            flight_kind_counts(plain)["health-oscillation"]);
}

TEST_F(CliE2e, HelpExitsCleanly) {
  std::string out;
  EXPECT_EQ(run("detect --help", &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

}  // namespace
