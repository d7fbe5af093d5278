// End-to-end tests of the `trace_check` validator: the CLI writes a run
// report and Chrome traces into the test's temp dir, trace_check must accept
// them as written and reject a mutated copy for every invariant family in
// its header comment. Binary paths are injected by CMake as GALA_CLI_PATH
// and TRACE_CHECK_PATH.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "gala/common/json.hpp"
#include "test_util.hpp"

namespace {

using gala::JsonValue;

void write_value(gala::JsonWriter& w, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::Null:
      w.raw("null");
      break;
    case JsonValue::Type::Bool:
      w.value(v.boolean);
      break;
    case JsonValue::Type::Number:
      w.value(v.number);
      break;
    case JsonValue::Type::String:
      w.value(v.string);
      break;
    case JsonValue::Type::Array:
      w.begin_array();
      for (const JsonValue& e : v.array) write_value(w, e);
      w.end_array();
      break;
    case JsonValue::Type::Object:
      w.begin_object();
      for (const auto& [k, e] : v.object) {
        w.key(k);
        write_value(w, e);
      }
      w.end_object();
      break;
  }
}

/// Mutable member access for building broken copies.
JsonValue& at(JsonValue& v, std::string_view key) { return const_cast<JsonValue&>(v.at(key)); }

JsonValue number(double x) {
  JsonValue v;
  v.type = JsonValue::Type::Number;
  v.number = x;
  return v;
}

class TraceCheck : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return tmp_.file(name); }

  /// Runs `binary args`, capturing stdout+stderr; returns the exit code.
  int exec(const std::string& binary, const std::string& args, std::string* output) const {
    const std::string out_file = path("last_output.txt");
    const int status = std::system((binary + " " + args + " > " + out_file + " 2>&1").c_str());
    std::ifstream in(out_file);
    std::ostringstream ss;
    ss << in.rdbuf();
    *output = ss.str();
    return WEXITSTATUS(status);
  }

  /// Runs `gala detect standin:HW:0.05 <args>`, which must succeed.
  void detect(const std::string& args) const {
    std::string out;
    ASSERT_EQ(exec(GALA_CLI_PATH, "detect standin:HW:0.05 " + args, &out), 0) << out;
  }

  /// trace_check's exit code on `name` with `args`; its output lands in out_.
  int check(const std::string& name, const std::string& args = "") {
    return exec(TRACE_CHECK_PATH, path(name) + " " + args, &out_);
  }

  JsonValue load(const std::string& name) const {
    std::ifstream in(path(name));
    std::ostringstream ss;
    ss << in.rdbuf();
    return gala::parse_json(ss.str());
  }

  void save(const std::string& name, const JsonValue& doc) const {
    gala::JsonWriter w;
    write_value(w, doc);
    std::ofstream(path(name)) << w.str() << '\n';
  }

  gala::testing::ScopedTempDir tmp_;
  std::string out_;
};

TEST_F(TraceCheck, AcceptsWhatTheCliWrites) {
  detect("--trace-out " + path("t.json") + " --report-out " + path("r.json"));
  EXPECT_EQ(check("t.json", "--require load-graph --require phase1 --require decide"), 0) << out_;
  EXPECT_EQ(check("r.json",
                  "--require metrics:phase1/decide --require metrics:pipeline/phase1 "
                  "--require profile:decide --require flight:level-begin "
                  "--require flight:iter-begin --require mem:graph.csr --require mem:phase1"),
            0)
      << out_;
  EXPECT_NE(out_.find("run, metrics, profile, flight, health, mem"), std::string::npos) << out_;

  // A report written through the same writer survives the round trip here.
  save("copy.json", load("r.json"));
  EXPECT_EQ(check("copy.json"), 0) << out_;

  detect("--gpus 4 --overlap --trace-out " + path("dt.json") + " --report-out " + path("dr.json"));
  EXPECT_EQ(check("dt.json", "--ranks 4 --require post_gather --require complete_gather"), 0)
      << out_;
  EXPECT_EQ(check("dr.json", "--ranks 4 --require flight:sync-post --require flight:sync-complete"),
            0)
      << out_;
}

TEST_F(TraceCheck, RejectsABrokenCopyOfEveryInvariant) {
  detect("--trace-out " + path("t.json") + " --report-out " + path("r.json"));
  detect("--gpus 4 --overlap --trace-out " + path("dt.json"));
  const JsonValue report = load("r.json");
  const JsonValue trace = load("dt.json");

  struct Mutation {
    const char* name;
    bool on_trace;
    std::function<void(JsonValue&)> apply;
    const char* message;  // a substring of trace_check's complaint
  };
  const Mutation mutations[] = {
      {"negative counter", false,
       [](JsonValue& d) { at(at(at(d, "metrics"), "counters"), "gpusim.launches") = number(-1); },
       "counter 'gpusim.launches' is not a non-negative number"},
      {"no span summary", false,
       [](JsonValue& d) { at(d, "metrics").object.erase(at(d, "metrics").object.begin()); },
       "no spans object"},
      {"non-increasing histogram lo", false,
       [](JsonValue& d) {
         JsonValue& buckets = at(at(at(at(d, "metrics"), "histograms"), "gpusim.blocks_per_launch"),
                                 "buckets");
         buckets.array.push_back(buckets.array.front());
       },
       "bucket lower bounds are not strictly increasing"},
      {"unordered percentiles", false,
       [](JsonValue& d) {
         at(at(at(at(d, "metrics"), "histograms"), "gpusim.blocks_per_launch"), "p50") =
             number(1e300);
       },
       "percentiles are not ordered"},
      {"efficiency above 1", false,
       [](JsonValue& d) {
         at(at(at(d, "profile"), "kernels").array[0], "coalescing_efficiency") = number(1.5);
       },
       "'coalescing_efficiency' is not in [0, 1]"},
      {"bank_conflict_factor below 1", false,
       [](JsonValue& d) {
         at(at(at(d, "profile"), "kernels").array[0], "bank_conflict_factor") = number(0.5);
       },
       "bank_conflict_factor below 1"},
      {"non-increasing flight seq", false,
       [](JsonValue& d) {
         auto& events = at(at(d, "flight"), "events").array;
         at(events[1], "seq") = events[0].at("seq");
       },
       "event clock is not strictly increasing"},
      {"de-escalating governor-rung", false,
       [](JsonValue& d) {
         auto& events = at(at(d, "flight"), "events").array;
         const double seq = events.back().at("seq").number;
         for (const double rung : {2.0, 1.0}) {
           JsonValue e = events.back();
           at(e, "seq") = number(seq + 3 - rung);
           at(e, "kind").string = "governor-rung";
           at(e, "a") = number(rung);
           events.push_back(e);
         }
       },
       "governor-rung de-escalated"},
      {"health series of the wrong length", false,
       [](JsonValue& d) {
         at(at(at(at(d, "health"), "levels").array[0], "series"), "modularity").array.pop_back();
       },
       "series 'modularity' has"},
      {"health churn above 1", false,
       [](JsonValue& d) { at(at(at(d, "health"), "levels").array[0], "churn_peak") = number(2); },
       "'churn_peak' is not in [0, 1]"},
      {"health summary disagrees", false,
       [](JsonValue& d) {
         JsonValue& total = at(at(at(d, "health"), "summary"), "total_iterations");
         total = number(total.number + 1);
       },
       "summary.total_iterations does not equal the per-level sum"},
      {"mem live above peak", false,
       [](JsonValue& d) {
         JsonValue& s = at(at(d, "mem"), "subsystems").array[0];
         at(s, "live") = number(s.at("peak").number + 1);
       },
       "live exceeds peak"},
      {"mem frag_pct above 100", false,
       [](JsonValue& d) { at(at(at(d, "mem"), "totals"), "frag_pct") = number(101); },
       "frag_pct is not in [0, 100]"},
      {"mem leak_check contradicts itself", false,
       [](JsonValue& d) { at(at(at(d, "mem"), "leak_check"), "clean").boolean = false; },
       "clean flag contradicts leaked_tags"},
      {"mem timeline total is not its sum", false,
       [](JsonValue& d) {
         JsonValue& total = at(at(at(d, "mem"), "timeline").array[0], "total");
         total = number(total.number + 1);
       },
       "timeline entry total does not equal the subsystem sum"},
      {"mem live high-water above the summed peaks", false,
       [](JsonValue& d) {
         JsonValue& totals = at(at(d, "mem"), "totals");
         at(totals, "peak_live_bytes") = number(totals.at("peak_total_bytes").number + 1);
       },
       "peak_live_bytes exceeds peak_total_bytes"},
      {"mem timeline above the live high-water", false,
       [](JsonValue& d) {
         const double over = d.at("mem").at("totals").at("peak_live_bytes").number + 1;
         JsonValue& epoch = at(at(d, "mem"), "timeline").array[0];
         at(epoch, "total") = number(over);
         at(epoch, "subsystems").object = {{"graph", number(over)}};
       },
       "timeline entry total exceeds peak_live_bytes"},
      {"unknown report member", false, [](JsonValue& d) { d.object.emplace_back("extra", d); },
       "unknown report member 'extra'"},
      {"section that is not an object", false, [](JsonValue& d) { at(d, "health") = number(1); },
       "section 'health' is not an object"},
      {"unpaired flow arrow", true,
       [](JsonValue& d) {
         auto& events = at(d, "traceEvents").array;
         for (auto it = events.begin(); it != events.end(); ++it) {
           if (it->at("ph").string == "f") {
             events.erase(it);
             return;
           }
         }
       },
       "posted but never completed"},
      {"flow id reused", true,
       [](JsonValue& d) {
         auto& events = at(d, "traceEvents").array;
         for (std::size_t i = 0; i < events.size(); ++i) {
           if (events[i].at("ph").string == "s") {
             const JsonValue start = events[i];
             events.push_back(start);
             return;
           }
         }
       },
       "used by two arrows"},
      {"malformed trace event", true,
       [](JsonValue& d) { at(d, "traceEvents").array.push_back(number(0)); },
       "malformed trace event"},
  };
  for (const Mutation& m : mutations) {
    JsonValue doc = m.on_trace ? trace : report;
    m.apply(doc);
    save("broken.json", doc);
    EXPECT_EQ(check("broken.json"), 1) << m.name << " passed:\n" << out_;
    EXPECT_NE(out_.find(m.message), std::string::npos) << m.name << ":\n" << out_;
  }
}

TEST_F(TraceCheck, RequireNamesItsSection) {
  detect("--trace-out " + path("t.json") + " --report-out " + path("r.json"));
  // The same span name passes where spans are named and fails where kernels,
  // event kinds or tags are: a qualifier cannot borrow another section's names.
  EXPECT_EQ(check("r.json", "--require metrics:load-graph"), 0) << out_;
  for (const char* wrong : {"profile:load-graph", "flight:load-graph", "mem:load-graph"}) {
    EXPECT_EQ(check("r.json", std::string("--require ") + wrong), 1) << wrong << "\n" << out_;
    EXPECT_NE(out_.find("not found"), std::string::npos) << out_;
  }
  EXPECT_EQ(check("r.json", "--require flight:retry"), 1) << "a clean run has no retry event";
  EXPECT_EQ(check("r.json", "--require decide"), 1) << "a report --require needs a section";
  EXPECT_NE(out_.find("needs a section"), std::string::npos) << out_;
  EXPECT_EQ(check("r.json", "--require health:level"), 1) << "health names nothing to require";
  EXPECT_EQ(check("r.json", "--require governor:budget"), 1) << out_;
  EXPECT_EQ(check("t.json", "--require no-such-span"), 1) << out_;
  EXPECT_EQ(check("t.json", "--require metrics:phase1"), 1) << "Chrome names stay bare";
}

TEST_F(TraceCheck, BudgetAndRanksBindTheirSections) {
  detect("--trace-out " + path("t.json") + " --report-out " + path("r.json"));
  const double peak = load("r.json").at("mem").at("totals").at("peak_live_bytes").number;
  const auto bytes = [](double b) { return std::to_string(static_cast<unsigned long long>(b)); };
  EXPECT_EQ(check("r.json", "--budget " + bytes(peak)), 0) << out_;
  EXPECT_EQ(check("r.json", "--budget " + bytes(peak - 1)), 1) << out_;
  EXPECT_NE(out_.find("exceeds the budget"), std::string::npos) << out_;

  // A timeline epoch over the budget fails even when the high-water is under it.
  JsonValue doc = load("r.json");
  JsonValue& epoch = at(at(doc, "mem"), "timeline").array[0];
  at(epoch, "total") = number(peak + 1);
  at(epoch, "subsystems").object = {{"graph", number(peak + 1)}};
  save("over.json", doc);
  EXPECT_EQ(check("over.json", "--budget " + bytes(peak)), 1) << out_;
  EXPECT_NE(out_.find("exceeds the budget"), std::string::npos) << out_;

  EXPECT_EQ(check("r.json", "--ranks 4"), 1) << "a single-device flight window has no ranks";
  EXPECT_EQ(check("t.json", "--ranks 4"), 1) << "a single-device trace has no rank tracks";
  EXPECT_EQ(check("t.json", "--budget 1"), 1) << "a Chrome trace has no mem section";
  doc.object.erase(doc.object.begin() + 1, doc.object.end() - 1);  // keep schema + provenance
  save("bare.json", doc);
  EXPECT_EQ(check("bare.json"), 0) << out_;
  EXPECT_EQ(check("bare.json", "--budget 1"), 1) << out_;
  EXPECT_EQ(check("bare.json", "--ranks 1"), 1) << out_;
}

TEST_F(TraceCheck, AFailedRunLeavesAValidFlightOnlyReport) {
  {
    std::ofstream plan(path("plan.json"));
    plan << R"({"seed": 42, "rules": [{"site": "kernel-launch", "max_fires": 1}]})";
  }
  std::string out;
  // Strict mode fails closed on the fault: the only report is the incident's.
  EXPECT_NE(exec(GALA_CLI_PATH,
                 "detect standin:HW:0.05 --strict --faults " + path("plan.json") +
                     " --report-out " + path("fatal.json"),
                 &out),
            0)
      << out;
  EXPECT_EQ(check("fatal.json", "--require flight:fault-fire"), 0) << out_;
  const JsonValue fatal = load("fatal.json");
  EXPECT_EQ(fatal.find("run"), nullptr) << "the run never finished";
  EXPECT_EQ(fatal.at("flight").at("reason").string.rfind("fatal", 0), 0u);

  // A recovered run's end-of-run report overwrites the incident dump and keeps
  // its events.
  detect("--faults " + path("plan.json") + " --report-out " + path("recovered.json"));
  EXPECT_EQ(check("recovered.json", "--require flight:fault-fire --require flight:retry"), 0)
      << out_;
  EXPECT_EQ(load("recovered.json").at("flight").at("reason").string, "end-of-run");
}

}  // namespace
