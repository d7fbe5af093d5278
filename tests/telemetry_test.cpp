// gala::telemetry: span tracing, the counter/gauge/histogram registry, the
// sinks, JSON export validity (parsed back with gala::parse_json), and the
// pipeline instrumentation contract (span payloads match Phase1Result).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "gala/common/json.hpp"
#include "gala/core/bsp_louvain.hpp"
#include "gala/core/gala.hpp"
#include "gala/graph/generators.hpp"
#include "gala/scope/run_scope.hpp"
#include "test_util.hpp"

namespace gala {
namespace {

namespace fs = std::filesystem;
using telemetry::Registry;
using telemetry::ScopedSpan;
using telemetry::SpanRecord;
using telemetry::Tracer;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// JSON parser (common/json.hpp).

TEST(JsonParser, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("a \"quoted\" string\nwith newline");
  w.key("n").value(std::uint64_t{42});
  w.key("x").value(2.5);
  w.key("flag").value(true);
  w.key("list").begin_array().value(1).value(2).value(3).end_array();
  w.key("nested").begin_object().key("empty").begin_array().end_array().end_object();
  w.end_object();

  const JsonValue doc = parse_json(w.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("name").string, "a \"quoted\" string\nwith newline");
  EXPECT_EQ(doc.at("n").number, 42);
  EXPECT_EQ(doc.at("x").number, 2.5);
  EXPECT_TRUE(doc.at("flag").boolean);
  ASSERT_EQ(doc.at("list").array.size(), 3u);
  EXPECT_EQ(doc.at("list").array[2].number, 3);
  EXPECT_TRUE(doc.at("nested").at("empty").is_array());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParser, AcceptsEscapesAndNegativeExponents) {
  const JsonValue doc = parse_json(R"({"u":"A\t","neg":-1.5e-3,"null":null})");
  EXPECT_EQ(doc.at("u").string, "A\t");
  EXPECT_DOUBLE_EQ(doc.at("neg").number, -1.5e-3);
  EXPECT_TRUE(doc.at("null").is_null());
}

TEST(JsonParser, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("{\"a\":}"), Error);
  EXPECT_THROW(parse_json("[1,2,]extra"), Error);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), Error);
  EXPECT_THROW(parse_json("nope"), Error);
}

// ---------------------------------------------------------------------------
// Span recording.

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer;  // null-sink default: disabled
  ASSERT_FALSE(tracer.enabled());
  {
    ScopedSpan span(tracer, "outer");
    span.arg("x", 1.0);
    EXPECT_FALSE(span.active());
    ScopedSpan inner(tracer, "inner");
  }
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(Tracer, RecordsNestedSpansWithDepthAndOrder) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan outer(tracer, "outer", "test");
    {
      ScopedSpan mid(tracer, "mid", "test");
      ScopedSpan leaf(tracer, "leaf", "test");
    }
    ScopedSpan sibling(tracer, "sibling", "test");
  }

  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Completion order: innermost first.
  EXPECT_EQ(spans[0].name, "leaf");
  EXPECT_EQ(spans[1].name, "mid");
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[3].name, "outer");

  const auto find = [&](const std::string& name) {
    for (const auto& s : spans) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "span " << name << " missing";
    return SpanRecord{};
  };
  const SpanRecord outer = find("outer"), mid = find("mid"), leaf = find("leaf"),
                   sibling = find("sibling");
  // Begin order via seq, nesting via depth, containment via timestamps.
  EXPECT_LT(outer.seq, mid.seq);
  EXPECT_LT(mid.seq, leaf.seq);
  EXPECT_LT(leaf.seq, sibling.seq);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(mid.depth, 1u);
  EXPECT_EQ(leaf.depth, 2u);
  EXPECT_EQ(sibling.depth, 1u);
  EXPECT_LE(outer.start_us, mid.start_us);
  EXPECT_LE(mid.start_us + mid.dur_us, outer.start_us + outer.dur_us + 1e3);
  EXPECT_GE(outer.dur_us, leaf.dur_us);
}

TEST(Tracer, SpanArgsAreAttached) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan span(tracer, "k", "kernel");
    EXPECT_TRUE(span.active());
    span.arg("global_reads", 128);
    span.arg("modeled_cycles", 51200);
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].args.size(), 2u);
  EXPECT_EQ(spans[0].args[0].first, "global_reads");
  EXPECT_EQ(spans[0].args[0].second, 128);
}

TEST(Tracer, ConcurrentSpansFromManyThreads) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 8, kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span(tracer, "work", "mt");
        ScopedSpan inner(tracer, "inner", "mt");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.span_count(), static_cast<std::size_t>(kThreads * kSpansPerThread * 2));
  // The trace must still be valid JSON.
  const JsonValue doc = parse_json(tracer.chrome_trace_json());
  EXPECT_EQ(doc.at("traceEvents").array.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread * 2));
}

TEST(Tracer, RetentionCapCountsDrops) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_max_spans(3);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span(tracer, "s");
  }
  EXPECT_EQ(tracer.span_count(), 3u);
  EXPECT_EQ(tracer.dropped(), 7u);
  tracer.reset();
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Exports.

TEST(Tracer, ChromeTraceJsonIsValidAndOrdered) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan a(tracer, "first", "phase");
    ScopedSpan b(tracer, "second", "kernel");
    b.arg("bytes", 64);
  }
  const JsonValue doc = parse_json(tracer.chrome_trace_json());
  ASSERT_TRUE(doc.is_object());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.array.size(), 2u);
  // Sorted by begin order despite completion-order recording.
  EXPECT_EQ(events.array[0].at("name").string, "first");
  EXPECT_EQ(events.array[1].at("name").string, "second");
  for (const auto& e : events.array) {
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_TRUE(e.at("args").is_object());
  }
  EXPECT_EQ(events.array[1].at("args").at("bytes").number, 64);
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
}

TEST(Tracer, ChromeTraceEscapesHostileSpanContent) {
  // Span names/args with quotes, backslashes, newlines, and control bytes
  // must survive the writer -> DOM parser round trip byte-for-byte.
  const std::string hostile = "evil \"name\" \\ with\nnewline\tand \x01 control";
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan span(tracer, hostile, "cat\"egory");
    span.arg("bytes", 64);
  }
  const JsonValue doc = parse_json(tracer.chrome_trace_json());
  const JsonValue& e = doc.at("traceEvents").array[0];
  EXPECT_EQ(e.at("name").string, hostile);
  EXPECT_EQ(e.at("cat").string, "cat\"egory");
  EXPECT_EQ(e.at("args").at("bytes").number, 64);
  // The summary document goes through the same escaping.
  const JsonValue summary = parse_json(tracer.summary_json());
  EXPECT_NE(summary.at("spans").find("cat\"egory/" + hostile), nullptr);
}

TEST(Tracer, RankScopeCreatesPerRankTracksWithMetadata) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan host(tracer, "host-side", "cli");
  }
  for (int rank = 0; rank < 2; ++rank) {
    telemetry::RankScope scope(rank);
    ScopedSpan span(tracer, "decide", "multigpu");
  }
  const JsonValue doc = parse_json(tracer.chrome_trace_json());
  std::set<double> pids;
  std::map<double, std::string> track_names;
  for (const auto& e : doc.at("traceEvents").array) {
    if (e.at("ph").string == "X") pids.insert(e.at("pid").number);
    if (e.at("ph").string == "M" && e.at("name").string == "process_name") {
      track_names[e.at("pid").number] = e.at("args").at("name").string;
    }
  }
  // Host spans on pid 0, rank r on pid r+1, and every track is named.
  EXPECT_EQ(pids, (std::set<double>{0, 1, 2}));
  EXPECT_EQ(track_names.at(0), "host");
  EXPECT_EQ(track_names.at(1), "rank 0");
  EXPECT_EQ(track_names.at(2), "rank 1");
}

TEST(Tracer, HostOnlyTraceKeepsLegacyShapeWithoutMetadata) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan span(tracer, "solo", "test");
  }
  const JsonValue doc = parse_json(tracer.chrome_trace_json());
  ASSERT_EQ(doc.at("traceEvents").array.size(), 1u);  // no "M" events
  EXPECT_EQ(doc.at("traceEvents").array[0].at("ph").string, "X");
}

TEST(Tracer, FlowArrowsLinkPostToComplete) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    telemetry::RankScope scope(0);
    ScopedSpan post(tracer, "post_gather", "multigpu");
    post.flow_out(42);
  }
  {
    telemetry::RankScope scope(1);
    ScopedSpan complete(tracer, "complete_gather", "multigpu");
    complete.flow_in(42);
  }
  const JsonValue doc = parse_json(tracer.chrome_trace_json());
  const JsonValue* start = nullptr;
  const JsonValue* finish = nullptr;
  for (const auto& e : doc.at("traceEvents").array) {
    if (e.at("ph").string == "s") start = &e;
    if (e.at("ph").string == "f") finish = &e;
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(finish, nullptr);
  EXPECT_EQ(start->at("id").number, 42);
  EXPECT_EQ(finish->at("id").number, 42);
  EXPECT_EQ(finish->at("bp").string, "e");
  EXPECT_EQ(start->at("pid").number, 1);   // rank 0's track
  EXPECT_EQ(finish->at("pid").number, 2);  // rank 1's track
  // The arrow starts at the posting span's end and lands at the completing
  // span's begin: ts(start) <= ts(finish).
  EXPECT_LE(start->at("ts").number, finish->at("ts").number);
}

TEST(Tracer, SummaryAggregatesByCategoryAndName) {
  Tracer tracer;
  tracer.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, "decide", "phase1");
    span.arg("modeled_ms", 2.0);
  }
  {
    ScopedSpan span(tracer, "decide", "kernel");  // same name, other category
  }
  const JsonValue doc = parse_json(tracer.summary_json());
  const JsonValue& agg = doc.at("spans").at("phase1/decide");
  EXPECT_EQ(agg.at("count").number, 3);
  EXPECT_DOUBLE_EQ(agg.at("args").at("modeled_ms").number, 6.0);
  EXPECT_EQ(doc.at("spans").at("kernel/decide").at("count").number, 1);
}

// ---------------------------------------------------------------------------
// Sinks.

TEST(Sinks, ChromeTraceSinkWritesParseableFile) {
  const testing::ScopedTempDir tmp;
  const fs::path path = tmp.path() / "sink_chrome.json";
  Tracer tracer;
  tracer.add_sink(std::make_shared<telemetry::ChromeTraceSink>(path.string()));
  EXPECT_TRUE(tracer.enabled());  // add_sink enables
  {
    ScopedSpan span(tracer, "synced", "test");
  }
  tracer.flush_sinks();
  const JsonValue doc = parse_json(read_file(path.string()));
  ASSERT_EQ(doc.at("traceEvents").array.size(), 1u);
  EXPECT_EQ(doc.at("traceEvents").array[0].at("name").string, "synced");
}

// ---------------------------------------------------------------------------
// Registry.

TEST(Registry, CountersAggregateAcrossThreads) {
  Registry registry;
  constexpr int kThreads = 8, kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      auto& counter = registry.counter("work.items");  // cached lookup per thread
      for (int i = 0; i < kAdds; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("work.items").value(),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Registry, HistogramLog2BucketsAndThreadedObserve) {
  using telemetry::Histogram;
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(Histogram::bucket_lo(11), 1024u);

  Registry registry;
  constexpr int kThreads = 4, kObs = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      auto& h = registry.histogram("degrees");
      for (int i = 0; i < kObs; ++i) h.observe(static_cast<std::uint64_t>(i % 8));
    });
  }
  for (auto& t : threads) t.join();
  auto& h = registry.histogram("degrees");
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kObs);
  // i%8 hits 0 once per 8, 1 once, [2,4) twice, [4,8) four times.
  EXPECT_EQ(h.bucket_count(0), static_cast<std::uint64_t>(kThreads) * kObs / 8);
  EXPECT_EQ(h.bucket_count(2), static_cast<std::uint64_t>(kThreads) * kObs / 4);
  EXPECT_EQ(h.bucket_count(3), static_cast<std::uint64_t>(kThreads) * kObs / 2);
}

TEST(Registry, HistogramBulkObserveAndPercentiles) {
  using telemetry::Histogram;
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty histogram
  h.observe_n(1, 90);
  h.observe_n(1024, 10);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 90u + 10u * 1024u);
  // Ranks 1..90 live in the value-1 bucket; ranks 91..100 in [1024, 2048).
  EXPECT_EQ(h.percentile(0.50), 1u);
  EXPECT_EQ(h.percentile(0.90), 1u);
  EXPECT_EQ(h.percentile(0.95), 1024u);
  EXPECT_EQ(h.percentile(0.99), 1024u);
  EXPECT_EQ(h.percentile(1.0), 1024u);
  EXPECT_EQ(h.percentile(0.0), 1u);  // clamps to the first observation
  h.observe_n(5, 0);                 // zero-count bulk observe is a no-op
  EXPECT_EQ(h.count(), 100u);
}

TEST(Registry, PercentilesAreBucketLowerBounds) {
  telemetry::Histogram h;
  for (int i = 0; i < 10; ++i) h.observe(6);  // bucket [4, 8)
  EXPECT_EQ(h.percentile(0.5), 4u);
  EXPECT_EQ(h.percentile(0.99), 4u);
}

TEST(Registry, JsonExportCarriesPercentileSummaries) {
  Registry registry;
  auto& h = registry.histogram("probe.len");
  h.observe_n(1, 90);
  h.observe_n(16, 10);
  const JsonValue doc = parse_json(registry.json());
  const JsonValue& hist = doc.at("histograms").at("probe.len");
  EXPECT_EQ(hist.at("p50").number, 1);
  EXPECT_EQ(hist.at("p95").number, 16);
  EXPECT_EQ(hist.at("p99").number, 16);
}

TEST(Registry, GaugeSetAndAdd) {
  Registry registry;
  registry.gauge("occupancy").set(0.5);
  registry.gauge("occupancy").add(0.25);
  EXPECT_DOUBLE_EQ(registry.gauge("occupancy").value(), 0.75);
  registry.reset();
  EXPECT_DOUBLE_EQ(registry.gauge("occupancy").value(), 0.0);
}

TEST(Registry, JsonExportListsInstruments) {
  Registry registry;
  registry.counter("a.count").add(5);
  registry.gauge("b.gauge").set(1.5);
  registry.histogram("c.hist").observe(9);
  const JsonValue doc = parse_json(registry.json());
  EXPECT_EQ(doc.at("counters").at("a.count").number, 5);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("b.gauge").number, 1.5);
  const JsonValue& hist = doc.at("histograms").at("c.hist");
  EXPECT_EQ(hist.at("count").number, 1);
  EXPECT_EQ(hist.at("sum").number, 9);
  ASSERT_EQ(hist.at("buckets").array.size(), 1u);
  EXPECT_EQ(hist.at("buckets").array[0].at("lo").number, 8);
}

TEST(Tracer, SummaryFoldsEachArgByItsRollup) {
  Tracer tracer;
  tracer.set_enabled(true);
  const double parts[][2] = {{3, 4}, {1, 16}};  // (requests, transactions)
  const double modularity[] = {0.4, 0.7};
  for (int i = 0; i < 2; ++i) {
    ScopedSpan span(tracer, "launch", "kernel");
    span.arg("gather_requests", parts[i][0]);
    span.arg("gather_transactions", parts[i][1]);
    span.ratio_arg("coalescing_efficiency", parts[i][0] / parts[i][1], "gather_requests",
                   "gather_transactions");
    span.ratio_arg("empty_ratio", 0.5, "gather_requests", "never_set");
    span.last_arg("modularity", modularity[i]);
  }
  const JsonValue doc = parse_json(tracer.summary_json());
  const JsonValue& args = doc.at("spans").at("kernel/launch").at("args");
  EXPECT_EQ(args.at("gather_requests").number, 4);
  EXPECT_EQ(args.at("gather_transactions").number, 20);
  EXPECT_DOUBLE_EQ(args.at("coalescing_efficiency").number, 4.0 / 20.0);  // not 0.75 + 0.0625
  EXPECT_EQ(args.at("empty_ratio").number, 0.5);  // zero denominator: the last value
  EXPECT_EQ(args.at("modularity").number, 0.7);
}

// ---------------------------------------------------------------------------
// Pipeline instrumentation contract.

TEST(PipelineTelemetry, Phase1SpansMatchPhase1Result) {
  RunScope scope;
  auto& tracer = scope.tracer();
  tracer.set_enabled(true);

  graph::PlantedPartitionParams params;
  params.num_vertices = 300;
  params.num_communities = 6;
  params.avg_degree = 12;
  params.mixing = 0.1;
  params.seed = 5;
  const graph::Graph g = graph::planted_partition(params, nullptr);

  core::BspConfig cfg;
  cfg.parallel = false;  // deterministic sequential launches
  const core::Phase1Result result = core::bsp_phase1(g, cfg);
  tracer.set_enabled(false);

  const JsonValue doc = parse_json(tracer.summary_json());
  const JsonValue& spans = doc.at("spans");

  // One span per iteration for each phase.
  const double iters = static_cast<double>(result.iterations.size());
  EXPECT_EQ(spans.at("phase1/iteration").at("count").number, iters);
  EXPECT_EQ(spans.at("phase1/pruning").at("count").number, iters);
  EXPECT_EQ(spans.at("phase1/decide").at("count").number, iters);
  EXPECT_EQ(spans.at("phase1/weight-update").at("count").number, iters);
  EXPECT_EQ(spans.at("phase1/bookkeeping").at("count").number, iters);

  // Modeled-cycle payloads must sum to exactly the Phase1Result figures.
  EXPECT_NEAR(spans.at("phase1/decide").at("args").at("modeled_ms").number,
              result.decide_modeled_ms, 1e-12);
  EXPECT_NEAR(spans.at("phase1/weight-update").at("args").at("modeled_ms").number,
              result.update_modeled_ms, 1e-12);
  EXPECT_NEAR(spans.at("phase1/bookkeeping").at("args").at("modeled_ms").number,
              result.other_modeled_ms, 1e-12);

  // Kernel launches carry their MemoryStats snapshot; summed kernel traffic
  // equals the engine's decide traffic.
  double kernel_reads = 0;
  const JsonValue* shuffle = spans.find("kernel/decide_shuffle");
  const JsonValue* hash = spans.find("kernel/decide_hash");
  ASSERT_TRUE(shuffle != nullptr || hash != nullptr);
  for (const JsonValue* k : {shuffle, hash}) {
    if (k != nullptr) kernel_reads += k->at("args").at("global_reads").number;
  }
  std::uint64_t decide_reads = 0;
  for (const auto& it : result.iterations) decide_reads += it.decide_traffic.global_reads;
  EXPECT_EQ(kernel_reads, static_cast<double>(decide_reads));
}

TEST(PipelineTelemetry, SummaryRatiosComeFromSummedParts) {
  RunScope scope;
  auto& tracer = scope.tracer();
  tracer.set_enabled(true);
  graph::PlantedPartitionParams params;
  params.num_vertices = 300;
  params.num_communities = 6;
  params.avg_degree = 12;
  params.mixing = 0.1;
  params.seed = 5;
  const graph::Graph g = graph::planted_partition(params, nullptr);
  core::BspConfig cfg;
  cfg.parallel = false;
  cfg.shuffle_degree_limit = 12;  // both kernels launch every iteration
  const core::Phase1Result result = core::bsp_phase1(g, cfg);
  tracer.set_enabled(false);
  const JsonValue doc = parse_json(tracer.summary_json());

  struct Ratio {
    const char* key;
    const char* numerator;
    const char* denominator;
    bool efficiency;  // bounded by 1
  };
  const Ratio ratios[] = {
      {"coalescing_efficiency", "gather_requests", "gather_transactions", true},
      {"transactions_per_gather", "gather_transactions", "gather_requests", false},
      {"divergence_efficiency", "simt_active_lanes", "simt_lane_slots", true},
      {"bank_conflict_factor", "shared_waves", "shared_requests", false},
      {"ht_mean_probe_length", "ht_probes", "ht_lookups", false},
      {"ht_maintenance_rate", "ht_maintain_shared", "ht_maintained", true},
      {"ht_access_rate", "ht_access_shared", "ht_accesses", true},
  };
  std::set<std::string> checked;
  for (const auto& [name, span] : doc.at("spans").object) {
    if (span.at("count").number < 2) continue;  // the rollup is only tested over many launches
    const JsonValue& args = span.at("args");
    for (const Ratio& r : ratios) {
      const JsonValue* v = args.find(r.key);
      if (v == nullptr) continue;
      const double want = args.at(r.numerator).number / args.at(r.denominator).number;
      EXPECT_DOUBLE_EQ(v->number, want) << name << " " << r.key;
      if (r.efficiency) {
        EXPECT_LE(v->number, 1.0) << name << " " << r.key;
      }
      checked.insert(r.key);
    }
  }
  for (const char* key : {"coalescing_efficiency", "transactions_per_gather",
                          "divergence_efficiency", "bank_conflict_factor",
                          "ht_mean_probe_length"}) {
    EXPECT_EQ(checked.count(key), 1u) << key << " never rolled up over >= 2 launches";
  }
  // States and identifiers roll up as their last value.
  const JsonValue& iteration = doc.at("spans").at("phase1/iteration");
  ASSERT_GE(iteration.at("count").number, 3);  // a sum of indices 0..n-1 would exceed n-1
  EXPECT_EQ(iteration.at("args").at("modularity").number, result.iterations.back().modularity);
  EXPECT_EQ(iteration.at("args").at("delta_q").number, result.iterations.back().delta_q);
  EXPECT_EQ(iteration.at("args").at("iteration").number,
            static_cast<double>(result.iterations.size() - 1));
}

TEST(PipelineTelemetry, LevelIdentifiersRollUpAsLastValues) {
  RunScope scope;
  auto& tracer = scope.tracer();
  tracer.set_enabled(true);
  graph::PlantedPartitionParams params;
  params.num_vertices = 600;
  params.num_communities = 12;
  params.avg_degree = 12;
  params.mixing = 0.2;
  params.seed = 5;
  const graph::Graph g = graph::planted_partition(params, nullptr);
  const core::GalaResult result = core::run_louvain(g);
  tracer.set_enabled(false);
  const JsonValue doc = parse_json(tracer.summary_json());

  // Level indices and community counts are states: summed over levels they
  // would read as a level that never ran and communities that never existed.
  ASSERT_GE(result.levels.size(), 2u);
  const JsonValue& level = doc.at("spans").at("pipeline/level");
  EXPECT_EQ(level.at("count").number, static_cast<double>(result.levels.size()));
  EXPECT_EQ(level.at("args").at("level").number, static_cast<double>(result.levels.size() - 1));
  EXPECT_EQ(level.at("args").at("communities").number,
            static_cast<double>(result.levels.back().communities));
  EXPECT_EQ(doc.at("spans").at("pipeline/phase1").at("args").at("communities").number,
            static_cast<double>(result.levels.back().communities));
  // Vertices are work done: they stay a sum over the levels.
  double vertices = 0;
  for (const auto& lv : result.levels) vertices += lv.vertices;
  EXPECT_EQ(level.at("args").at("vertices").number, vertices);
}

TEST(PipelineTelemetry, MetricsJsonCombinesSpansAndRegistry) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan span(tracer, "s", "c");
  }
  Registry registry;
  registry.counter("n").add(2);
  const JsonValue doc = parse_json(telemetry::metrics_json(tracer, registry));
  EXPECT_EQ(doc.at("spans").at("c/s").at("count").number, 1);
  EXPECT_EQ(doc.at("counters").at("n").number, 2);
  EXPECT_TRUE(doc.at("histograms").is_object());
}

}  // namespace
}  // namespace gala
