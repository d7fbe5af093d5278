// gala::telemetry::FlightRecorder: ring wrap-around, the global event clock,
// concurrent wait-free writers (exercised under TSan in CI), drain-while-armed
// consistency, post-mortem JSON round-trips through the DOM parser, and the
// chaos contract that every injected fault leaves a non-empty dump.
#include "gala/telemetry/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "gala/common/json.hpp"
#include "gala/core/gala.hpp"
#include "gala/resilience/supervisor.hpp"
#include "gala/scope/run_scope.hpp"
#include "test_util.hpp"

namespace gala::telemetry {
namespace {

/// Every test runs in its own scope, so it starts with an empty, armed
/// recorder at the default depth.
class FlightRecorderTest : public ::testing::Test {
 protected:
  RunScope scope;
  FlightRecorder& rec = scope.flight();
};

TEST_F(FlightRecorderTest, RecordsAndDrainsInSeqOrder) {
  rec.record(FlightKind::LevelBegin, 0, 100);
  rec.record(FlightKind::IterationBegin, 0, 100);
  rec.record(FlightKind::IterationEnd, 0.5, 0.1);

  const auto events = rec.drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FlightKind::LevelBegin);
  EXPECT_EQ(events[1].kind, FlightKind::IterationBegin);
  EXPECT_EQ(events[2].kind, FlightKind::IterationEnd);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_DOUBLE_EQ(events[2].a, 0.5);
  EXPECT_DOUBLE_EQ(events[2].b, 0.1);
  EXPECT_EQ(events[0].rank, -1);  // no ambient RankScope in this test
  EXPECT_EQ(rec.recorded(), 3u);
}

TEST_F(FlightRecorderTest, DisarmedRecordsNothing) {
  rec.disarm();
  flight(FlightKind::Apply, 1, 2);  // the helper checks the armed flag
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.drain().empty());
}

TEST_F(FlightRecorderTest, SmallRingWrapsKeepingNewestEvents) {
  rec.set_depth(8);  // minimum depth; also a power of two
  ASSERT_EQ(rec.depth(), 8u);

  for (int i = 0; i < 100; ++i) {
    rec.record(FlightKind::Apply, static_cast<double>(i), 0);
  }
  const auto events = rec.drain();
  // One writer thread: exactly the last `depth` events survive, in order.
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].a, static_cast<double>(92 + i));
  }
  EXPECT_EQ(rec.recorded(), 100u);
}

TEST_F(FlightRecorderTest, DepthRoundsUpToPowerOfTwo) {
  rec.set_depth(9);
  EXPECT_EQ(rec.depth(), 16u);
  rec.set_depth(1);
  EXPECT_EQ(rec.depth(), 8u);  // floor
}

TEST_F(FlightRecorderTest, RankScopeTagsEvents) {
  {
    RankScope rank(3);
    flight(FlightKind::SyncPost, 0, 128);
  }
  flight(FlightKind::SyncComplete, 0, 5, /*rank=*/1);  // explicit beats ambient
  const auto events = rec.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_EQ(events[1].rank, 1);
}

TEST_F(FlightRecorderTest, ConcurrentWritersProduceUniqueOrderedSeqs) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.record(FlightKind::Decide, static_cast<double>(t), static_cast<double>(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto events = rec.drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::set<std::uint64_t> seqs;
  std::set<std::uint16_t> tids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    seqs.insert(events[i].seq);
    tids.insert(events[i].tid);
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);  // drain sorts by seq
    }
  }
  EXPECT_EQ(seqs.size(), events.size());  // the clock never hands out duplicates
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(FlightRecorderTest, KindTotalsSurviveRingWrapAcrossThreads) {
  rec.set_depth(8);  // every thread laps its ring many times over
  constexpr int kThreads = 4;
  const FlightKind kinds[] = {FlightKind::Retry, FlightKind::FaultFire, FlightKind::Apply};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Kind k gets (k + 1) * 100 appends from each thread, interleaved.
      for (int i = 0; i < 300; ++i) {
        for (int k = 0; k < 3; ++k) {
          if (i < (k + 1) * 100) rec.record(kinds[k], static_cast<double>(t), i);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_LE(rec.drain().size(), kThreads * rec.depth());
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(rec.count(kinds[k]), static_cast<std::uint64_t>(kThreads * (k + 1) * 100))
        << to_string(kinds[k]);
  }
  EXPECT_EQ(rec.count(FlightKind::Rollback), 0u);
  EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(kThreads * 600));

  const JsonValue doc = parse_json(rec.json("wrapped"));
  const JsonValue& counts = doc.at("counts");
  EXPECT_EQ(counts.object.size(), 3u) << "kinds never recorded are absent";
  EXPECT_EQ(counts.at("retry").number, kThreads * 100);
  EXPECT_EQ(counts.at("fault-fire").number, kThreads * 200);
  EXPECT_EQ(counts.at("apply").number, kThreads * 300);

  rec.reset();
  for (const FlightKind kind : kinds) EXPECT_EQ(rec.count(kind), 0u);
}

TEST_F(FlightRecorderTest, DrainWhileWritersAppendNeverTearsEvents) {
  rec.set_depth(64);  // small ring maximizes lapping during the copy
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      rec.record(FlightKind::Apply, static_cast<double>(i & 0xffff), 1.0);
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    const auto events = rec.drain();
    // Lapped slots are discarded, never returned torn: every surviving event
    // carries the payload shape the writer stores.
    std::uint64_t prev = 0;
    for (const auto& e : events) {
      EXPECT_EQ(e.kind, FlightKind::Apply);
      EXPECT_DOUBLE_EQ(e.b, 1.0);
      EXPECT_GE(e.a, 0.0);
      EXPECT_LT(e.a, 65536.0);
      if (prev != 0) {
        EXPECT_LT(prev, e.seq);
      }
      prev = e.seq;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST_F(FlightRecorderTest, ResetForgetsEventsAndRestartsClock) {
  rec.record(FlightKind::Apply);
  rec.record(FlightKind::Apply);
  rec.reset();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.drain().empty());
  rec.record(FlightKind::Prune, 10, 2);
  const auto events = rec.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FlightKind::Prune);
}

TEST_F(FlightRecorderTest, PostMortemJsonRoundTripsThroughParser) {
  {
    RankScope rank(2);
    rec.record(FlightKind::FaultFire, 1, 1);
  }
  rec.record(FlightKind::Retry, 0, 1);
  rec.record(FlightKind::Rollback, 3, 0.42);

  const JsonValue doc = parse_json(rec.json("test \"quoted\"\nreason"));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("flight_schema").number, FlightRecorder::kSchema);
  // Escaping hardening: the reason survives quotes and newlines intact.
  EXPECT_EQ(doc.at("reason").string, "test \"quoted\"\nreason");
  EXPECT_EQ(doc.at("recorded").number, 3);
  EXPECT_EQ(doc.at("dropped").number, 0);
  const JsonValue& counts = doc.at("counts");
  EXPECT_EQ(counts.object.size(), 3u);
  for (const char* kind : {"fault-fire", "retry", "rollback"}) {
    EXPECT_EQ(counts.at(kind).number, 1) << kind;
  }
  const auto& events = doc.at("events").array;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("kind").string, "fault-fire");
  EXPECT_EQ(events[0].at("rank").number, 2);
  EXPECT_EQ(events[1].at("kind").string, "retry");
  EXPECT_EQ(events[2].at("kind").string, "rollback");
  EXPECT_DOUBLE_EQ(events[2].at("b").number, 0.42);
  double prev = -1;
  for (const auto& e : events) {
    EXPECT_GT(e.at("seq").number, prev);
    prev = e.at("seq").number;
  }
}

TEST_F(FlightRecorderTest, JsonLastNKeepsOnlyNewestEvents) {
  for (int i = 0; i < 10; ++i) rec.record(FlightKind::Apply, static_cast<double>(i), 0);
  const JsonValue doc = parse_json(rec.json("window", /*last_n=*/4));
  const auto& events = doc.at("events").array;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events[0].at("a").number, 6);
  EXPECT_DOUBLE_EQ(events[3].at("a").number, 9);
}

// ---------------------------------------------------------------------------
// Chaos contract: every injected fault leaves a non-empty post-mortem window.

TEST_F(FlightRecorderTest, EngineRunRecordsIterationEvents) {
  const auto g = gala::testing::small_planted();
  core::GalaConfig cfg;
  (void)core::run_louvain(g, cfg);

  std::set<FlightKind> kinds;
  for (const auto& e : rec.drain()) kinds.insert(e.kind);
  EXPECT_TRUE(kinds.count(FlightKind::LevelBegin));
  EXPECT_TRUE(kinds.count(FlightKind::IterationBegin));
  EXPECT_TRUE(kinds.count(FlightKind::Decide));
  EXPECT_TRUE(kinds.count(FlightKind::Apply));
  EXPECT_TRUE(kinds.count(FlightKind::IterationEnd));
}

TEST_F(FlightRecorderTest, EveryInjectedFaultProducesNonEmptyPostMortem) {
  const auto g = gala::testing::small_planted();

  resilience::FaultPlan plan;
  plan.seed = 7;
  resilience::FaultRule r;
  r.site = resilience::FaultSite::KernelLaunch;
  r.max_fires = 1;
  plan.rules.push_back(r);
  scope.faults().arm(plan);

  const gala::testing::ScopedTempDir tmp;
  const std::string path = tmp.file("flight_chaos.json");
  resilience::SupervisorConfig sup;
  sup.flight_dump_path = path;
  const auto result = resilience::run_louvain_supervised(g, {}, sup);
  EXPECT_EQ(result.retries, 1);

  // The supervisor dumped the window at the retry decision as a flight-only
  // run report; it must exist, parse, and contain the fault and the retry
  // that answered it.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonValue report = parse_json(ss.str());
  EXPECT_NE(report.find("report_schema"), nullptr);
  const JsonValue& doc = report.at("flight");
  EXPECT_EQ(doc.at("flight_schema").number, FlightRecorder::kSchema);
  const auto& events = doc.at("events").array;
  ASSERT_FALSE(events.empty());
  bool saw_fault = false, saw_retry = false;
  for (const auto& e : events) {
    saw_fault |= e.at("kind").string == "fault-fire";
    saw_retry |= e.at("kind").string == "retry";
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_retry);
  EXPECT_NE(doc.at("reason").string.find("retry"), std::string::npos);
}

TEST_F(FlightRecorderTest, KindNamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (std::size_t k = 1; k < kFlightKinds; ++k) {
    const char* name = to_string(static_cast<FlightKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    EXPECT_NE(std::string(name), "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kFlightKinds - 1);
}

}  // namespace
}  // namespace gala::telemetry
