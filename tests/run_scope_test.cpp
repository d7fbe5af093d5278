// gala::RunScope: one run's observers, inherited by the pool workers that run
// its chunks and by its distributed rank threads. Two runs on two threads of
// one process each report what their solo run reports, and a pool worker
// that serves two live scopes keeps one flight ring in each.
#include "gala/scope/run_scope.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gala/common/json.hpp"
#include "gala/common/thread_pool.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/bsp_louvain.hpp"
#include "gala/graph/generators.hpp"
#include "gala/metrics/health.hpp"
#include "gala/metrics/report.hpp"
#include "gala/multigpu/dist_louvain.hpp"
#include "test_util.hpp"

namespace gala {
namespace {

TEST(RunScope, PoolBodiesAndRankThreadsSeeTheCallersScope) {
  RunScope scope;
  EXPECT_EQ(&RunScope::current(), &scope);

  std::mutex mutex;
  std::set<const RunScope*> seen;
  std::set<std::thread::id> threads;
  ThreadPool pool(4);
  pool.parallel_for_chunked(
      0, 256,
      [&](std::size_t, std::size_t) {
        std::lock_guard lock(mutex);
        seen.insert(&RunScope::current());
        threads.insert(std::this_thread::get_id());
      },
      /*grain=*/1);
  EXPECT_EQ(seen, std::set<const RunScope*>{&scope});
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u) << "chunks run on pool workers";

  // Rank threads record into the caller's scope: every rank's flight events
  // land in this scope's recorder.
  multigpu::DistributedConfig cfg;
  cfg.num_gpus = 4;
  cfg.overlap = true;
  (void)multigpu::distributed_phase1(testing::small_planted(), cfg);
  std::set<int> ranks;
  for (const auto& e : scope.flight().drain()) ranks.insert(e.rank);
  for (const int r : {0, 1, 2, 3}) EXPECT_EQ(ranks.count(r), 1u) << "rank " << r;
  EXPECT_GT(scope.memory().report().peak_total_bytes(), 0u);
}

TEST(RunScope, DestructionRestoresThePreviousScope) {
  RunScope& outside = RunScope::current();
  {
    RunScope outer;
    {
      RunScope inner;
      EXPECT_EQ(&RunScope::current(), &inner);
      {
        const EnterScope enter(&outer);
        EXPECT_EQ(&RunScope::current(), &outer);
      }
      EXPECT_EQ(&RunScope::current(), &inner);
    }
    EXPECT_EQ(&RunScope::current(), &outer);
  }
  EXPECT_EQ(&RunScope::current(), &outside);
}

// ---------------------------------------------------------------------------
// Two concurrent runs report what their solo runs report.

/// Flattens a JSON document into path -> leaf text. Array elements that
/// carry a "name" are keyed by it, others by index.
void flatten(const JsonValue& v, const std::string& path, std::map<std::string, std::string>& out) {
  if (v.is_object()) {
    for (const auto& [k, child] : v.object) flatten(child, path + "." + k, out);
  } else if (v.is_array()) {
    for (std::size_t i = 0; i < v.array.size(); ++i) {
      const JsonValue* name = v.array[i].find("name");
      const std::string key = name != nullptr && name->is_string() ? name->string : std::to_string(i);
      flatten(v.array[i], path + "[" + key + "]", out);
    }
  } else if (v.is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v.number);
    out[path] = buf;
  } else {
    out[path] = v.is_string() ? v.string : (v.boolean ? "true" : "false");
  }
}

struct ReportedRun {
  std::vector<cid_t> partition;
  std::map<std::string, std::string> report;  // flattened run report
};

/// One run_louvain under its own scope, armed as `gala detect --report-out`
/// arms it, on the shared global pool.
ReportedRun reported_run(const graph::Graph& g, core::Backend backend) {
  RunScope scope;
  scope.tracer().set_enabled(true);
  scope.profiler().set_enabled(true);
  metrics::HealthMonitor health;
  core::GalaConfig cfg;
  cfg.backend = backend;
  cfg.bsp.on_iteration = health.callback();
  const core::GalaResult r = core::run_louvain(g, cfg);
  metrics::RunReport report;
  report.run = metrics::run_section(g, cfg, r, *core::make_backend(cfg.backend, cfg.blas));
  report.health = health.report().json();
  report.capture(RunScope::current(), "end-of-run");  // `scope`, unless runs share observers
  ReportedRun out{r.assignment, {}};
  flatten(parse_json(report.json()), "", out.report);
  return out;
}

/// The report paths two solo runs must agree on: the run section without
/// wall fields, health, the non-wall profile counters, and the mem fields
/// that do not depend on worker timing. Left out, because they move with
/// worker timing even between two solo runs: wall times, the flight window's
/// thread ids and order, memory peaks, and the workspace pool's miss counters
/// (how many chunk arenas a parallel launch holds at once).
bool must_agree(const std::string& path) {
  if (path.find("wall") != std::string::npos) return false;
  for (const char* prefix : {".run.", ".health.", ".profile.kernels["}) {
    if (path.rfind(prefix, 0) == 0) return true;
  }
  if (path.rfind(".mem.subsystems[", 0) != 0) return false;
  for (const char* field : {".allocs", ".frees", ".bytes_total", ".waste", ".live", ".resident",
                            ".resident_peak", ".workspace"}) {
    const std::string f(field);
    if (path.size() > f.size() && path.compare(path.size() - f.size(), f.size(), f) == 0) {
      return true;
    }
  }
  return false;
}

TEST(RunScope, ConcurrentRunsReportWhatTheirSoloRunsReport) {
  const auto g = testing::small_planted(11, 2000, 16, 0.2);
  const core::Backend backends[] = {core::Backend::Bsp, core::Backend::Blas};

  for (const core::Backend backend : backends) {
    // Two solo runs agree on every required field.
    const ReportedRun a = reported_run(g, backend);
    const ReportedRun b = reported_run(g, backend);
    EXPECT_EQ(a.partition, b.partition);
    std::size_t required = 0;
    for (const auto& [path, value] : a.report) {
      if (!must_agree(path)) continue;
      ++required;
      const auto it = b.report.find(path);
      ASSERT_NE(it, b.report.end()) << core::to_string(backend) << " " << path;
      EXPECT_EQ(it->second, value) << core::to_string(backend) << " " << path;
    }
    EXPECT_GT(required, 100u) << "the report lost its deterministic sections";
  }

  std::map<core::Backend, ReportedRun> solo;
  for (const core::Backend backend : backends) solo[backend] = reported_run(g, backend);
  std::map<core::Backend, ReportedRun> together;
  std::mutex mutex;
  std::vector<std::thread> threads;
  for (const core::Backend backend : backends) {
    threads.emplace_back([&, backend] {
      ReportedRun run = reported_run(g, backend);
      std::lock_guard lock(mutex);
      together[backend] = std::move(run);
    });
  }
  for (auto& t : threads) t.join();

  for (const core::Backend backend : backends) {
    const ReportedRun& s = solo.at(backend);
    const ReportedRun& c = together.at(backend);
    EXPECT_EQ(c.partition, s.partition) << core::to_string(backend);
    for (const auto& [path, value] : s.report) {
      if (!must_agree(path)) continue;
      const auto it = c.report.find(path);
      ASSERT_NE(it, c.report.end()) << core::to_string(backend) << " " << path;
      EXPECT_EQ(it->second, value) << core::to_string(backend) << " " << path;
    }
  }
}

// ---------------------------------------------------------------------------
// Observers watch the engine without changing what it does.

struct ObservedRun {
  std::vector<cid_t> partition;
  std::vector<core::IterationStats> iterations;
};

/// One sequential phase 1 on a 600-vertex planted graph in its own scope,
/// with the flight recorder, memory registry, tracer and profiler all armed
/// or all disarmed.
ObservedRun observed_phase1(bool armed) {
  graph::PlantedPartitionParams pp;
  pp.num_vertices = 600;
  pp.num_communities = 12;
  pp.avg_degree = 14.0;
  pp.mixing = 0.25;
  pp.seed = 7;
  const graph::Graph g = graph::planted_partition(pp);
  RunScope scope;
  scope.tracer().set_enabled(armed);
  scope.profiler().set_enabled(armed);
  if (!armed) {
    scope.flight().disarm();
    scope.memory().disarm();
  }
  core::BspConfig cfg;
  cfg.parallel = false;
  core::Phase1Result r = core::bsp_phase1(g, cfg);
  EXPECT_EQ(scope.flight().recorded() > 0, armed);
  EXPECT_EQ(scope.tracer().span_count() > 0, armed);
  EXPECT_EQ(scope.profiler().snapshot().empty(), !armed);
  EXPECT_EQ(scope.memory().report().peak_total_bytes() > 0, armed);
  return {std::move(r.community), std::move(r.iterations)};
}

TEST(RunScope, ArmedObserversLeaveThePartitionAndEveryModeledCounterUnchanged) {
  const ObservedRun armed = observed_phase1(true);
  const ObservedRun disarmed = observed_phase1(false);
  EXPECT_EQ(armed.partition, disarmed.partition);
  ASSERT_EQ(armed.iterations.size(), disarmed.iterations.size());
  ASSERT_GT(armed.iterations.size(), 1u);
  for (std::size_t i = 0; i < armed.iterations.size(); ++i) {
    const core::IterationStats& a = armed.iterations[i];
    const core::IterationStats& d = disarmed.iterations[i];
    EXPECT_TRUE(a.decide_traffic == d.decide_traffic) << "iteration " << i;
    EXPECT_TRUE(a.update_traffic == d.update_traffic) << "iteration " << i;
    EXPECT_TRUE(a.bookkeeping_traffic == d.bookkeeping_traffic) << "iteration " << i;
  }
}

// ---------------------------------------------------------------------------
// A pool worker alternating between two live scopes keeps one ring in each.

TEST(RunScope, WorkersAlternatingBetweenScopesKeepFlightRingsBounded) {
  RunScope first;
  RunScope second;
  ThreadPool pool(2);
  for (int call = 0; call < 1000; ++call) {
    const EnterScope enter(call % 2 == 0 ? &first : &second);
    pool.parallel_for_chunked(
        0, 8, [](std::size_t, std::size_t) { telemetry::flight(telemetry::FlightKind::Apply); },
        /*grain=*/1);
  }
  for (RunScope* scope : {&first, &second}) {
    const auto events = scope->flight().drain();
    EXPECT_EQ(events.size(), 500u * 8u);
    std::set<std::uint16_t> rings;  // the recorder numbers each ring it registers
    for (const auto& e : events) rings.insert(e.tid);
    EXPECT_LE(rings.size(), pool.size()) << "a worker registered a new ring per scope switch";
  }
}

}  // namespace
}  // namespace gala
