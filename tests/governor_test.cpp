// gala::governor — enforceable memory budgets with a deterministic
// degradation ladder. Covers the threshold schedule (80/85/90/95% projected
// utilisation), rung stickiness (escalate-only, monotone transition list),
// the may-throw floor (ResourceExhausted on a Workspace checkout the budget
// cannot admit), subsystem caps, budget shrink (both direct and via the
// budget-shrink fault site), reclaimer registration, the report fragment,
// and the min-feasible-budget binary search.
#include "gala/governor/governor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gala/common/json.hpp"
#include "gala/core/gala.hpp"
#include "gala/exec/context.hpp"
#include "gala/exec/workspace.hpp"
#include "gala/scope/run_scope.hpp"
#include "test_util.hpp"

namespace gala::governor {
namespace {

/// A fresh run scope for every test: its own memory registry and governor,
/// gone with the test, so a failing test cannot leak a budget into the next.
struct GovernorFixture : ::testing::Test {
  RunScope scope;
  Governor& gov = scope.governor();

  void install(std::uint64_t total_bytes) { gov.install({.total_bytes = total_bytes}); }
};

/// The governor's run-report members, parsed as one object.
JsonValue section(const Governor& gov) {
  JsonWriter w;
  w.begin_object();
  gov.append_json(w);
  w.end_object();
  return parse_json(w.str());
}

using GovernorLadder = GovernorFixture;
using GovernorShrink = GovernorFixture;
using GovernorEnforce = GovernorFixture;

TEST_F(GovernorLadder, EscalatesAtThresholdSchedule) {
  install(1000);
  // Each step is a transient: admitted, then given back, so every admission
  // projects its own bytes alone.
  const auto transient = [this](std::uint64_t bytes) {
    scope.memory().release(gov.admit("test.x", bytes, /*may_throw=*/false));
  };

  transient(790);  // 79%: below every rung
  EXPECT_EQ(gov.rung(), Rung::None);
  EXPECT_EQ(gov.frontier_chunk(), 0u);

  transient(820);  // 82%
  EXPECT_EQ(gov.rung(), Rung::ReclaimSlabs);
  transient(870);  // 87%
  EXPECT_EQ(gov.rung(), Rung::GlobalOnlyHash);
  EXPECT_TRUE(gov.force_global_only());
  EXPECT_FALSE(gov.force_sparse_sync());
  transient(920);  // 92%
  EXPECT_EQ(gov.rung(), Rung::SparseSync);
  EXPECT_TRUE(gov.force_sparse_sync());
  transient(960);  // 96%
  EXPECT_EQ(gov.rung(), Rung::ChunkedFrontier);
  EXPECT_EQ(gov.frontier_chunk(), 4096u);

  // Over budget on a non-throwing site: denial recorded, no throw, and the
  // ladder does not reach the floor.
  transient(1100);
  EXPECT_EQ(gov.denials(), 1u);
  EXPECT_EQ(gov.rung(), Rung::ChunkedFrontier);

  // The floor: a may-throw site the budget cannot admit refuses by throwing.
  EXPECT_THROW(gov.admit("test.x", 1100, /*may_throw=*/true), ResourceExhausted);
  EXPECT_EQ(gov.rung(), Rung::HostFallback);
  EXPECT_EQ(gov.admits(), 7u);
}

TEST_F(GovernorLadder, RungsAreStickyAndTransitionsMonotone) {
  install(1000);

  scope.memory().release(gov.admit("test.x", 960, false));  // jumps straight through rungs 1-4
  EXPECT_EQ(gov.rung(), Rung::ChunkedFrontier);
  gov.admit("test.x", 10, false);  // pressure released: the ladder stays put
  EXPECT_EQ(gov.rung(), Rung::ChunkedFrontier);

  const JsonValue doc = section(gov);
  const auto& transitions = doc.at("transitions").array;
  ASSERT_EQ(transitions.size(), 4u);
  double prev = 0;
  for (const auto& t : transitions) {
    EXPECT_GT(t.at("ordinal").number, prev);
    prev = t.at("ordinal").number;
  }
}

TEST_F(GovernorLadder, SubsystemCapEscalatesWithoutTotalBudget) {
  BudgetConfig cfg;  // total stays 0 (unlimited): only the cap enforces
  cfg.subsystem_caps.emplace_back("phase1", 1000);
  gov.install(cfg);

  gov.admit("gpusim.arena", 5000, false);  // other subsystems are uncapped
  EXPECT_EQ(gov.rung(), Rung::None);
  gov.admit("phase1.delta", 900, false);  // 90% of the phase1 cap
  EXPECT_EQ(gov.rung(), Rung::SparseSync);
  EXPECT_THROW(gov.admit("phase1.delta", 1100, true), ResourceExhausted);
}

TEST_F(GovernorLadder, ReclaimersRunOnFirstEscalation) {
  install(1000);
  int calls = 0;
  gov.register_reclaimer(&calls, [&calls] {
    ++calls;
    return std::uint64_t{64};
  });
  gov.admit("test.x", 820, false);  // crosses the reclaim threshold
  EXPECT_EQ(calls, 1);
  EXPECT_GE(gov.reclaims(), 1u);
  gov.unregister_reclaimer(&calls);
  gov.admit("test.x", 1100, false);  // denial path re-runs reclaimers
  EXPECT_EQ(calls, 1);              // unregistered: not called again
}

TEST_F(GovernorShrink, ShrinkNeverRaisesAndNeverDisables) {
  install(1000);

  gov.shrink_budget(400);
  EXPECT_EQ(gov.budget_total(), 400u);
  EXPECT_EQ(gov.shrinks(), 1u);
  gov.shrink_budget(600);  // raising is refused
  EXPECT_EQ(gov.budget_total(), 400u);
  EXPECT_EQ(gov.shrinks(), 1u);
  gov.shrink_budget(0);  // 0 would mean unlimited; clamps to 1 instead
  EXPECT_EQ(gov.budget_total(), 1u);
}

TEST_F(GovernorShrink, BudgetShrinkFaultSiteCutsTheBudgetDeterministically) {
  resilience::FaultPlan plan;
  resilience::FaultRule rule;
  rule.site = resilience::FaultSite::BudgetShrink;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  scope.faults().arm(plan);
  install(1000);

  gov.admit("test.x", 10, false);  // the fault fires here: cut to max(live, 500)
  EXPECT_EQ(gov.budget_total(), 500u);
  EXPECT_EQ(gov.shrinks(), 1u);
  gov.admit("test.x", 10, false);  // max_fires exhausted: budget holds
  EXPECT_EQ(gov.budget_total(), 500u);
  EXPECT_EQ(gov.shrinks(), 1u);

  const JsonValue doc = section(gov);
  EXPECT_EQ(doc.at("budget_initial").number, 1000.0);
  EXPECT_EQ(doc.at("budget_total").number, 500.0);
}

TEST_F(GovernorEnforce, WorkspaceCheckoutOverBudgetThrowsAndRecoversOnUninstall) {
  exec::Workspace ws(/*pooling=*/true);
  {
    RunScope budgeted;
    budgeted.governor().install({.total_bytes = 1024});
    EXPECT_THROW(ws.take<std::uint64_t>(1000, "test.denied"), ResourceExhausted);
    EXPECT_EQ(budgeted.governor().rung(), Rung::HostFallback);
    EXPECT_GE(budgeted.governor().denials(), 1u);
    EXPECT_EQ(budgeted.memory().live_total(), 0u) << "a refused checkout charges nothing";
  }
  // Budget gone with its scope: the same checkout is admitted.
  auto lease = ws.take<std::uint64_t>(1000, "test.granted");
  EXPECT_EQ(lease.span().size(), 1000u);
}

TEST_F(GovernorEnforce, GaugeResetAdmitsOnlyTheIncrease) {
  install(1000);

  memtrace::set_resident("test.gauge", 600);  // 60%: below every rung
  EXPECT_EQ(gov.rung(), Rung::None);
  // Re-setting an existing gauge must not project old + new (1200 here):
  // live_total already carries the 600, so the admission charge is zero.
  memtrace::set_resident("test.gauge", 600);
  memtrace::set_resident("test.gauge", 700);  // genuine growth: 70%
  EXPECT_EQ(gov.rung(), Rung::None);
  EXPECT_EQ(gov.denials(), 0u);

  memtrace::set_resident("test.gauge", 100);  // shrinking re-set releases
  memtrace::set_resident("test.gauge", 820);  // 100 live + 720 delta = 82%
  EXPECT_EQ(gov.rung(), Rung::ReclaimSlabs);
  EXPECT_EQ(scope.memory().live_total(), 820u);
}

TEST_F(GovernorEnforce, AdmissionHoldsItsBytesUntilTheAllocationTakesThem) {
  install(1000);
  exec::Workspace ws(/*pooling=*/true);

  // An admitted charge stays on the live total, so a second admission
  // projects both: two ranks can never fit into the same headroom.
  EXPECT_EQ(gov.admit("test.x", 600, /*may_throw=*/true), 600u);
  EXPECT_EQ(scope.memory().live_total(), 600u);
  EXPECT_THROW(gov.admit("test.x", 500, /*may_throw=*/true), ResourceExhausted);
  EXPECT_EQ(scope.memory().live_total(), 600u) << "a refusal gives its bytes back";
  scope.memory().release(600);

  // A checkout's admitted bytes become its live bytes: counted once.
  {
    auto lease = ws.take<std::byte>(512, "test.lease");  // a whole size class
    EXPECT_EQ(scope.memory().live_total(), 512u);
  }
  EXPECT_EQ(scope.memory().live_total(), 0u);
}

TEST_F(GovernorEnforce, ConcurrentEscalationsStayMonotoneAndTeardownIsSafe) {
  install(1000);

  // Threads race up the ladder while registering and tearing down stack-owned
  // reclaimers (standing in for rank ExecutionContexts unwinding mid-run);
  // unregister_reclaimer must drain in-flight invocations before the capture
  // dies, and concurrent escalations must still record in rung order.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < 50; ++i) {
        int local = 0;
        gov.register_reclaimer(&local, [&local] {
          ++local;
          return std::uint64_t{0};
        });
        const std::uint64_t bytes = 820 + 45 * t;  // 82..95.5%
        scope.memory().release(gov.admit("test.race", bytes, /*may_throw=*/false));
        gov.unregister_reclaimer(&local);  // `local` leaves scope right after
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(gov.rung(), Rung::ChunkedFrontier);

  const JsonValue doc = section(gov);
  const auto& transitions = doc.at("transitions").array;
  ASSERT_EQ(transitions.size(), 4u);
  double prev = 0;
  for (const auto& t : transitions) {
    EXPECT_GT(t.at("ordinal").number, prev);
    prev = t.at("ordinal").number;
  }
}

TEST_F(GovernorEnforce, HookIsNullWhenUninstalled) {
  // A scope starts without a budget, and a budget ends with its scope.
  EXPECT_FALSE(gov.enabled());
  {
    RunScope budgeted;
    budgeted.governor().install({.total_bytes = 1 << 20});
    EXPECT_TRUE(RunScope::current().governor().enabled());
    EXPECT_FALSE(gov.enabled()) << "a budget is per scope";
  }
  EXPECT_EQ(&RunScope::current(), &scope);
  EXPECT_FALSE(RunScope::current().governor().enabled());
}

TEST_F(GovernorEnforce, SectionJsonShape) {
  BudgetConfig cfg;
  cfg.total_bytes = 2048;
  cfg.subsystem_caps.emplace_back("phase1", 1024);
  gov.install(cfg);
  gov.admit("test.x", 100, false);

  const JsonValue doc = section(gov);
  EXPECT_EQ(doc.at("budget_total").number, 2048.0);
  EXPECT_EQ(doc.at("rung").string, "none");
  EXPECT_EQ(doc.at("rung_ordinal").number, 0.0);
  EXPECT_EQ(doc.at("admits").number, 1.0);
  EXPECT_EQ(doc.at("frontier_chunk").number, 4096.0);
  ASSERT_EQ(doc.at("subsystem_caps").array.size(), 1u);
  EXPECT_EQ(doc.at("subsystem_caps").array[0].at("name").string, "phase1");
  EXPECT_EQ(doc.at("subsystem_caps").array[0].at("cap").number, 1024.0);
  EXPECT_TRUE(doc.at("transitions").array.empty());
}

// ---------------------------------------------------------------------------
// min_feasible_budget: monotone binary search over granules.

TEST(MinFeasibleBudget, FindsTheSmallestFeasibleGranule) {
  int probes = 0;
  const auto feasible = [&probes](std::uint64_t b) {
    ++probes;
    return b >= 37000;
  };
  // 9 * 4096 = 36864 is infeasible, 10 * 4096 = 40960 is the first granule up.
  EXPECT_EQ(min_feasible_budget(100000, feasible, 4096), 40960u);
  EXPECT_LE(probes, 8);  // log2(25 granules) + the two endpoint probes
}

TEST(MinFeasibleBudget, InfeasibleCeilingThrowsNamingIt) {
  // No floor exists, so the probe fails naming its ceiling instead of
  // reporting a 0-byte budget.
  try {
    min_feasible_budget(100000, [](std::uint64_t) { return false; }, 4096);
    FAIL() << "an infeasible ceiling must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("hi 100000 B"), std::string::npos) << e.what();
  }
}

TEST(MinFeasibleBudget, TriviallyFeasibleReturnsOneGranule) {
  EXPECT_EQ(min_feasible_budget(100000, [](std::uint64_t) { return true; }, 4096), 4096u);
}

TEST(MinFeasibleBudget, ZeroGranularityIsClampedToOneByte) {
  EXPECT_EQ(min_feasible_budget(8, [](std::uint64_t b) { return b >= 5; }, 0), 5u);
}

// ---------------------------------------------------------------------------
// End-to-end: a budget generous enough never to deny still produces the
// exact partition and mem accounting of an unbudgeted run.

TEST(GovernorEndToEnd, GenerousBudgetIsInvisible) {
  const auto g = gala::testing::small_planted();
  const auto run = [&g](std::uint64_t budget) {
    RunScope scope;
    if (budget != 0) scope.governor().install({.total_bytes = budget});
    exec::ExecutionContext ctx({}, /*seed=*/7, /*pooling=*/true);
    core::GalaConfig cfg;
    cfg.bsp.parallel = false;
    cfg.bsp.context = &ctx;
    const std::vector<cid_t> assignment = core::run_louvain(g, cfg).assignment;
    if (budget != 0) {
      EXPECT_EQ(scope.governor().rung(), Rung::None);
      EXPECT_EQ(scope.governor().denials(), 0u);
      EXPECT_GT(scope.governor().admits(), 0u);
    }
    return assignment;
  };
  EXPECT_EQ(run(1ull << 32), run(0));
}

}  // namespace
}  // namespace gala::governor
