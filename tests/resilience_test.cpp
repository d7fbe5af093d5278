// gala::resilience: the deterministic chaos suite.
//
// For a fixed seed and fault plan, every injected-fault run must either (a)
// recover via retry / rollback / degradation and produce a valid partition —
// with modularity matching the fault-free run to 1e-9 when the recovery path
// preserves semantics, or an explicitly reported degraded path otherwise —
// or (b) fail closed with a structured gala::Error naming the injection
// point. Run by the chaos CI job on every push.
#include "gala/resilience/supervisor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gala/core/gala.hpp"
#include "gala/core/kernels.hpp"
#include "gala/core/modularity.hpp"
#include "gala/multigpu/dist_louvain.hpp"
#include "gala/scope/run_scope.hpp"
#include "losing_engine.hpp"
#include "test_util.hpp"

namespace gala::resilience {
namespace {

FaultRule rule(FaultSite site, std::string label = "", int rank = -1, int skip_first = 0,
               int max_fires = -1, double probability = 1.0) {
  FaultRule r;
  r.site = site;
  r.label = std::move(label);
  r.rank = rank;
  r.skip_first = skip_first;
  r.max_fires = max_fires;
  r.probability = probability;
  return r;
}

// ---- plan serialisation ----------------------------------------------------

TEST(FaultPlanTest, JsonRoundTrip) {
  FaultPlan plan;
  plan.seed = 99;
  plan.rules.push_back(rule(FaultSite::KernelLaunch, "decide", -1, 2, 3, 0.5));
  plan.rules.push_back(rule(FaultSite::CollectiveCorrupt, "all_gather_v", 1));

  const FaultPlan back = FaultPlan::from_json(plan.to_json());
  ASSERT_EQ(back.rules.size(), 2u);
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.rules[0].site, FaultSite::KernelLaunch);
  EXPECT_EQ(back.rules[0].label, "decide");
  EXPECT_EQ(back.rules[0].skip_first, 2);
  EXPECT_EQ(back.rules[0].max_fires, 3);
  EXPECT_DOUBLE_EQ(back.rules[0].probability, 0.5);
  EXPECT_EQ(back.rules[1].site, FaultSite::CollectiveCorrupt);
  EXPECT_EQ(back.rules[1].rank, 1);
}

TEST(FaultPlanTest, RejectsUnknownSiteAndBadProbability) {
  EXPECT_THROW(FaultPlan::from_json(R"({"rules":[{"site":"warp-drive"}]})"), Error);
  EXPECT_THROW(FaultPlan::from_json(R"({"rules":[{"site":"kernel-launch","probability":2}]})"),
               Error);
  EXPECT_THROW(FaultPlan::from_json(R"({"seed":1})"), Error);  // rules required
}

TEST(FaultPlanTest, SiteNamesRoundTrip) {
  for (const FaultSite s :
       {FaultSite::KernelLaunch, FaultSite::SharedAlloc, FaultSite::ScratchGrow,
        FaultSite::CollectiveDrop, FaultSite::CollectiveTimeout, FaultSite::CollectiveCorrupt}) {
    EXPECT_EQ(fault_site_from_string(to_string(s)), s);
  }
}

// ---- injector mechanics ----------------------------------------------------

TEST(FaultInjectorTest, DisarmedCostsNothingAndNeverFires) {
  RunScope scope;  // a scope starts without a plan
  auto& inj = scope.faults();
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.should_fire(FaultSite::KernelLaunch, "decide"));
  EXPECT_NO_THROW(maybe_inject(FaultSite::KernelLaunch, "decide"));
}

TEST(FaultInjectorTest, FiringPatternIsDeterministicInSeed) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.rules.push_back(rule(FaultSite::KernelLaunch, "", -1, 0, -1, 0.3));

  auto pattern = [&] {
    RunScope scope;
    scope.faults().arm(plan);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(scope.faults().should_fire(FaultSite::KernelLaunch, "decide"));
    }
    return fired;
  };
  const auto first = pattern();
  const auto second = pattern();
  EXPECT_EQ(first, second);
  // A probability-0.3 rule over 64 hits fires sometimes but not always.
  int fires = 0;
  for (const bool f : first) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);

  plan.seed = 4321;  // different seed, different pattern
  RunScope scope;
  scope.faults().arm(plan);
  std::vector<bool> other;
  for (int i = 0; i < 64; ++i) {
    other.push_back(scope.faults().should_fire(FaultSite::KernelLaunch, "decide"));
  }
  EXPECT_NE(first, other);
}

TEST(FaultInjectorTest, SkipFirstAndMaxFiresSchedule) {
  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::ScratchGrow, "", -1, /*skip_first=*/2, /*max_fires=*/2));
  RunScope scope;
  scope.faults().arm(plan);
  auto& inj = scope.faults();
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(inj.should_fire(FaultSite::ScratchGrow, "x"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_EQ(inj.fires(), 2u);
}

TEST(FaultInjectorTest, LabelAndRankFiltersApply) {
  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::CollectiveDrop, "all_gather_v", /*rank=*/1));
  RunScope scope;
  scope.faults().arm(plan);
  auto& inj = scope.faults();
  EXPECT_FALSE(inj.should_fire(FaultSite::CollectiveDrop, "all_reduce", 1));  // label mismatch
  EXPECT_FALSE(inj.should_fire(FaultSite::CollectiveDrop, "all_gather_v", 0));  // rank mismatch
  EXPECT_TRUE(inj.should_fire(FaultSite::CollectiveDrop, "all_gather_v", 1));
}

// ---- validators ------------------------------------------------------------

TEST(ValidatorTest, CatchesCorruptState) {
  const auto g = gala::testing::two_triangles();
  std::vector<cid_t> ok = {0, 0, 0, 3, 3, 3};
  EXPECT_NO_THROW(validate_partition(g, ok));
  EXPECT_NO_THROW(validate_community_weights(g, ok));

  std::vector<cid_t> out_of_range = {0, 0, 0, 3, 3, 99};
  EXPECT_THROW(validate_partition(g, out_of_range), ValidationError);
  std::vector<cid_t> short_assignment = {0, 0};
  EXPECT_THROW(validate_partition(g, short_assignment), ValidationError);

  EXPECT_NO_THROW(validate_modularity(0.5));
  EXPECT_THROW(validate_modularity(std::numeric_limits<wt_t>::quiet_NaN()), ValidationError);
  EXPECT_THROW(validate_modularity(7.0), ValidationError);

  EXPECT_NO_THROW(validate_csr(g));
}

// ---- supervised pipeline: recovery paths -----------------------------------

// The health advisory (stage "health") is observational; recovery assertions
// look only at events that changed the execution path.
std::vector<RecoveryEvent> recovery_events(const SupervisedResult& sr) {
  std::vector<RecoveryEvent> out;
  for (const RecoveryEvent& e : sr.events) {
    if (e.stage != "health") out.push_back(e);
  }
  return out;
}

struct EngineCase {
  core::Backend backend;
  bool refine;
  bool vertex_following;
};

std::string case_name(const EngineCase& c) {
  return core::to_string(c.backend) +
         (c.refine ? "_refine" : c.vertex_following ? "_vertex_following" : "_plain");
}

void PrintTo(const EngineCase& c, std::ostream* os) { *os << case_name(c); }

class SupervisedNoFaults : public ::testing::TestWithParam<EngineCase> {};

TEST_P(SupervisedNoFaults, MatchesUnsupervisedExactly) {
  // The supervisor runs run_louvain's loop over the selected engine, so a
  // fault-free supervised run is the unsupervised run, modeled time included.
  const auto g = gala::testing::small_planted();
  core::GalaConfig cfg;
  cfg.backend = GetParam().backend;
  cfg.refine = GetParam().refine;
  cfg.vertex_following = GetParam().vertex_following;
  const auto plain = core::run_louvain(g, cfg);
  const auto sup = run_louvain_supervised(g, cfg);
  EXPECT_EQ(sup.result.assignment, plain.assignment);
  EXPECT_EQ(sup.result.modularity, plain.modularity);
  ASSERT_EQ(sup.result.levels.size(), plain.levels.size());
  for (std::size_t i = 0; i < plain.levels.size(); ++i) {
    EXPECT_EQ(sup.result.levels[i].communities, plain.levels[i].communities) << "level " << i;
    EXPECT_EQ(sup.result.levels[i].modularity, plain.levels[i].modularity) << "level " << i;
    EXPECT_EQ(sup.result.levels[i].iterations, plain.levels[i].iterations) << "level " << i;
  }
  EXPECT_EQ(sup.result.modeled_ms, plain.modeled_ms);
  EXPECT_EQ(sup.retries, 0);
  EXPECT_FALSE(sup.degraded);
  EXPECT_TRUE(recovery_events(sup).empty());
}

INSTANTIATE_TEST_SUITE_P(Engines, SupervisedNoFaults,
                         ::testing::Values(EngineCase{core::Backend::Bsp, false, false},
                                           EngineCase{core::Backend::Bsp, true, false},
                                           EngineCase{core::Backend::Bsp, false, true},
                                           EngineCase{core::Backend::Blas, false, false},
                                           EngineCase{core::Backend::Blas, true, false},
                                           EngineCase{core::Backend::Blas, false, true}),
                         [](const auto& info) { return case_name(info.param); });

TEST(SupervisedRunTest, TransientKernelFaultRetriesToExactParity) {
  const auto g = gala::testing::small_planted();
  core::GalaConfig cfg;
  const auto fault_free = core::run_louvain(g, cfg);

  FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back(rule(FaultSite::KernelLaunch, "", -1, 0, /*max_fires=*/1));
  RunScope scope;
  scope.faults().arm(plan);

  const auto sup = run_louvain_supervised(g, cfg);
  EXPECT_EQ(sup.retries, 1);
  const auto recov = recovery_events(sup);
  ASSERT_EQ(recov.size(), 1u);
  EXPECT_EQ(recov[0].action, "retry");
  EXPECT_NE(recov[0].detail.find("kernel-launch"), std::string::npos);
  EXPECT_FALSE(sup.degraded);
  // The retry re-runs the identical deterministic level: bitwise parity.
  EXPECT_EQ(sup.result.assignment, fault_free.assignment);
  EXPECT_NEAR(sup.result.modularity, fault_free.modularity, 1e-9);
}

TEST(SupervisedRunTest, StrictModeFailsClosedNamingInjectionPoint) {
  const auto g = gala::testing::small_planted();
  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::KernelLaunch, "", -1, 0, 1));
  RunScope scope;
  scope.faults().arm(plan);

  SupervisorConfig sup;
  sup.strict = true;
  try {
    run_louvain_supervised(g, {}, sup);
    FAIL() << "expected a TransientFault";
  } catch (const TransientFault& e) {
    EXPECT_NE(std::string(e.what()).find("kernel-launch"), std::string::npos);
  }
}

TEST(SupervisedRunTest, PersistentFaultDegradesToSequentialHostPath) {
  const auto g = gala::testing::small_planted();
  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::KernelLaunch, ""));  // every launch dies, forever
  RunScope scope;
  scope.faults().arm(plan);

  SupervisorConfig sup;
  sup.max_retries = 1;
  const auto r = run_louvain_supervised(g, {}, sup);
  EXPECT_TRUE(r.degraded);
  bool saw_fallback = false;
  for (const auto& ev : r.events) saw_fallback |= ev.action == "sequential-fallback";
  EXPECT_TRUE(saw_fallback);
  EXPECT_GT(scope.flight().count(telemetry::FlightKind::SequentialFallback), 0u);
  // The degraded path still yields a valid, decent partition.
  validate_partition(g, r.result.assignment);
  const wt_t audited = core::modularity(g, r.result.assignment);
  EXPECT_NEAR(audited, r.result.modularity, 1e-9);
  EXPECT_GT(audited, 0.3);
}

TEST(SupervisedRunTest, SequentialFallbackDisabledFailsClosed) {
  const auto g = gala::testing::small_planted();
  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::KernelLaunch, ""));
  RunScope scope;
  scope.faults().arm(plan);

  SupervisorConfig sup;
  sup.max_retries = 1;
  sup.sequential_fallback = false;
  EXPECT_THROW(run_louvain_supervised(g, {}, sup), TransientFault);
}

TEST(SupervisedRunTest, MonotonicityGuardRollsBackToBestLevel) {
  // Level 1 of the fake engine loses modularity, so the loop must not fold
  // it and the run keeps the level-0 partition.
  const auto g = gala::testing::small_planted();
  RunScope scope;
  gala::testing::LosingEngine engine(/*losing_level=*/1);
  const auto r = run_louvain_supervised(g, {}, {}, engine);
  EXPECT_TRUE(r.rolled_back);
  bool saw_rollback = false;
  for (const auto& ev : r.events) saw_rollback |= ev.action == "rollback";
  EXPECT_TRUE(saw_rollback);
  EXPECT_EQ(scope.flight().count(telemetry::FlightKind::Rollback), 1u);
  validate_partition(g, r.result.assignment);
  EXPECT_NEAR(core::modularity(g, r.result.assignment), r.result.modularity, 1e-9);
}

TEST(SupervisedRunTest, StrictModeKeepsTheHeldPartitionWhenALevelLosesModularity) {
  // A rejected level is the loop's stop rule, not a fault: strict mode
  // still completes, with the same partition as a lenient run.
  const auto g = gala::testing::small_planted();
  gala::testing::LosingEngine lenient_engine(1);
  const auto lenient = run_louvain_supervised(g, {}, {}, lenient_engine);
  SupervisorConfig sup;
  sup.strict = true;
  gala::testing::LosingEngine strict_engine(1);
  const auto strict = run_louvain_supervised(g, {}, sup, strict_engine);
  EXPECT_TRUE(strict.rolled_back);
  EXPECT_EQ(strict.result.assignment, lenient.result.assignment);
  EXPECT_EQ(strict.result.modularity, lenient.result.modularity);
}

TEST(SupervisedRunTest, RetriedLevelIsRecordedOnceInHealth) {
  // A fault in the middle of a later level aborts that attempt after it fed
  // the monitor part of a trajectory. The retry must replace it, so the
  // health report equals the fault-free run's: one entry per level, tagged
  // with its pipeline level.
  const auto g = gala::testing::small_planted(5, 2000, 20, 0.3);
  const auto fault_free = run_louvain_supervised(g);

  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::KernelLaunch, "", -1, /*skip_first=*/25, /*max_fires=*/1));
  RunScope scope;
  scope.faults().arm(plan);
  const auto sup = run_louvain_supervised(g);
  ASSERT_EQ(sup.retries, 1);
  EXPECT_GT(recovery_events(sup)[0].level, 0) << "the fault should hit a later level";
  EXPECT_EQ(sup.result.assignment, fault_free.result.assignment);
  ASSERT_EQ(sup.health.levels.size(), sup.result.levels.size() + (sup.result.rejected ? 1 : 0));
  for (std::size_t i = 0; i < sup.health.levels.size(); ++i) {
    EXPECT_EQ(sup.health.levels[i].level, static_cast<int>(i));
  }
  EXPECT_EQ(sup.health.json(), fault_free.health.json());
}

TEST(SupervisedRunTest, SharedArenaFaultDegradesInKernelWithExactParity) {
  const auto g = gala::testing::small_planted();
  core::GalaConfig cfg;
  cfg.bsp.kernel = core::KernelMode::HashOnly;
  cfg.bsp.hashtable = core::HashTablePolicy::Hierarchical;
  const auto fault_free = core::run_louvain(g, cfg);

  FaultPlan plan;
  plan.seed = 3;
  plan.rules.push_back(rule(FaultSite::SharedAlloc, "shared-arena", -1, 0, /*max_fires=*/4));
  RunScope scope;
  scope.faults().arm(plan);

  // The in-kernel Hierarchical -> GlobalOnly fallback absorbs the faults:
  // no supervisor retry needed, and decisions are policy-independent.
  const auto sup = run_louvain_supervised(g, cfg);
  EXPECT_EQ(sup.retries, 0);
  EXPECT_FALSE(sup.degraded);
  EXPECT_GT(scope.flight().count(telemetry::FlightKind::HashtableFallback), 0u);
  EXPECT_EQ(sup.result.assignment, fault_free.assignment);
  EXPECT_NEAR(sup.result.modularity, fault_free.modularity, 1e-9);
}

/// A warm start for the supervised repair tests: a converged partition of
/// small_planted(), and the graph after 50 random insertions.
struct WarmCase {
  graph::Graph g;
  std::vector<cid_t> initial;
};

WarmCase warm_case() {
  const auto base = gala::testing::small_planted();
  Xoshiro256 rng(11);
  return {core::apply_edge_updates(base, gala::testing::random_insertions(base.num_vertices(),
                                                                           50, rng)),
          core::run_louvain(base).assignment};
}

TEST(SupervisedRunTest, FaultFreeWarmStartMatchesUnsupervisedBitForBit) {
  const WarmCase w = warm_case();
  core::GalaConfig cfg;
  cfg.keep_first_round = true;
  const auto plain = core::run_louvain(w.g, cfg, w.initial);
  const auto sup = run_louvain_supervised(w.g, cfg, {}, w.initial);
  EXPECT_EQ(sup.result.first_round.start_modularity, plain.first_round.start_modularity);
  EXPECT_EQ(sup.result.first_round.community, plain.first_round.community);
  EXPECT_EQ(sup.result.assignment, plain.assignment);
  EXPECT_EQ(sup.result.modularity, plain.modularity);
  ASSERT_EQ(sup.result.levels.size(), plain.levels.size());
  for (std::size_t i = 0; i < plain.levels.size(); ++i) {
    EXPECT_EQ(sup.result.levels[i].communities, plain.levels[i].communities) << "level " << i;
    EXPECT_EQ(sup.result.levels[i].modularity, plain.levels[i].modularity) << "level " << i;
    EXPECT_EQ(sup.result.levels[i].iterations, plain.levels[i].iterations) << "level " << i;
  }
  EXPECT_EQ(sup.result.modeled_ms, plain.modeled_ms);
  EXPECT_EQ(sup.retries, 0);
  EXPECT_TRUE(recovery_events(sup).empty());
}

TEST(SupervisedRunTest, WarmStartThatExhaustsItsRetriesFallsBackFromItsStart) {
  // Three launch faults against two retries: level 0's every attempt dies and
  // the level re-runs on the sequential host path. That path starts from
  // singletons, but the level started from the warm start, so its start
  // modularity is the warm start's and the loop never ends below it.
  const WarmCase w = warm_case();
  const wt_t start_q = core::modularity(w.g, w.initial);
  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::KernelLaunch, "", -1, 0, /*max_fires=*/3));
  RunScope scope;
  scope.faults().arm(plan);

  core::GalaConfig cfg;
  cfg.keep_first_round = true;
  const auto sup = run_louvain_supervised(w.g, cfg, {}, w.initial);
  EXPECT_TRUE(sup.degraded);
  EXPECT_EQ(sup.retries, 2);
  const auto recov = recovery_events(sup);
  ASSERT_GE(recov.size(), 3u);
  EXPECT_EQ(recov[0].action, "retry");
  EXPECT_EQ(recov[1].action, "retry");
  EXPECT_EQ(recov[2].action, "sequential-fallback");
  EXPECT_EQ(recov[2].level, 0);
  EXPECT_NEAR(sup.result.first_round.start_modularity, start_q, 1e-12);
  EXPECT_GE(sup.result.modularity, start_q - 1e-12);
  EXPECT_NEAR(core::modularity(w.g, sup.result.assignment), sup.result.modularity, 1e-9);
}

// ---- distributed engine: collective faults ---------------------------------

TEST(DistributedFaultTest, CorruptSparseSyncFallsBackToDense) {
  const auto g = gala::testing::small_planted();
  multigpu::DistributedConfig cfg;
  cfg.num_gpus = 2;
  cfg.sync = multigpu::SyncMode::Sparse;
  const auto fault_free = multigpu::distributed_phase1(g, cfg);

  FaultPlan plan;
  plan.rules.push_back(
      rule(FaultSite::CollectiveCorrupt, "all_gather_v", /*rank=*/0, 0, /*max_fires=*/1));
  RunScope scope;
  scope.faults().arm(plan);

  const auto r = multigpu::distributed_phase1(g, cfg);
  ASSERT_FALSE(r.iteration_log.empty());
  EXPECT_TRUE(r.iteration_log[0].recovered_dense);
  EXPECT_FALSE(r.iteration_log[0].sparse_sync);
  // Dense and sparse sync agree on the replicated state: exact parity.
  EXPECT_EQ(r.phase1.community, fault_free.phase1.community);
  EXPECT_NEAR(r.phase1.modularity, fault_free.phase1.modularity, 1e-9);
}

TEST(DistributedFaultTest, PersistentDropFailsClosedWithoutDeadlock) {
  const auto g = gala::testing::two_triangles();
  multigpu::DistributedConfig cfg;
  cfg.num_gpus = 2;
  cfg.sync = multigpu::SyncMode::Sparse;
  cfg.max_sync_retries = 1;

  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::CollectiveDrop, "all_gather_v", /*rank=*/1));
  RunScope scope;
  scope.faults().arm(plan);

  try {
    multigpu::distributed_phase1(g, cfg);
    FAIL() << "expected a CollectiveFault";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("collective-drop"), std::string::npos);
  }
}

TEST(DistributedFaultTest, CorruptCompressedOverlappedSyncFallsBackToDense) {
  // The async double-buffered pipeline with codec compression: a corrupted
  // posted community gather must fail closed at the round's second barrier
  // and recover through the barrier-aligned dense retry, bit-identical to
  // the fault-free run.
  const auto g = gala::testing::small_planted();
  multigpu::DistributedConfig cfg;
  cfg.num_gpus = 2;
  cfg.sync = multigpu::SyncMode::Sparse;
  cfg.overlap = true;
  cfg.compress = true;
  const auto fault_free = multigpu::distributed_phase1(g, cfg);

  FaultPlan plan;
  plan.rules.push_back(
      rule(FaultSite::CollectiveCorrupt, "all_gather_v", /*rank=*/0, 0, /*max_fires=*/1));
  RunScope scope;
  scope.faults().arm(plan);

  const auto r = multigpu::distributed_phase1(g, cfg);
  ASSERT_FALSE(r.iteration_log.empty());
  EXPECT_TRUE(r.iteration_log[0].recovered_dense);
  EXPECT_FALSE(r.iteration_log[0].sparse_sync);
  EXPECT_EQ(r.phase1.community, fault_free.phase1.community);
  EXPECT_NEAR(r.phase1.modularity, fault_free.phase1.modularity, 1e-9);
}

TEST(DistributedFaultTest, DroppedWeightGatherRetriesOnTheSecondBuffer) {
  // skip_first=1 lets the community gather through and drops the *weight*
  // gather — the second of the iteration's two double-buffered exchanges.
  // The staged window work must survive the retry (exact parity, no
  // double-applied deltas).
  const auto g = gala::testing::small_planted();
  multigpu::DistributedConfig cfg;
  cfg.num_gpus = 2;
  cfg.sync = multigpu::SyncMode::Adaptive;
  cfg.overlap = true;
  cfg.compress = true;
  const auto fault_free = multigpu::distributed_phase1(g, cfg);

  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::CollectiveDrop, "all_gather_v", /*rank=*/1,
                            /*skip_first=*/1, /*max_fires=*/1));
  RunScope scope;
  scope.faults().arm(plan);

  const auto r = multigpu::distributed_phase1(g, cfg);
  EXPECT_EQ(r.phase1.community, fault_free.phase1.community);
  EXPECT_NEAR(r.phase1.modularity, fault_free.phase1.modularity, 1e-9);
}

TEST(DistributedFaultTest, PersistentDropWithOverlapFailsClosed) {
  const auto g = gala::testing::small_planted();
  multigpu::DistributedConfig cfg;
  cfg.num_gpus = 2;
  cfg.sync = multigpu::SyncMode::Sparse;
  cfg.overlap = true;
  cfg.compress = true;
  cfg.max_sync_retries = 1;

  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::CollectiveDrop, "all_gather_v", /*rank=*/1));
  RunScope scope;
  scope.faults().arm(plan);

  try {
    multigpu::distributed_phase1(g, cfg);
    FAIL() << "expected a CollectiveFault";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("collective-drop"), std::string::npos);
  }
}

TEST(DistributedFaultTest, TimeoutIsDetectedAndNamed) {
  const auto g = gala::testing::two_triangles();
  multigpu::DistributedConfig cfg;
  cfg.num_gpus = 2;
  cfg.sync = multigpu::SyncMode::Dense;
  cfg.max_sync_retries = 0;

  FaultPlan plan;
  plan.rules.push_back(rule(FaultSite::CollectiveTimeout, "all_gather_v", /*rank=*/0));
  RunScope scope;
  scope.faults().arm(plan);

  try {
    multigpu::distributed_phase1(g, cfg);
    FAIL() << "expected a CollectiveFault";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("collective-timeout"), std::string::npos);
  }
}

// ---- communicator hardening ------------------------------------------------

TEST(DistributedFaultTest, ExhaustedSyncRetriesRecoverThroughTheSupervisor) {
  // Three dropped gathers outlast the two sync retries, so level 0's
  // distributed phase 1 fails closed; the supervisor retries the level,
  // which then runs fault-free to the unsupervised partition.
  const auto g = gala::testing::small_planted();
  multigpu::Exchange exchange;
  exchange.num_gpus = 4;
  multigpu::DistributedBackend engine(exchange);
  const auto fault_free = core::run_louvain(g, {}, engine);

  FaultPlan plan;
  plan.rules.push_back(
      rule(FaultSite::CollectiveDrop, "all_gather_v", /*rank=*/1, 0, /*max_fires=*/3));
  RunScope scope;
  scope.faults().arm(plan);
  const auto sup = run_louvain_supervised(g, {}, {}, engine);
  EXPECT_EQ(sup.retries, 1);
  EXPECT_FALSE(sup.degraded);
  const auto recov = recovery_events(sup);
  ASSERT_FALSE(recov.empty());
  EXPECT_EQ(recov[0].action, "retry");
  EXPECT_NE(recov[0].detail.find("collective-drop"), std::string::npos);
  EXPECT_EQ(sup.result.assignment, fault_free.assignment);
  EXPECT_EQ(sup.result.modularity, fault_free.modularity);
}

TEST(CommunicatorTest, CollectivesRejectOutOfRangeRank) {
  multigpu::Communicator comm(2);
  multigpu::CommStats stats;
  const std::vector<int> payload = {1, 2, 3};
  EXPECT_THROW(comm.all_gather_v<int>(5, payload, stats), Error);
  std::vector<double> data = {1.0};
  EXPECT_THROW(comm.all_reduce_sum(2, std::span<double>(data), stats), Error);
  EXPECT_THROW(comm.all_reduce_min(7, 1.0, stats), Error);
}

TEST(CommunicatorTest, ChecksumDetectsSingleBitCorruption) {
  std::vector<std::byte> payload(128);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::byte>(i * 31);
  const std::uint64_t clean = multigpu::fnv1a(payload);
  EXPECT_EQ(clean, multigpu::fnv1a(payload));
  payload[64] ^= std::byte{0x01};
  EXPECT_NE(clean, multigpu::fnv1a(payload));
}

}  // namespace
}  // namespace gala::resilience
