// gala::query unit battery: snapshot construction, epoch ring semantics,
// RCU-style deferred reclamation, the batched executor, and the memtrace /
// governor integration seams.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "gala/core/gala.hpp"
#include "gala/core/incremental.hpp"
#include "gala/core/modularity.hpp"
#include "gala/query/executor.hpp"
#include "gala/query/store.hpp"
#include "gala/scope/run_scope.hpp"
#include "test_util.hpp"

namespace gala {
namespace {

using query::CommunityStore;
using query::QueryExecutor;
using query::SnapshotRef;
using query::SnapshotSource;
using query::StoreOptions;

StoreOptions plain_options(std::size_t max_retained = 8) {
  StoreOptions o;
  o.max_retained = max_retained;
  return o;
}

// ------------------------------------------------------------ snapshot ----
TEST(QuerySnapshot, TwoTrianglesDerivedStateIsExact) {
  const auto g = testing::two_triangles();
  const std::vector<cid_t> assign = {0, 0, 0, 1, 1, 1};
  CommunityStore store(plain_options());
  EXPECT_EQ(store.publish(g, assign), 1u);

  SnapshotRef snap = store.current();
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->source(), SnapshotSource::Direct);
  EXPECT_EQ(snap->num_vertices(), 6u);
  EXPECT_EQ(snap->num_communities(), 2u);
  EXPECT_EQ(snap->size(0), 3u);
  EXPECT_EQ(snap->size(1), 3u);
  // Each triangle vertex has degree 2 (intra) + bridge endpoints add 1.
  EXPECT_DOUBLE_EQ(snap->weight(0), 7.0);
  EXPECT_DOUBLE_EQ(snap->weight(1), 7.0);
  const std::vector<vid_t> left(snap->members(0).begin(), snap->members(0).end());
  const std::vector<vid_t> right(snap->members(1).begin(), snap->members(1).end());
  EXPECT_EQ(left, (std::vector<vid_t>{0, 1, 2}));
  EXPECT_EQ(right, (std::vector<vid_t>{3, 4, 5}));
  EXPECT_DOUBLE_EQ(snap->modularity(), core::modularity(g, assign, 1.0));
  EXPECT_DOUBLE_EQ(snap->modularity_of(0) + snap->modularity_of(1), snap->modularity());
  EXPECT_EQ(snap->validate(), "");
  EXPECT_GT(snap->bytes(), 0u);
}

TEST(QuerySnapshot, LabelPermutationsCanonicalise) {
  const auto g = testing::two_triangles();
  CommunityStore store(plain_options());
  store.publish(g, std::vector<cid_t>{0, 0, 0, 1, 1, 1});
  store.publish(g, std::vector<cid_t>{9, 9, 9, 4, 4, 4});  // same partition, silly labels
  SnapshotRef a = store.at(1);
  SnapshotRef b = store.at(2);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_TRUE(a->same_partition(*b));
  EXPECT_EQ(std::vector<cid_t>(b->assignment().begin(), b->assignment().end()),
            (std::vector<cid_t>{0, 0, 0, 1, 1, 1}));
}

TEST(QuerySnapshot, PublishedEnginePartitionMatchesEngineModularity) {
  const auto g = testing::small_planted(21);
  const auto result = core::run_louvain(g);
  CommunityStore store(plain_options());
  store.publish(g, result);
  SnapshotRef snap = store.current();
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->source(), SnapshotSource::FullRun);
  EXPECT_EQ(snap->num_communities(), result.num_communities);
  EXPECT_DOUBLE_EQ(snap->modularity(), core::modularity(g, result.assignment, 1.0));
  EXPECT_EQ(snap->validate(), "");
}

// ---------------------------------------------------------- epoch ring ----
TEST(QueryStore, RetentionWindowEvictsOldest) {
  const auto g = testing::two_triangles();
  CommunityStore store(plain_options(/*max_retained=*/4));
  EXPECT_FALSE(store.current());
  EXPECT_EQ(store.latest_epoch(), 0u);
  for (int i = 0; i < 12; ++i) store.publish(g, std::vector<cid_t>{0, 0, 0, 1, 1, 1});
  EXPECT_EQ(store.latest_epoch(), 12u);
  EXPECT_EQ(store.oldest_epoch(), 9u);
  EXPECT_EQ(store.retained(), 4u);
  EXPECT_EQ(store.published(), 12u);
  EXPECT_EQ(store.evicted(), 8u);
  EXPECT_FALSE(store.at(8));
  EXPECT_TRUE(store.at(9));
  EXPECT_TRUE(store.at(12));
  EXPECT_FALSE(store.at(13));
  EXPECT_FALSE(store.at(99));
  // No readers were pinning: every evicted snapshot is already reclaimed.
  EXPECT_EQ(store.live_snapshots(), 4u);
  EXPECT_EQ(store.reclaimed(), 8u);
}

TEST(QueryStore, PinnedSnapshotSurvivesEvictionUntilReleased) {
  const auto g = testing::two_triangles();
  CommunityStore store(plain_options(/*max_retained=*/2));
  store.publish(g, std::vector<cid_t>{0, 0, 0, 1, 1, 1});
  SnapshotRef pinned = store.at(1);
  ASSERT_TRUE(pinned);
  const std::uint64_t one_snapshot = pinned->bytes();

  for (int i = 0; i < 6; ++i) store.publish(g, std::vector<cid_t>{0, 1, 2, 3, 4, 5});
  EXPECT_FALSE(store.at(1));  // unreachable for new readers...
  EXPECT_EQ(pinned->epoch(), 1u);  // ...but the held ref still reads cleanly
  EXPECT_EQ(pinned->validate(), "");
  EXPECT_EQ(pinned->size(0), 3u);
  EXPECT_EQ(store.live_snapshots(), 3u);  // 2 retained + 1 pinned retiree
  EXPECT_EQ(store.resident_bytes(), store.at(6)->bytes() + store.at(7)->bytes() + one_snapshot);

  pinned.release();
  EXPECT_EQ(store.reclaim(), one_snapshot);
  EXPECT_EQ(store.live_snapshots(), 2u);
}

TEST(QueryStore, SetMaxRetainedClampsAndApplies) {
  const auto g = testing::two_triangles();
  CommunityStore store(plain_options(/*max_retained=*/8));
  store.set_max_retained(3);
  for (int i = 0; i < 10; ++i) store.publish(g, std::vector<cid_t>{0, 0, 0, 1, 1, 1});
  EXPECT_EQ(store.retained(), 3u);
  store.set_max_retained(0);  // clamps to 1
  store.publish(g, std::vector<cid_t>{0, 0, 0, 1, 1, 1});
  EXPECT_EQ(store.retained(), 1u);
  store.set_max_retained(64);  // clamps to the ring capacity (8)
  EXPECT_EQ(store.max_retained(), 8u);
}

// ------------------------------------------------------------ memtrace ----
TEST(QueryStore, ResidencyGaugeTracksLiveSnapshots) {
  RunScope scope;
  const auto g = testing::small_planted(23);
  {
    CommunityStore store(plain_options(/*max_retained=*/2));
    const auto result = core::run_louvain(g);
    for (int i = 0; i < 5; ++i) store.publish(g, result);
    EXPECT_EQ(scope.memory().live_subsystem("query"), store.resident_bytes());
    EXPECT_GT(store.resident_bytes(), 0u);
  }
  // Store destruction returns the gauge to zero — nothing leaks.
  EXPECT_EQ(scope.memory().live_subsystem("query"), 0u);
}

TEST(QueryStore, ResidencyGaugeBelongsToTheScopeTheStoreWasBuiltUnder) {
  // Two stores in two scopes: each scope's gauge holds its own store's
  // bytes, never the total across the process.
  const auto g = testing::small_planted(23);
  const auto result = core::run_louvain(g);
  RunScope outer;
  CommunityStore outer_store(plain_options());
  outer_store.publish(g, result);
  {
    RunScope inner;
    CommunityStore inner_store(plain_options());
    inner_store.publish(g, result);
    EXPECT_EQ(inner.memory().resident_of("query.snapshots"), inner_store.resident_bytes());
    // A publish under another scope still moves the store's own gauge.
    outer_store.publish(g, result);
    EXPECT_EQ(inner.memory().resident_of("query.snapshots"), inner_store.resident_bytes());
  }
  EXPECT_EQ(outer.memory().resident_of("query.snapshots"), outer_store.resident_bytes());
  EXPECT_GT(outer_store.resident_bytes(), 0u);
}

TEST(QueryStore, ResidencyGaugeSumsTheStoresOfOneScope) {
  RunScope scope;
  const auto g = testing::small_planted(23);
  const auto result = core::run_louvain(g);
  CommunityStore a(plain_options(/*max_retained=*/2));
  {
    CommunityStore b(plain_options(/*max_retained=*/2));
    for (int i = 0; i < 3; ++i) {
      a.publish(g, result);
      b.publish(g, result);
    }
    EXPECT_EQ(scope.memory().resident_of("query.snapshots"),
              a.resident_bytes() + b.resident_bytes());
  }
  // The destroyed store takes its share with it; the other's stays.
  EXPECT_EQ(scope.memory().resident_of("query.snapshots"), a.resident_bytes());
  EXPECT_GT(a.resident_bytes(), 0u);
}

// ------------------------------------------------------------ governor ----
TEST(QueryStore, GovernorPressureCollapsesRetention) {
  RunScope scope;
  const auto g = testing::small_planted(25, 2000, 10, 0.2);
  const auto result = core::run_louvain(g);
  StoreOptions opts;
  opts.max_retained = 8;
  CommunityStore store(opts);  // governor client on
  scope.governor().install({.total_bytes = 3 * (2000 * 3 * 4)});  // ~3 snapshots of headroom
  for (int i = 0; i < 8; ++i) store.publish(g, result);
  EXPECT_GE(scope.governor().rung(), governor::Rung::ReclaimSlabs);
  // Under ladder pressure the store sheds history down to the newest epoch.
  EXPECT_EQ(store.retained(), 1u);
  EXPECT_GT(store.evicted(), 0u);
  EXPECT_TRUE(store.current());
}

// ------------------------------------------------------------ executor ----
TEST(QueryExecutor, BatchedAnswersMatchBruteForce) {
  const auto g = testing::small_planted(27, 600, 12, 0.2);
  const auto result = core::run_louvain(g);
  CommunityStore store(plain_options());
  store.publish(g, result);
  QueryExecutor exec(store);
  SnapshotRef snap = store.current();
  ASSERT_TRUE(snap);
  const auto raw = snap->assignment();

  std::vector<vid_t> batch(g.num_vertices());
  std::iota(batch.begin(), batch.end(), 0);
  std::reverse(batch.begin(), batch.end());
  const auto communities = exec.community_of(*snap, batch);
  const auto sizes = exec.community_size_of(*snap, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(communities[i], raw[batch[i]]);
    vid_t brute = 0;
    for (cid_t c : raw) brute += (c == raw[batch[i]]) ? 1 : 0;
    ASSERT_EQ(sizes[i], brute) << "at " << i;
  }

  const auto top = exec.top_k(*snap, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(top[0].size, top[1].size);
  EXPECT_GE(top[1].size, top[2].size);
  for (const auto& t : top) {
    EXPECT_EQ(t.size, snap->size(t.community));
    EXPECT_DOUBLE_EQ(t.weight, snap->weight(t.community));
  }
  EXPECT_EQ(exec.top_k(*snap, 1u << 20).size(), snap->num_communities());

  const auto mem = exec.members(*snap, top[0].community);
  EXPECT_EQ(mem.size(), top[0].size);
  EXPECT_TRUE(std::is_sorted(mem.begin(), mem.end()));
  for (vid_t v : mem) EXPECT_EQ(raw[v], top[0].community);

  EXPECT_EQ(exec.community_of(5), raw[5]);
}

TEST(QueryExecutor, PointLookupThrowsOnEmptyStoreAndBadVertex) {
  CommunityStore store(plain_options());
  QueryExecutor exec(store);
  EXPECT_THROW(exec.community_of(0), Error);
  store.publish(testing::two_triangles(), std::vector<cid_t>{0, 0, 0, 1, 1, 1});
  EXPECT_THROW(exec.community_of(6), Error);
  SnapshotRef snap = store.current();
  EXPECT_THROW(exec.members(*snap, 2), Error);
}

TEST(QueryExecutor, DiffIsLabelInvariantAndFlagsChangedMemberships) {
  const auto g = testing::two_triangles();
  CommunityStore store(plain_options());
  store.publish(g, std::vector<cid_t>{0, 0, 0, 1, 1, 1});  // epoch 1
  store.publish(g, std::vector<cid_t>{0, 0, 1, 1, 1, 1});  // epoch 2: v2 switched sides
  store.publish(g, std::vector<cid_t>{7, 7, 3, 3, 3, 3});  // epoch 3: relabel of epoch 2

  QueryExecutor exec(store);
  const auto same = exec.diff(2, 3);
  EXPECT_TRUE(same.moved.empty()) << "relabelling is not movement";
  EXPECT_EQ(same.from_epoch, 2u);
  EXPECT_EQ(same.to_epoch, 3u);

  // v2's switch changed the membership set of both communities, so every
  // vertex's members()/size() answer went stale — all six are flagged.
  const auto moved = exec.diff(1, 2);
  EXPECT_EQ(moved.moved, (std::vector<vid_t>{0, 1, 2, 3, 4, 5}));

  const auto self_diff = exec.diff(1, 1);
  EXPECT_TRUE(self_diff.moved.empty());

  EXPECT_THROW(exec.diff(0, 1), Error);
  store.publish(testing::small_planted(29), core::run_louvain(testing::small_planted(29)));
  EXPECT_THROW(exec.diff(1, 4), Error);  // different vertex sets
}

// ----------------------------------------------------------- writers ----
TEST(QueryStore, IncrementalPublishRidesTheUpdatedGraph) {
  const auto g = testing::small_planted(31);
  const auto base = core::run_louvain(g);
  CommunityStore store(plain_options());
  store.publish(g, base);

  std::vector<core::EdgeUpdate> updates;
  updates.push_back({0, 1, 2.5, false});
  updates.push_back({2, 3, 1.5, false});
  const auto repaired = core::update_communities(g, base.assignment, updates);
  store.publish(repaired);

  SnapshotRef snap = store.at(2);
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->source(), SnapshotSource::IncrementalUpdate);
  EXPECT_EQ(snap->num_communities(), repaired.num_communities);
  EXPECT_DOUBLE_EQ(snap->modularity(),
                   core::modularity(repaired.graph, repaired.assignment, 1.0));
  EXPECT_EQ(snap->validate(), "");
}

TEST(QueryStore, EmptyUpdateBatchPublishesAnEqualEpoch) {
  const auto g = testing::small_planted(33);
  const auto base = core::run_louvain(g);
  CommunityStore store(plain_options());
  store.publish(g, base);
  const auto repaired = core::update_communities(g, base.assignment, {});
  store.publish(repaired);

  SnapshotRef before = store.at(1);
  SnapshotRef after = store.at(2);
  ASSERT_TRUE(before);
  ASSERT_TRUE(after);
  EXPECT_TRUE(before->same_partition(*after));
  QueryExecutor exec(store);
  EXPECT_TRUE(exec.diff(1, 2).moved.empty());
}

}  // namespace
}  // namespace gala
