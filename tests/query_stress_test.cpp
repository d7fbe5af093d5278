// TSan epoch-race battery for gala::query: reader threads hammer point
// lookups, member scans, and cross-epoch diffs while a writer publishes
// hundreds of epochs (full-run, perturbed, and update_communities repairs).
// Every reader must observe internally-consistent epochs only (validate()
// cross-checks assignment vs sizes vs member CSR vs the modularity sum and
// the epoch footer — a torn publish trips it), epochs must never run
// backwards, and once the readers drain every retired snapshot must be
// reclaimed with no growth in the live memtrace gauge.
//
// Run under -fsanitize=thread (the sanitize-tsan and query-stress CI jobs);
// it is also a correct (slower) plain-build test and runs in the default
// suite.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gala/core/gala.hpp"
#include "gala/core/incremental.hpp"
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

constexpr int kReaders = 8;

/// Thread-safe failure sink: readers record, the main thread asserts.
class FailureLog {
 public:
  void record(std::string message) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (messages_.size() < 16) messages_.push_back(std::move(message));
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::string summary() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    for (const auto& m : messages_) out += m + "\n";
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
  std::atomic<std::uint64_t> count_{0};
};

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d4a2a795b9397ULL;
  return z ^ (z >> 31);
}

/// One reader pass over whatever epoch is current: consistency validation,
/// point lookups, a member scan, and (sometimes) a historical diff.
void reader_pass(const CommunityStore& store, const QueryExecutor& exec, FailureLog& failures,
                 std::uint64_t& last_epoch, std::uint64_t& rng, std::uint64_t& reads) {
  SnapshotRef snap = store.current();
  if (!snap) return;
  ++reads;

  if (snap->epoch() < last_epoch) {
    failures.record("epoch ran backwards: " + std::to_string(snap->epoch()) + " after " +
                    std::to_string(last_epoch));
  }
  last_epoch = snap->epoch();

  if (const std::string err = snap->validate(); !err.empty()) {
    failures.record("torn epoch: " + err);
    return;
  }

  const vid_t n = snap->num_vertices();
  const cid_t k = snap->num_communities();
  for (int probe = 0; probe < 16; ++probe) {
    const vid_t v = static_cast<vid_t>(splitmix64(rng) % n);
    const cid_t c = snap->community_of(v);
    if (c >= k) {
      failures.record("point lookup out of range at epoch " + std::to_string(snap->epoch()));
      return;
    }
    if (snap->size(c) == 0) {
      failures.record("member of an empty community at epoch " + std::to_string(snap->epoch()));
      return;
    }
  }

  const cid_t scan = static_cast<cid_t>(splitmix64(rng) % k);
  vid_t seen = 0;
  for (const vid_t v : snap->members(scan)) {
    if (snap->community_of(v) != scan) {
      failures.record("member scan disagrees with assignment at epoch " +
                      std::to_string(snap->epoch()));
      return;
    }
    ++seen;
  }
  if (seen != snap->size(scan)) {
    failures.record("member scan count mismatch at epoch " + std::to_string(snap->epoch()));
    return;
  }

  // Sometimes reach back for a retained historical epoch and diff — the
  // executor pins both sides independently of `snap`.
  if ((splitmix64(rng) & 7u) == 0 && snap->epoch() > 2) {
    const std::uint64_t back = snap->epoch() - 1 - (splitmix64(rng) & 1u);
    if (SnapshotRef old = store.at(back)) {
      if (const std::string err = old->validate(); !err.empty()) {
        failures.record("torn historical epoch: " + err);
        return;
      }
      (void)exec.diff(*old, *snap);
    }
  }
}

TEST(QueryStress, ReadersNeverObserveTornEpochsAcrossHundredsOfPublishes) {
  RunScope scope;
  const auto g = testing::small_planted(41, 240, 8, 0.2);
  const auto base = core::run_louvain(g);

  StoreOptions opts;
  opts.max_retained = 4;
  CommunityStore store(opts);
  // Batches this size run inline: no cross-reader thread-pool coupling.
  QueryExecutor exec(store, nullptr, /*grain=*/1u << 20);

  constexpr int kPublishes = 240;
  constexpr int kIncrementalEvery = 8;

  FailureLog failures;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> incremental_epochs{0};

  std::thread writer([&] {
    const EnterScope enter(&scope);  // the residency gauge is the test scope's
    graph::Graph current_graph = g;
    std::vector<cid_t> assignment = base.assignment;
    std::uint64_t rng = 0x5eed5eedULL;
    for (int i = 1; i <= kPublishes; ++i) {
      if (i % kIncrementalEvery == 0) {
        // A real update_communities repair batch: insert two random edges,
        // repair from the previous partition, publish the result.
        std::vector<core::EdgeUpdate> updates;
        const vid_t n = current_graph.num_vertices();
        updates.push_back({static_cast<vid_t>(splitmix64(rng) % n),
                           static_cast<vid_t>(splitmix64(rng) % n), 1.0, false});
        updates.push_back({static_cast<vid_t>(splitmix64(rng) % n),
                           static_cast<vid_t>(splitmix64(rng) % n), 1.0, false});
        auto repaired = core::update_communities(current_graph, assignment, updates);
        store.publish(repaired);
        incremental_epochs.fetch_add(1, std::memory_order_relaxed);
        current_graph = std::move(repaired.graph);
        assignment = std::move(repaired.assignment);
      } else {
        // Perturb a handful of vertices so successive epochs genuinely
        // differ (rebuilt sizes, member CSR, modularity terms).
        std::vector<cid_t> perturbed = assignment;
        for (int moves = 0; moves < 4; ++moves) {
          const vid_t v = static_cast<vid_t>(splitmix64(rng) % perturbed.size());
          perturbed[v] = static_cast<cid_t>(splitmix64(rng) % 8);
        }
        store.publish(current_graph, perturbed, SnapshotSource::Direct);
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::vector<std::uint64_t> reads_per_thread(kReaders, 0);
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last_epoch = 0;
      std::uint64_t rng = 0xface0000ULL + static_cast<std::uint64_t>(t);
      std::uint64_t reads = 0;
      while (!done.load(std::memory_order_acquire)) {
        reader_pass(store, exec, failures, last_epoch, rng, reads);
      }
      // A few passes after the last publish so every reader sees the final
      // epoch at least once.
      for (int i = 0; i < 8; ++i) reader_pass(store, exec, failures, last_epoch, rng, reads);
      reads_per_thread[t] = reads;
    });
  }

  writer.join();
  for (auto& r : readers) r.join();

  EXPECT_EQ(failures.count(), 0u) << failures.summary();
  EXPECT_EQ(store.published(), static_cast<std::uint64_t>(kPublishes));
  EXPECT_EQ(store.latest_epoch(), static_cast<std::uint64_t>(kPublishes));
  EXPECT_GE(incremental_epochs.load(), static_cast<std::uint64_t>(kPublishes / kIncrementalEvery));
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_GT(reads_per_thread[t], 0u) << "reader " << t << " never observed an epoch";
  }

  // Every reader has drained: one reclaim sweep must leave exactly the
  // retained window alive, and the live memtrace gauge must agree — no
  // retained-snapshot leaks.
  store.reclaim();
  EXPECT_EQ(store.live_snapshots(), store.retained());
  EXPECT_EQ(store.retained(), 4u);
  EXPECT_GT(store.reclaimed(), 0u);
  EXPECT_EQ(store.evicted() + store.retained(), store.published());
  EXPECT_EQ(scope.memory().live_subsystem("query"), store.resident_bytes());
}

TEST(QueryStress, SingleEpochChurnKeepsThePinValidationHonest) {
  const auto g = testing::two_triangles();
  StoreOptions opts;
  opts.max_retained = 1;  // every publish retires the previous epoch
  CommunityStore store(opts);

  const std::vector<cid_t> a = {0, 0, 0, 1, 1, 1};
  const std::vector<cid_t> b = {0, 1, 2, 3, 4, 5};

  FailureLog failures;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int i = 0; i < 400; ++i) store.publish(g, (i & 1) != 0 ? a : b);
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        SnapshotRef snap = store.current();
        if (!snap) continue;
        if (snap->epoch() < last_epoch) failures.record("epoch ran backwards under churn");
        last_epoch = snap->epoch();
        if (const std::string err = snap->validate(); !err.empty()) {
          failures.record("torn epoch under churn: " + err);
        }
        // The two alternating partitions are distinguishable by size(0).
        const vid_t s = snap->size(0);
        if (s != 3 && s != 1) failures.record("impossible community size under churn");
      }
    });
  }

  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.count(), 0u) << failures.summary();
  store.reclaim();
  EXPECT_EQ(store.live_snapshots(), 1u);
  EXPECT_EQ(store.published(), 400u);
}

TEST(QueryStress, GovernorReclaimerRacesReadersAndPublishes) {
  RunScope scope;
  const auto g = testing::small_planted(43, 800, 8, 0.2);
  const auto base = core::run_louvain(g);

  StoreOptions opts;
  opts.max_retained = 8;  // governor pressure collapses this to 1
  CommunityStore store(opts);

  // Tight enough that publishing 8 retained snapshots crosses the 80%
  // reclaim threshold and keeps the rung-1 reclaimer firing.
  scope.governor().install({.total_bytes = 4 * 800 * 12});

  FailureLog failures;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    const EnterScope enter(&scope);  // publishes admit under the test's budget
    for (int i = 0; i < 120; ++i) store.publish(g, base.assignment);
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        SnapshotRef snap = store.current();
        if (!snap) continue;
        if (const std::string err = snap->validate(); !err.empty()) {
          failures.record("torn epoch under governor pressure: " + err);
        }
      }
    });
  }

  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.count(), 0u) << failures.summary();
  EXPECT_GE(scope.governor().rung(), governor::Rung::ReclaimSlabs);
  EXPECT_GT(store.evicted(), 0u);
  store.reclaim();
  EXPECT_EQ(store.live_snapshots(), store.retained());
}

}  // namespace
}  // namespace gala
