// gala::query — the epoch-versioned community snapshot store.
//
// CommunityStore is the seam between the engine (writers: run_louvain,
// update_communities, or any raw assignment) and the serving read path.
// Each publish freezes an immutable Snapshot and links it into a fixed ring
// of atomic epoch slots; an atomic latest-epoch counter advances last, so a
// new epoch becomes visible only once fully built.
//
// Reader protocol (lock-free, hazard-pointer validated):
//   1. claim a hazard slot (CAS on a free slot — lock-free, no mutex)
//   2. load the ring cell for the wanted epoch (acquire)
//   3. publish the pointer into the hazard slot (seq_cst)
//   4. re-load the ring cell (seq_cst); if it still holds the same snapshot
//      the pin is safe — the writer's retire scan is ordered after the cell
//      overwrite, so it must observe this hazard. If the cell changed, retry.
// SnapshotRef releases the hazard slot on destruction. Readers never take a
// lock and never block a writer; writers never block readers.
//
// Writer protocol (serialised by writer_mutex_):
//   build the snapshot outside the lock, then under it: stamp the next
//   epoch, retire whatever the target ring cell held, link, advance
//   latest_epoch_, evict epochs beyond the retention window, and sweep the
//   retired list against the hazard slots — a retired snapshot is deleted
//   only when no reader pins it (RCU-style deferred reclamation).
//
// Residency accounting: live snapshot bytes (retained + retired-but-pinned)
// are a memtrace resident gauge under "query.snapshots" — a gauge, not
// on_alloc/on_free, because snapshots legitimately outlive engine level
// resets and must not trip the leak detector. The gauge belongs to the
// RunScope the store was built under and sums the stores built under that
// scope: each store adds the change of its own share. It is updated outside
// writer_mutex_ after a governor admission, so an installed governor sees
// snapshot residency and can push back.
//
// Governor integration: the store registers a rung-1 reclaimer with the
// governor of the RunScope it was built under (which must outlive the
// store); the reclaimer evicts
// every retained epoch but the newest and frees drained retirees. The
// reclaimer runs under the governor mutex, so it (a) try-locks
// writer_mutex_ and yields if a publish is in flight, and (b) updates the
// residency gauge through the raw registry — never the admitting wrapper,
// which would re-enter Governor::admit and self-deadlock. Publishers also
// consult the ladder directly: at rung >= ReclaimSlabs the effective
// retention collapses to a single epoch while the current scope's budget
// holds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "gala/governor/governor.hpp"
#include "gala/query/snapshot.hpp"

namespace gala {
class RunScope;
}  // namespace gala

namespace gala::core {
struct GalaResult;
struct IncrementalResult;
}  // namespace gala::core

namespace gala::query {

class CommunityStore;

/// RAII pin on one published snapshot. Holding a ref keeps the snapshot
/// alive (the store defers reclamation) without blocking any writer. Empty
/// refs (default-constructed, or a miss on an evicted epoch) are falsy.
class SnapshotRef {
 public:
  SnapshotRef() = default;
  ~SnapshotRef() { release(); }
  SnapshotRef(SnapshotRef&& other) noexcept
      : store_(other.store_), slot_(other.slot_), snap_(other.snap_) {
    other.store_ = nullptr;
    other.snap_ = nullptr;
  }
  SnapshotRef& operator=(SnapshotRef&& other) noexcept {
    if (this != &other) {
      release();
      store_ = other.store_;
      slot_ = other.slot_;
      snap_ = other.snap_;
      other.store_ = nullptr;
      other.snap_ = nullptr;
    }
    return *this;
  }
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;

  explicit operator bool() const { return snap_ != nullptr; }
  const Snapshot& operator*() const { return *snap_; }
  const Snapshot* operator->() const { return snap_; }
  const Snapshot* get() const { return snap_; }

  void release();

 private:
  friend class CommunityStore;
  SnapshotRef(const CommunityStore* store, std::size_t slot, const Snapshot* snap)
      : store_(store), slot_(slot), snap_(snap) {}

  const CommunityStore* store_ = nullptr;
  std::size_t slot_ = 0;
  const Snapshot* snap_ = nullptr;
};

struct StoreOptions {
  /// Epochs kept addressable through at(); older ones are evicted on
  /// publish. Clamped to [1, ring capacity].
  std::size_t max_retained = 8;
  /// Concurrent pinned snapshots (hazard slots). Acquire spins when all are
  /// claimed, so size for peak reader concurrency; 64 covers the stress
  /// battery's 8 readers with an order of magnitude to spare.
  std::size_t reader_slots = 64;
};

/// Epoch-versioned snapshot store: single- or multi-writer (publishes are
/// serialised), any number of lock-free readers.
class CommunityStore {
 public:
  explicit CommunityStore(StoreOptions options = {});
  /// All SnapshotRefs must be released before destruction (asserted).
  ~CommunityStore();
  CommunityStore(const CommunityStore&) = delete;
  CommunityStore& operator=(const CommunityStore&) = delete;

  /// Publishes a raw assignment over `g` as the next epoch. Returns the
  /// epoch number (the snapshot itself is reached through current()/at(),
  /// which pin it safely).
  std::uint64_t publish(const graph::Graph& g, std::span<const cid_t> assignment,
                        SnapshotSource source = SnapshotSource::Direct, wt_t resolution = 1.0);
  /// Publishes a completed run_louvain result.
  std::uint64_t publish(const graph::Graph& g, const core::GalaResult& result,
                        wt_t resolution = 1.0);
  /// Publishes an update_communities repair batch (uses the updated graph
  /// the repair produced).
  std::uint64_t publish(const core::IncrementalResult& result, wt_t resolution = 1.0);

  /// Pins the newest epoch; empty before the first publish.
  SnapshotRef current() const;
  /// Pins a specific epoch; empty if never published or already evicted.
  SnapshotRef at(std::uint64_t epoch) const;

  std::uint64_t latest_epoch() const { return latest_epoch_.load(std::memory_order_acquire); }
  std::uint64_t oldest_epoch() const { return oldest_epoch_.load(std::memory_order_acquire); }
  /// Epochs currently addressable via at().
  std::size_t retained() const;
  std::size_t max_retained() const { return max_retained_.load(std::memory_order_relaxed); }
  void set_max_retained(std::size_t n);

  /// Snapshots alive on the heap: retained + retired-awaiting-readers.
  std::size_t live_snapshots() const;
  /// Modeled bytes across live snapshots (the "query.snapshots" gauge).
  std::uint64_t resident_bytes() const { return resident_bytes_.load(std::memory_order_relaxed); }

  std::uint64_t published() const { return published_.load(std::memory_order_relaxed); }
  std::uint64_t evicted() const { return evicted_.load(std::memory_order_relaxed); }
  std::uint64_t reclaimed() const { return reclaimed_.load(std::memory_order_relaxed); }

  /// Sweeps the retired list, deleting snapshots no reader pins. Publish
  /// does this automatically; call directly to drain after readers exit.
  /// Returns modeled bytes freed.
  std::uint64_t reclaim();

 private:
  friend class SnapshotRef;

  struct alignas(64) HazardSlot {
    std::atomic<bool> claimed{false};
    std::atomic<const Snapshot*> ptr{nullptr};
  };

  std::size_t claim_slot() const;
  void release_slot(std::size_t slot, const Snapshot* snap) const;
  SnapshotRef pin(std::uint64_t epoch) const;
  bool pinned(const Snapshot* snap) const;

  std::uint64_t link_and_evict(std::unique_ptr<Snapshot> snap);
  /// Caller holds writer_mutex_. Returns modeled bytes freed.
  std::uint64_t reclaim_locked();
  /// Caller holds writer_mutex_. Moves the ring cell for `epoch` (if any)
  /// onto the retired list.
  void retire_cell_locked(std::uint64_t epoch);
  std::size_t effective_max_retained() const;
  /// Brings this store's share of the residency gauge up to date;
  /// `admitting` charges an increase to the governor first (publish path),
  /// which the reclaimer path must not re-enter.
  void update_residency(bool admitting);

  const std::size_t capacity_;  // power of two
  const std::size_t mask_;
  std::vector<std::atomic<const Snapshot*>> ring_;
  mutable std::vector<HazardSlot> hazards_;

  std::atomic<std::uint64_t> latest_epoch_{0};
  std::atomic<std::uint64_t> oldest_epoch_{0};
  std::atomic<std::size_t> max_retained_;
  std::atomic<std::uint64_t> resident_bytes_{0};
  // This store's share of the scope's gauge; written under residency_mutex_.
  std::atomic<std::uint64_t> shown_bytes_{0};
  std::mutex residency_mutex_;
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> reclaimed_{0};

  mutable std::mutex writer_mutex_;
  // Both guarded by writer_mutex_: ring-linked snapshots, then snapshots
  // unlinked from the ring but possibly still pinned by a reader.
  std::vector<std::unique_ptr<Snapshot>> active_;
  std::vector<std::unique_ptr<Snapshot>> retired_;
  RunScope& scope_;  // built under: holds the reclaimer and the gauge; not owned
};

}  // namespace gala::query
