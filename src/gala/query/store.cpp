#include "gala/query/store.hpp"

#include <algorithm>
#include <thread>

#include "gala/common/error.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/incremental.hpp"
#include "gala/scope/run_scope.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::query {

namespace {

std::size_t next_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

void SnapshotRef::release() {
  if (store_ != nullptr) {
    store_->release_slot(slot_, snap_);
    store_ = nullptr;
    snap_ = nullptr;
  }
}

CommunityStore::CommunityStore(StoreOptions options)
    : capacity_(next_pow2(std::max<std::size_t>(options.max_retained, 1))),
      mask_(capacity_ - 1),
      ring_(capacity_),
      hazards_(std::max<std::size_t>(options.reader_slots, 1)),
      max_retained_(std::clamp<std::size_t>(options.max_retained, 1, capacity_)),
      scope_(RunScope::current()) {
  for (auto& cell : ring_) cell.store(nullptr, std::memory_order_relaxed);
  // Rung-1 ladder client: under pressure the governor asks the store to
  // shed history. Runs under the governor mutex, so: try-lock only (a
  // publisher may be mid-link and could itself be blocked inside a gauge
  // admission), and raw-registry gauge updates only (the admitting
  // wrapper would re-enter Governor::admit and self-deadlock).
  scope_.governor().register_reclaimer(this, [this]() -> std::uint64_t {
    std::unique_lock<std::mutex> lock(writer_mutex_, std::try_to_lock);
    if (!lock.owns_lock()) return 0;
    const std::uint64_t latest = latest_epoch_.load(std::memory_order_relaxed);
    if (latest != 0) {
      std::uint64_t oldest = oldest_epoch_.load(std::memory_order_relaxed);
      while (oldest < latest) {
        retire_cell_locked(oldest);
        ++oldest;
        evicted_.fetch_add(1, std::memory_order_relaxed);
      }
      oldest_epoch_.store(oldest, std::memory_order_release);
    }
    const std::uint64_t freed = reclaim_locked();
    update_residency(/*admitting=*/false);
    return freed;
  });
}

CommunityStore::~CommunityStore() {
  scope_.governor().unregister_reclaimer(this);
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    for (auto& cell : ring_) cell.store(nullptr, std::memory_order_seq_cst);
    active_.clear();
    retired_.clear();
    resident_bytes_.store(0, std::memory_order_relaxed);
  }
  update_residency(/*admitting=*/true);
}

std::uint64_t CommunityStore::publish(const graph::Graph& g, std::span<const cid_t> assignment,
                                      SnapshotSource source, wt_t resolution) {
  telemetry::ScopedSpan span(RunScope::current().tracer(), "publish", "query");
  auto snap = std::unique_ptr<Snapshot>(new Snapshot());
  snap->build(g, assignment, source, resolution);
  const cid_t k = snap->num_communities();
  // Transient build scratch (internal-weight accumulator + CSR cursors):
  // one-shot modeled charge, outside the writer lock so an installed
  // governor can observe and escalate without any lock held here.
  memtrace::charge("query.publish_scratch",
                   static_cast<std::uint64_t>(k) * sizeof(wt_t) +
                       (static_cast<std::uint64_t>(k) + 1) * sizeof(eid_t));
  span.last_arg("communities", k);
  span.arg("bytes", static_cast<double>(snap->bytes()));
  const std::uint64_t e = link_and_evict(std::move(snap));
  span.last_arg("epoch", static_cast<double>(e));
  return e;
}

std::uint64_t CommunityStore::publish(const graph::Graph& g, const core::GalaResult& result,
                                      wt_t resolution) {
  return publish(g, result.assignment, SnapshotSource::FullRun, resolution);
}

std::uint64_t CommunityStore::publish(const core::IncrementalResult& result, wt_t resolution) {
  return publish(result.graph, result.assignment, SnapshotSource::IncrementalUpdate, resolution);
}

std::uint64_t CommunityStore::link_and_evict(std::unique_ptr<Snapshot> snap) {
  std::uint64_t epoch = 0;
  std::uint64_t newly_evicted = 0;
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    epoch = latest_epoch_.load(std::memory_order_relaxed) + 1;
    snap->epoch_ = epoch;
    snap->epoch_footer_ = epoch;
    // The target cell can only still be occupied by epoch - capacity when
    // retention was just widened; retire it rather than orphan it.
    if (epoch > capacity_) retire_cell_locked(epoch - capacity_);
    resident_bytes_.fetch_add(snap->bytes(), std::memory_order_relaxed);
    ring_[epoch & mask_].store(snap.get(), std::memory_order_seq_cst);
    active_.push_back(std::move(snap));
    latest_epoch_.store(epoch, std::memory_order_release);
    std::uint64_t oldest = oldest_epoch_.load(std::memory_order_relaxed);
    if (oldest == 0) oldest = epoch;
    const std::size_t keep = effective_max_retained();
    while (epoch - oldest + 1 > keep) {
      retire_cell_locked(oldest);
      ++oldest;
      ++newly_evicted;
    }
    oldest_epoch_.store(oldest, std::memory_order_release);
    if (newly_evicted != 0) evicted_.fetch_add(newly_evicted, std::memory_order_relaxed);
    published_.fetch_add(1, std::memory_order_relaxed);
    reclaim_locked();
  }
  update_residency(/*admitting=*/true);
  return epoch;
}

void CommunityStore::retire_cell_locked(std::uint64_t epoch) {
  if (epoch == 0) return;
  auto& cell = ring_[epoch & mask_];
  const Snapshot* s = cell.load(std::memory_order_relaxed);
  if (s == nullptr || s->epoch() != epoch) return;
  // seq_cst: ordered against reader hazard publication — any reader that
  // re-validated the cell after this store either sees nullptr (and
  // retries) or its hazard is visible to the reclaim scan below.
  cell.store(nullptr, std::memory_order_seq_cst);
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if (it->get() == s) {
      retired_.push_back(std::move(*it));
      active_.erase(it);
      break;
    }
  }
}

std::uint64_t CommunityStore::reclaim_locked() {
  std::uint64_t freed = 0;
  std::uint64_t count = 0;
  for (auto it = retired_.begin(); it != retired_.end();) {
    if (pinned(it->get())) {
      ++it;
      continue;
    }
    freed += (*it)->bytes();
    ++count;
    it = retired_.erase(it);
  }
  if (freed != 0) {
    resident_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  }
  if (count != 0) {
    reclaimed_.fetch_add(count, std::memory_order_relaxed);
  }
  return freed;
}

std::uint64_t CommunityStore::reclaim() {
  std::uint64_t freed = 0;
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    freed = reclaim_locked();
  }
  update_residency(/*admitting=*/true);
  return freed;
}

bool CommunityStore::pinned(const Snapshot* snap) const {
  for (const HazardSlot& h : hazards_) {
    if (h.ptr.load(std::memory_order_seq_cst) == snap) return true;
  }
  return false;
}

std::size_t CommunityStore::claim_slot() const {
  thread_local std::size_t hint = 0;
  const std::size_t n = hazards_.size();
  for (;;) {
    for (std::size_t probe = 0; probe < n; ++probe) {
      const std::size_t i = (hint + probe) % n;
      bool expected = false;
      if (hazards_[i].claimed.compare_exchange_strong(expected, true,
                                                      std::memory_order_acquire)) {
        hint = (i + 1) % n;
        return i;
      }
    }
    std::this_thread::yield();
  }
}

void CommunityStore::release_slot(std::size_t slot, const Snapshot* /*snap*/) const {
  hazards_[slot].ptr.store(nullptr, std::memory_order_release);
  hazards_[slot].claimed.store(false, std::memory_order_release);
}

SnapshotRef CommunityStore::pin(std::uint64_t epoch) const {
  if (epoch == 0) return {};
  const std::atomic<const Snapshot*>& cell = ring_[epoch & mask_];
  if (cell.load(std::memory_order_acquire) == nullptr) return {};
  const std::size_t slot = claim_slot();
  HazardSlot& h = hazards_[slot];
  for (;;) {
    const Snapshot* s = cell.load(std::memory_order_acquire);
    if (s == nullptr) break;
    h.ptr.store(s, std::memory_order_seq_cst);
    if (cell.load(std::memory_order_seq_cst) != s) {
      // The writer replaced or retired the cell between our load and the
      // hazard publication; the pin is not safe — retry.
      h.ptr.store(nullptr, std::memory_order_seq_cst);
      continue;
    }
    // Pinned: the snapshot at this address cannot be reclaimed while the
    // hazard holds it, so dereferencing is safe from here on.
    if (s->epoch() != epoch) {
      h.ptr.store(nullptr, std::memory_order_seq_cst);
      break;
    }
    return SnapshotRef(this, slot, s);
  }
  h.claimed.store(false, std::memory_order_release);
  return {};
}

SnapshotRef CommunityStore::current() const {
  for (;;) {
    const std::uint64_t e = latest_epoch_.load(std::memory_order_acquire);
    if (e == 0) return {};
    if (SnapshotRef ref = pin(e)) return ref;
    // The writer advanced past e before we pinned it; chase the new head.
  }
}

SnapshotRef CommunityStore::at(std::uint64_t epoch) const { return pin(epoch); }

std::size_t CommunityStore::retained() const {
  const std::uint64_t latest = latest_epoch_.load(std::memory_order_acquire);
  if (latest == 0) return 0;
  return static_cast<std::size_t>(latest - oldest_epoch_.load(std::memory_order_acquire) + 1);
}

void CommunityStore::set_max_retained(std::size_t n) {
  max_retained_.store(std::clamp<std::size_t>(n, 1, capacity_), std::memory_order_relaxed);
}

std::size_t CommunityStore::live_snapshots() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return active_.size() + retired_.size();
}

std::size_t CommunityStore::effective_max_retained() const {
  const governor::Governor& gov = RunScope::current().governor();
  if (gov.enabled() && gov.rung() >= governor::Rung::ReclaimSlabs) {
    return 1;
  }
  return max_retained_.load(std::memory_order_relaxed);
}

void CommunityStore::update_residency(bool admitting) {
  // The scope's gauge sums the shares of the stores built under it; this
  // store moves it by the change of its own share. The admission runs first
  // and outside residency_mutex_: it can escalate the governor, whose
  // reclaimer evicts history and updates this share itself.
  std::uint64_t admitted = 0;
  if (admitting && scope_.governor().enabled()) {
    const std::uint64_t now = resident_bytes_.load(std::memory_order_relaxed);
    const std::uint64_t shown = shown_bytes_.load(std::memory_order_relaxed);
    if (now > shown) admitted = scope_.admit("query.snapshots", now - shown, /*may_throw=*/false);
  }
  memtrace::MemRegistry& memory = scope_.memory();
  std::lock_guard<std::mutex> lock(residency_mutex_);
  if (!memory.armed()) {
    memory.release(admitted);
    return;
  }
  const std::uint64_t now = resident_bytes_.load(std::memory_order_relaxed);
  const std::uint64_t shown = shown_bytes_.load(std::memory_order_relaxed);
  memory.add_resident("query.snapshots",
                      static_cast<std::int64_t>(now) - static_cast<std::int64_t>(shown), admitted);
  shown_bytes_.store(now, std::memory_order_relaxed);
}

}  // namespace gala::query
