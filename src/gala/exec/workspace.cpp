#include "gala/exec/workspace.hpp"

#include <algorithm>

#include "gala/scope/run_scope.hpp"

namespace gala::exec {

std::uint64_t Workspace::checkout(std::size_t bytes, std::uint64_t tag, Slab& out,
                                  bool& same_tag) {
  const std::size_t capacity = class_bytes(bytes);
  const std::size_t first_class = class_index(capacity);
  same_tag = false;

  std::lock_guard lock(mutex_);
  ++stats_.checkouts;
  if (pooling_) {
    // Best fit: the exact class, then nearby larger ones. Within a class,
    // prefer a slab last used under the same tag. The slack bound keeps a
    // small request from consuming a much larger slab another consumer will
    // re-take this iteration (internal fragmentation ≤ 4×).
    constexpr std::size_t kMaxFitSlack = 2;  // up to 4 * requested class
    const std::size_t last_class = std::min(first_class + kMaxFitSlack + 1, kNumClasses);
    for (std::size_t c = first_class; c < last_class; ++c) {
      std::vector<Slab>& bucket = free_[c];
      if (bucket.empty()) continue;
      std::size_t pick = bucket.size() - 1;
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i].tag_hash == tag) {
          pick = i;
          break;
        }
      }
      out = std::move(bucket[pick]);
      bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(pick));
      same_tag = out.tag_hash == tag;
      out.tag_hash = tag;
      ++stats_.reuse_hits;
      if (same_tag) ++stats_.tag_hits;
      stats_.pooled_bytes -= out.capacity;
      stats_.outstanding_bytes += out.capacity;
      stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.outstanding_bytes);
      stats_.level_peak_bytes = std::max(stats_.level_peak_bytes, stats_.outstanding_bytes);
      return epoch_.load(std::memory_order_relaxed);
    }
  }
  out.data = std::make_unique<std::byte[]>(capacity);
  out.capacity = capacity;
  out.tag_hash = tag;
  ++stats_.heap_allocs;
  // Pool misses are the interesting checkout outcome (steady-state loops run
  // alloc-free), so only they earn a flight event.
  telemetry::flight(telemetry::FlightKind::WorkspaceAlloc, static_cast<double>(capacity),
                    static_cast<double>(stats_.heap_allocs));
  stats_.bytes_allocated += capacity;
  stats_.outstanding_bytes += capacity;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.outstanding_bytes);
  stats_.level_peak_bytes = std::max(stats_.level_peak_bytes, stats_.outstanding_bytes);
  return epoch_.load(std::memory_order_relaxed);
}

void Workspace::give_back(Slab&& slab, std::size_t /*bytes*/, std::uint64_t lease_epoch) noexcept {
  Slab taken = std::move(slab);  // always consume: the lease's slab goes null
  std::lock_guard lock(mutex_);
  stats_.outstanding_bytes -= taken.capacity;
  if (lease_epoch != epoch_.load(std::memory_order_relaxed)) ++stats_.stale_releases;
  if (!pooling_) return;  // `taken` frees the storage here
  stats_.pooled_bytes += taken.capacity;
  free_[class_index(taken.capacity)].push_back(std::move(taken));
}

void Workspace::reset_level() {
  {
    std::lock_guard lock(mutex_);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    ++stats_.levels;
    // The new level starts from whatever is still (illegitimately) checked
    // out; normally zero, since leases must not straddle levels.
    stats_.level_peak_bytes = stats_.outstanding_bytes;
  }
  // Leak detector hook (outside the workspace lock — the registry takes its
  // own): any tag with live modeled bytes here is a lease straddling levels.
  memtrace::MemRegistry& memory = RunScope::current().memory();
  if (memory.armed()) memory.note_level_reset();
}

std::size_t Workspace::trim() {
  std::lock_guard lock(mutex_);
  std::size_t freed = 0;
  for (auto& bucket : free_) {
    for (const Slab& slab : bucket) freed += slab.capacity;
    bucket.clear();
  }
  stats_.pooled_bytes = 0;
  return freed;
}

void Workspace::set_pooling(bool enabled) {
  std::lock_guard lock(mutex_);
  pooling_ = enabled;
}

bool Workspace::pooling() const {
  std::lock_guard lock(mutex_);
  return pooling_;
}

WorkspaceStats Workspace::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace gala::exec
