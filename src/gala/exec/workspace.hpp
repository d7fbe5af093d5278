// Pooled buffer workspace — the engine's single memory plan.
//
// A Workspace owns every transient buffer the pipeline needs (host arrays
// standing in for device global memory, shared-memory arena pages, hashtable
// scratch slabs) in size-class-bucketed free lists. Callers check buffers
// out with an explicit type, element count, tag, and fill policy
//
//   auto lease = ws.take<wt_t>(n, "phase1.delta", Fill::Zero);
//
// and the RAII Lease returns the slab to the pool on destruction. After the
// first iteration of a level has established the working set, every
// subsequent checkout is served from the pool — the BSP hot loop performs
// zero heap allocations (the property the perf-diff gate asserts via the
// `heap_allocs` counter).
//
// Semantics the rest of the system builds on:
//
//  - Size classes: capacities are powers of two (min 64 B). A request is
//    served best-fit: its exact class first, then the nearest larger class.
//  - Tag affinity: a slab remembers the tag it was last checked out under
//    and a class match prefers same-tag slabs. `Lease::recycled_same_tag()`
//    tells the caller whether a *dirty* checkout still holds that tag's
//    bytes — the hashtable scratch uses this to skip re-initialising slabs
//    whose empty-bucket invariant is maintained by table reset().
//  - Fill policy is explicit at checkout: Fill::Zero memsets the requested
//    range; Fill::Dirty hands the slab over as-is (the caller owns
//    initialisation, which is what makes reuse bit-identical to fresh
//    allocation wherever the code already writes before reading).
//  - reset_level() starts a new epoch (one per Louvain level). It records
//    the level's high-water mark and invalidates outstanding leases:
//    accessing a stale lease's span() throws (always-on check, so the trap
//    fires in release builds too); returning one is tolerated but counted
//    in `stale_releases`.
//  - set_pooling(false) degrades every checkout to a plain heap allocation
//    (and every return to a free), which gives the determinism tests a
//    pooling-off baseline with identical observable behaviour.
//
// Thread safety: all public members are safe to call concurrently; gpusim
// blocks check arena pages and hash scratch out from worker threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "gala/common/error.hpp"
#include "gala/scope/run_scope.hpp"

namespace gala::exec {

/// Checkout fill policy — zeroing is explicit, never implicit.
enum class Fill : std::uint8_t {
  Dirty,  ///< slab handed over as-is; caller writes before reading
  Zero,   ///< requested byte range is zeroed
};

/// Point-in-time snapshot of a workspace's accounting.
struct WorkspaceStats {
  std::uint64_t checkouts = 0;       ///< total take() calls
  std::uint64_t heap_allocs = 0;     ///< pool misses (operator new)
  std::uint64_t reuse_hits = 0;      ///< checkouts served from the pool
  std::uint64_t tag_hits = 0;        ///< reuse hits with a matching tag
  std::uint64_t stale_releases = 0;  ///< leases returned after reset_level()
  std::uint64_t bytes_allocated = 0; ///< cumulative heap bytes ever allocated
  std::uint64_t pooled_bytes = 0;    ///< bytes idle in free lists right now
  std::uint64_t outstanding_bytes = 0;  ///< bytes checked out right now
  std::uint64_t peak_bytes = 0;         ///< lifetime outstanding high-water mark
  std::uint64_t level_peak_bytes = 0;   ///< high-water mark of the current epoch
  std::uint64_t levels = 0;             ///< reset_level() calls so far

  /// Fraction of checkouts that avoided a heap allocation.
  double reuse_rate() const {
    return checkouts > 0 ? static_cast<double>(reuse_hits) / static_cast<double>(checkouts) : 0.0;
  }
};

class Workspace {
  /// One pooled buffer: heap storage rounded up to a size class, plus the
  /// tag it was last checked out under (for tag-affine reuse).
  struct Slab {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;   ///< bytes, a size-class power of two
    std::uint64_t tag_hash = 0; ///< tag of the last checkout
  };

 public:
  explicit Workspace(bool pooling = true) : pooling_(pooling) {}

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// A checked-out slab, typed. Movable; returns its slab on destruction.
  template <typename T>
  class Lease {
    static_assert(std::is_trivially_copyable_v<T> || std::is_trivially_destructible_v<T>,
                  "workspace slabs hold raw storage: elements must not need destruction");

   public:
    Lease() = default;
    ~Lease() { release_quiet(); }

    Lease(Lease&& o) noexcept { *this = std::move(o); }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release_quiet();
        ws_ = o.ws_;
        slab_ = std::move(o.slab_);
        count_ = o.count_;
        epoch_ = o.epoch_;
        same_tag_ = o.same_tag_;
        tag_ = o.tag_;
        o.ws_ = nullptr;
        o.count_ = 0;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    explicit operator bool() const { return slab_.data != nullptr; }

    /// The requested element range. Throws gala::Error when the lease
    /// outlived a reset_level() epoch (use-after-reset trap, always on).
    std::span<T> span() const {
      check_epoch();
      return {data(), count_};
    }
    T* data() const { return reinterpret_cast<T*>(slab_.data.get()); }
    std::size_t size() const { return count_; }
    /// Full element capacity of the underlying size-class slab (>= size()).
    std::size_t capacity() const { return slab_.capacity / sizeof(T); }
    /// True when this checkout reused a pooled slab last held under the same
    /// tag — its bytes are exactly what that tag's previous holder left.
    bool recycled_same_tag() const { return same_tag_; }

    T& operator[](std::size_t i) const {
      GALA_ASSERT(i < capacity());
      return data()[i];
    }

    /// Returns the slab to the pool now (idempotent).
    void release() { release_quiet(); }

   private:
    friend class Workspace;

    void check_epoch() const {
      GALA_CHECK(ws_ == nullptr || epoch_ == ws_->epoch(),
                 "workspace lease used after reset_level(): checked out in epoch "
                     << epoch_ << ", workspace is in epoch " << ws_->epoch());
    }

    void release_quiet() noexcept {
      if (ws_ != nullptr && slab_.data != nullptr) {
        // Credit memtrace before the slab goes back: the modeled charge is
        // the request's size class, matching the checkout-side on_alloc.
        memtrace::on_free(tag_, Workspace::class_bytes(count_ * sizeof(T)));
        ws_->give_back(std::move(slab_), count_ * sizeof(T), epoch_);
      }
      ws_ = nullptr;
      count_ = 0;
    }

    Workspace* ws_ = nullptr;
    Slab slab_;
    std::size_t count_ = 0;
    std::uint64_t epoch_ = 0;
    bool same_tag_ = false;
    std::string_view tag_;  ///< checkout tag; literals only, so the view is stable
  };

  /// Checks out `count` elements of T under `tag`. The slab's capacity is
  /// the smallest size class holding the request; span() exposes exactly
  /// `count` elements. Alignment is operator new's (16 B), which covers
  /// every pooled element type.
  template <typename T>
  Lease<T> take(std::size_t count, std::string_view tag, Fill fill = Fill::Dirty) {
    const std::size_t bytes = count * sizeof(T);
    // Modeled charge: the request's size class, never the (pool-state
    // dependent) capacity of the serving slab — that difference is slack,
    // tracked in the host section.
    const std::size_t modeled = class_bytes(bytes);
    // Budget admission runs before any slab moves: a governor refusal
    // (gala::ResourceExhausted) unwinds with the lease still empty, so the
    // destructor has nothing to credit back.
    RunScope& scope = RunScope::current();
    const std::uint64_t admitted = scope.admit(tag, modeled, /*may_throw=*/true);
    Lease<T> lease;
    lease.ws_ = this;
    lease.count_ = count;
    lease.tag_ = tag;
    lease.epoch_ = checkout(bytes, tag_hash(tag), lease.slab_, lease.same_tag_);
    memtrace::MemRegistry& memory = scope.memory();
    if (memory.armed()) {
      memory.on_alloc(tag, modeled, bytes, /*workspace=*/true, admitted);
      if (lease.slab_.capacity > modeled) memory.note_slack(lease.slab_.capacity - modeled);
    } else {
      memory.release(admitted);
    }
    if (fill == Fill::Zero && bytes > 0) std::memset(lease.slab_.data.get(), 0, bytes);
    return lease;
  }

  /// Current epoch; bumped by reset_level().
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Starts a new epoch: records the finished level's high-water mark and
  /// invalidates outstanding leases (their span() now throws).
  void reset_level();

  /// Frees every pooled slab; returns the bytes released to the heap. The
  /// scratch-retention regression test uses this to prove the pool — not a
  /// thread_local — owns all idle memory.
  std::size_t trim();

  /// Pooling toggle (determinism A/B: pooling off = plain heap allocation).
  void set_pooling(bool enabled);
  bool pooling() const;

  WorkspaceStats stats() const;

 private:
  static std::uint64_t tag_hash(std::string_view tag) {
    // FNV-1a; tags are compile-time literals, collisions are a non-issue.
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : tag) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ULL;
    }
    return h;
  }

  /// Rounds a byte request up to its size class (power of two, min 64).
  static std::size_t class_bytes(std::size_t bytes) {
    return std::bit_ceil(std::max<std::size_t>(bytes, kMinSlabBytes));
  }
  static std::size_t class_index(std::size_t capacity) {
    return static_cast<std::size_t>(std::countr_zero(capacity));
  }

  /// Serves one checkout; returns the epoch the lease belongs to.
  std::uint64_t checkout(std::size_t bytes, std::uint64_t tag, Slab& out, bool& same_tag);
  void give_back(Slab&& slab, std::size_t bytes, std::uint64_t lease_epoch) noexcept;

  static constexpr std::size_t kMinSlabBytes = 64;
  static constexpr std::size_t kNumClasses = 48;  // up to 2^47 B — beyond any host

  mutable std::mutex mutex_;
  std::vector<Slab> free_[kNumClasses];
  WorkspaceStats stats_;
  std::atomic<std::uint64_t> epoch_{0};
  bool pooling_ = true;
};

/// A growable array over workspace slabs — the pooled stand-in for the hot
/// loop's per-iteration std::vectors (frontier lists, sync send buffers).
/// clear() keeps capacity, so after the first iteration has sized it no
/// further checkout (let alone heap allocation) happens.
template <typename T>
class PooledVec {
  static_assert(std::is_trivially_copyable_v<T>, "PooledVec elements are memcpy-grown");

 public:
  PooledVec(Workspace& ws, std::string_view tag) : ws_(&ws), tag_(tag) {}

  void push_back(const T& value) {
    if (size_ == capacity()) grow(size_ + 1);
    lease_.data()[size_++] = value;
  }

  /// Sets the size, growing storage if needed. New elements are
  /// uninitialised (Fill::Dirty) — callers write before reading, exactly as
  /// the vectors this replaces were used.
  void resize(std::size_t n) {
    if (n > capacity()) grow(n);
    size_ = n;
  }

  void clear() { size_ = 0; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return lease_ ? lease_.capacity() : 0; }

  T* data() { return lease_.data(); }
  const T* data() const { return lease_.data(); }
  T& operator[](std::size_t i) { return lease_[i]; }
  const T& operator[](std::size_t i) const { return lease_[i]; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  std::span<T> span() { return {data(), size_}; }
  std::span<const T> span() const { return {data(), size_}; }
  operator std::span<const T>() const { return span(); }

  /// Releases the storage back to the pool.
  void reset() {
    lease_.release();
    size_ = 0;
  }

 private:
  void grow(std::size_t need) {
    const std::size_t want = std::max<std::size_t>({need, 2 * capacity(), 16});
    auto bigger = ws_->take<T>(want, tag_);
    if (size_ > 0) std::memcpy(bigger.data(), lease_.data(), size_ * sizeof(T));
    lease_ = std::move(bigger);
  }

  Workspace* ws_;
  std::string_view tag_;
  Workspace::Lease<T> lease_;
  std::size_t size_ = 0;
};

}  // namespace gala::exec
