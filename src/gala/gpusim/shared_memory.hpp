// Per-block shared-memory arena.
//
// Models the fixed shared-memory budget a CUDA block owns (48 KiB default,
// configurable up to the A100's 164 KiB). Kernels allocate typed arrays out
// of the arena; an allocation beyond capacity fails, which is exactly the
// condition that forces hashtable buckets into global memory (§4.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gala/common/error.hpp"
#include "gala/gpusim/memory.hpp"
#include "gala/gpusim/warp.hpp"
#include "gala/scope/run_scope.hpp"

namespace gala::gpusim {

/// Number of shared-memory banks (4 bytes wide each, as on every
/// sm_70+ part).
inline constexpr int kSharedBanks = 32;

/// Bank-conflict accumulator for sequentially-simulated block threads.
///
/// Kernels that stride a block's threads over data (the hash kernel's
/// per-neighbour upserts) execute lanes one after another in the simulator,
/// but on hardware each group of 32 consecutive strided elements is one
/// warp's simultaneous shared access. This accumulator regroups the
/// sequential accesses into those warps: observe one 4-byte word index per
/// simulated lane access and every 32 observations (or on flush) it replays
/// the group as one warp-wide request — same-word accesses broadcast,
/// distinct words in one bank serialise into extra waves.
class BankConflictModel {
 public:
  explicit BankConflictModel(MemoryStats& stats) : stats_(&stats) {}
  ~BankConflictModel() { flush(); }

  BankConflictModel(const BankConflictModel&) = delete;
  BankConflictModel& operator=(const BankConflictModel&) = delete;

  /// Records one lane's shared access of the 4-byte word at `word_index`
  /// (byte offset / 4).
  void observe_word(std::uint64_t word_index) {
    pending_[count_++] = word_index;
    if (count_ == kSharedBanks) flush();
  }

  /// Closes the currently-open partial warp (end of the strided loop).
  void flush() {
    if (count_ == 0) return;
    warp::charge_shared_request(pending_, count_, *stats_);
    count_ = 0;
  }

 private:
  MemoryStats* stats_;
  std::uint64_t pending_[kSharedBanks];
  int count_ = 0;
};

class SharedMemoryArena {
 public:
  explicit SharedMemoryArena(std::size_t capacity_bytes = 48 * 1024)
      : capacity_(capacity_bytes), owned_(capacity_bytes), mem_(owned_.data(), owned_.size()) {}

  /// Arena over caller-owned backing (workspace pages): the block's shared
  /// memory budget is exactly `backing.size()` bytes and nothing is
  /// allocated or freed by the arena itself.
  explicit SharedMemoryArena(std::span<std::byte> backing)
      : capacity_(backing.size()), mem_(backing) {}

  // Movable (vector moves keep the heap block, so mem_ stays valid); a copy
  // would alias the source's storage, so copying is disallowed.
  SharedMemoryArena(SharedMemoryArena&&) = default;
  SharedMemoryArena& operator=(SharedMemoryArena&&) = default;
  SharedMemoryArena(const SharedMemoryArena&) = delete;
  SharedMemoryArena& operator=(const SharedMemoryArena&) = delete;

  std::size_t capacity_bytes() const { return capacity_; }
  std::size_t used_bytes() const { return used_; }
  std::size_t free_bytes() const { return capacity_ - used_; }

  /// True if `count` elements of T fit in the remaining space.
  template <typename T>
  bool fits(std::size_t count) const {
    return aligned_used(alignof(T)) + count * sizeof(T) <= capacity_;
  }

  /// Allocates `count` default-initialised elements of T. Throws
  /// gala::ResourceExhausted when the block's shared-memory budget is
  /// exceeded — callers that can overflow must either check fits() first (as
  /// a CUDA kernel must at compile time / launch time) or catch the
  /// exhaustion and degrade (hashtables.cpp / the supervisor ladder).
  template <typename T>
  std::span<T> allocate(std::size_t count) {
    resilience::maybe_inject(resilience::FaultSite::SharedAlloc, "shared-arena");
    const std::size_t start = aligned_used(alignof(T));
    const std::size_t bytes = count * sizeof(T);
    if (start + bytes > capacity_) {
      GALA_THROW(ResourceExhausted, "shared memory overflow: need "
                                        << bytes << "B at offset " << start << ", capacity "
                                        << capacity_ << "B");
    }
    used_ = start + bytes;
    T* ptr = reinterpret_cast<T*>(mem_.data() + start);
    for (std::size_t i = 0; i < count; ++i) ptr[i] = T{};
    return {ptr, count};
  }

  /// Releases all allocations (start of a new block).
  void reset() { used_ = 0; }

  /// Largest count of T a fresh block could allocate.
  template <typename T>
  std::size_t max_elements() const {
    return capacity_ / sizeof(T);
  }

 private:
  std::size_t aligned_used(std::size_t alignment) const {
    return (used_ + alignment - 1) / alignment * alignment;
  }

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::vector<std::byte> owned_;  // empty when the backing is external
  std::span<std::byte> mem_;
};

}  // namespace gala::gpusim
