// Warp-synchronous collective primitives.
//
// GALA's shuffle-based kernel (paper Algorithm 2) is built on the CUDA
// sm_70+ warp collectives. The simulator executes warps in SoA form: a
// "warp" is an array of 32 per-lane values plus an active-lane mask, and
// each primitive computes the per-lane results with exactly the semantics
// the CUDA programming guide documents:
//
//   __match_any_sync(mask, v) : per-lane mask of lanes holding an equal v
//   __reduce_add_sync(mask, v): sum of v over the lanes named in mask
//                               (every lane in mask receives the sum)
//   __reduce_max_sync(mask, v): max of v over the lanes named in mask
//   __ballot_sync(mask, pred) : bitmask of lanes with pred != 0
//   __shfl_sync(mask, v, src) : value of lane `src`
//
// Each collective charges one shuffle_op (plus per-lane register traffic)
// to the MemoryStats of the calling kernel.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "gala/common/error.hpp"
#include "gala/gpusim/memory.hpp"

namespace gala::gpusim {

inline constexpr int kWarpSize = 32;
using LaneMask = std::uint32_t;
inline constexpr LaneMask kFullMask = 0xffffffffu;

template <typename T>
using WarpValues = std::array<T, kWarpSize>;

template <typename T>
using WarpMasks = std::array<LaneMask, kWarpSize>;

namespace warp {

/// Divergence accounting for one warp-wide issue: 32 lane slots are
/// occupied, popcount(active) of them do useful work. Every collective and
/// gather below charges this alongside its own traffic.
inline void charge_simt_issue(LaneMask active, MemoryStats& stats) {
  stats.simt_lane_slots += kWarpSize;
  stats.simt_active_lanes += static_cast<std::uint64_t>(std::popcount(active));
}

/// Find-or-insert table of at most kWarpSize distinct 64-bit keys, the one
/// small-set idiom behind every warp-wide grouping below. Open addressing
/// over 64 slots keeps the load factor at or below 1/2, and a 64-bit
/// occupancy word stands in for clearing the slots, so each lookup is O(1)
/// expected and a warp-wide pass costs O(active lanes) on the host.
class LaneKeyTable {
 public:
  static constexpr int kSlots = 2 * kWarpSize;

  /// Slot holding `key`, claimed with an empty lane mask on first sight.
  int slot(std::uint64_t key) {
    int s = static_cast<int>((key * 0x9e3779b97f4a7c15ull) >> 58);
    while ((used_ >> s) & 1u) {
      if (keys_[s] == key) return s;
      s = (s + 1) & (kSlots - 1);
    }
    used_ |= std::uint64_t{1} << s;
    keys_[s] = key;
    lanes_[s] = 0;
    return s;
  }

  /// Lanes recorded against a slot.
  LaneMask& lanes(int slot) { return lanes_[slot]; }

 private:
  std::uint64_t used_ = 0;
  std::uint64_t keys_[kSlots];
  LaneMask lanes_[kSlots];
};

/// __match_any_sync for every active lane at once. Inactive lanes receive 0.
template <typename T>
std::array<LaneMask, kWarpSize> match_any(LaneMask active, const WarpValues<T>& values,
                                          MemoryStats& stats) {
  static_assert(std::is_integral_v<T>, "match_any groups integral keys");
  LaneKeyTable table;
  std::array<int, kWarpSize> slot_of;
  for (LaneMask m = active; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    slot_of[i] = table.slot(static_cast<std::uint64_t>(values[i]));
    table.lanes(slot_of[i]) |= LaneMask{1} << i;
  }
  std::array<LaneMask, kWarpSize> result{};
  for (LaneMask m = active; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    result[i] = table.lanes(slot_of[i]);
  }
  stats.shuffle_ops += 1;
  stats.register_ops += static_cast<std::uint64_t>(std::popcount(active));
  charge_simt_issue(active, stats);
  return result;
}

/// __reduce_add_sync for every active lane: lane i receives the sum of
/// `values` over the lanes in masks[i]. In CUDA, lanes sharing a mask form
/// one hardware reduction; we charge one shuffle_op per *distinct* mask,
/// matching the hardware's group-wise execution. Each group is led by its
/// lowest pending lane and summed in ascending lane order.
template <typename T>
WarpValues<T> segmented_reduce_add(LaneMask active, const std::array<LaneMask, kWarpSize>& masks,
                                   const WarpValues<T>& values, MemoryStats& stats) {
  WarpValues<T> result{};
  int groups = 0;
  for (LaneMask pending = active; pending != 0;) {
    const int i = std::countr_zero(pending);
    const LaneMask group = masks[i];
    T sum{};
    for (LaneMask m = group; m != 0; m &= m - 1) sum += values[std::countr_zero(m)];
    for (LaneMask m = group; m != 0; m &= m - 1) result[std::countr_zero(m)] = sum;
    pending &= ~(group | (LaneMask{1} << i));  // the group's lanes are reduced
    ++groups;
  }
  stats.shuffle_ops += static_cast<std::uint64_t>(groups);
  stats.register_ops += static_cast<std::uint64_t>(std::popcount(active));
  charge_simt_issue(active, stats);
  return result;
}

/// __reduce_max_sync over the full active mask: every active lane receives
/// the maximum of `values` over active lanes.
template <typename T>
T reduce_max(LaneMask active, const WarpValues<T>& values, MemoryStats& stats) {
  GALA_ASSERT(active != 0);
  T best = values[std::countr_zero(active)];
  for (LaneMask m = active & (active - 1); m != 0; m &= m - 1) {
    const T& v = values[std::countr_zero(m)];
    if (v > best) best = v;
  }
  stats.shuffle_ops += 1;
  stats.register_ops += static_cast<std::uint64_t>(std::popcount(active));
  charge_simt_issue(active, stats);
  return best;
}

template <typename T>
T reduce_add(LaneMask active, const WarpValues<T>& values, MemoryStats& stats) {
  T sum{};
  for (LaneMask m = active; m != 0; m &= m - 1) sum += values[std::countr_zero(m)];
  stats.shuffle_ops += 1;
  stats.register_ops += static_cast<std::uint64_t>(std::popcount(active));
  charge_simt_issue(active, stats);
  return sum;
}

/// __ballot_sync.
inline LaneMask ballot(LaneMask active, const WarpValues<bool>& preds, MemoryStats& stats) {
  LaneMask m = 0;
  for (int i = 0; i < kWarpSize; ++i) {
    if (((active >> i) & 1u) && preds[i]) m |= (1u << i);
  }
  stats.shuffle_ops += 1;
  charge_simt_issue(active, stats);
  return m;
}

/// __shfl_sync: every active lane reads lane `src_lane`'s value.
template <typename T>
T shfl(LaneMask active, const WarpValues<T>& values, int src_lane, MemoryStats& stats) {
  GALA_ASSERT(src_lane >= 0 && src_lane < kWarpSize);
  GALA_ASSERT((active >> src_lane) & 1u);
  stats.shuffle_ops += 1;
  charge_simt_issue(active, stats);
  return values[src_lane];
}

/// Models the coalescing of a warp gather: per-lane addresses within the
/// same 32-element segment coalesce into one memory transaction (the
/// 128-byte-line rule for 4-byte elements). Returns the transaction count
/// and records it in the stats diagnostics. The per-access latency is
/// charged separately by the caller via global_reads.
template <typename Addr>
int gather_transactions(LaneMask active, const WarpValues<Addr>& addresses, MemoryStats& stats) {
  std::uint64_t segments_seen[kWarpSize];
  std::uint64_t max_segment = 0;
  int count = 0;
  for (LaneMask m = active; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    const std::uint64_t segment = static_cast<std::uint64_t>(addresses[i]) / kWarpSize;
    // CSR rows are ascending, so a lane usually opens a segment past every
    // one seen so far or repeats the largest; only the rest need the scan.
    if (count == 0 || segment > max_segment) {
      max_segment = segment;
    } else if (segment == max_segment ||
               std::find(segments_seen, segments_seen + count, segment) != segments_seen + count) {
      continue;
    }
    segments_seen[count++] = segment;
  }
  stats.gather_requests += 1;
  stats.gather_transactions += static_cast<std::uint64_t>(count);
  charge_simt_issue(active, stats);
  return count;
}

/// Charges one warp-wide shared-memory request over the `n` 4-byte word
/// indices it accessed and returns its conflict-free wave count over the 32
/// banks: same-word accesses broadcast, distinct words in one bank
/// serialise. `n` is at most kWarpSize.
inline int charge_shared_request(const std::uint64_t* words, int n, MemoryStats& stats) {
  LaneKeyTable seen;
  int per_bank[kWarpSize] = {};
  int waves = 0;
  for (int k = 0; k < n; ++k) {
    LaneMask& first = seen.lanes(seen.slot(words[k]));
    if (first != 0) continue;  // same-word access broadcasts
    first = 1;
    waves = std::max(waves, ++per_bank[words[k] % kWarpSize]);
  }
  stats.shared_requests += 1;
  stats.shared_waves += static_cast<std::uint64_t>(waves);
  return waves;
}

/// Models the bank conflicts of one warp-wide shared-memory access. Shared
/// memory has 32 banks, 4 bytes wide; `word_addrs` are per-lane 4-byte word
/// indices (byte offset / 4). Lanes reading the *same* word broadcast in one
/// wave; distinct words mapping to the same bank serialise. Returns the wave
/// count (1 = conflict-free, 32 = full 32-way conflict) and records it in the
/// stats diagnostics. The per-access latency is charged separately by the
/// caller via shared_reads/shared_writes.
template <typename Addr>
int shared_transactions(LaneMask active, const WarpValues<Addr>& word_addrs, MemoryStats& stats) {
  if (active == 0) return 0;
  std::uint64_t words[kWarpSize];
  int n = 0;
  for (LaneMask m = active; m != 0; m &= m - 1) {
    words[n++] = static_cast<std::uint64_t>(word_addrs[std::countr_zero(m)]);
  }
  const int waves = charge_shared_request(words, n, stats);
  charge_simt_issue(active, stats);
  return waves;
}

/// Lowest set lane of a mask (leader election), -1 for empty.
inline int leader_lane(LaneMask mask) {
  return mask == 0 ? -1 : std::countr_zero(mask);
}

/// Mask with the low `n` lanes active.
inline LaneMask first_lanes(int n) {
  GALA_ASSERT(n >= 0 && n <= kWarpSize);
  return n == kWarpSize ? kFullMask : ((LaneMask{1} << n) - 1);
}

}  // namespace warp
}  // namespace gala::gpusim
