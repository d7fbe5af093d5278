#include "gala/core/hashtables.hpp"

#include <bit>

#include "gala/scope/run_scope.hpp"

namespace gala::core {

std::string to_string(HashTablePolicy policy) {
  switch (policy) {
    case HashTablePolicy::GlobalOnly:
      return "global-only";
    case HashTablePolicy::Unified:
      return "unified";
    case HashTablePolicy::Hierarchical:
      return "hierarchical";
  }
  return "?";
}

void HashScratch::ensure(std::size_t n) {
  if (cap_ >= n) return;
  if (ws_ == nullptr) {
    heap_.resize(n);  // value-initialised: empty buckets
    data_ = heap_.data();
    cap_ = heap_.size();
    memtrace::charge("core.hash_scratch", n * sizeof(HashBucket));
    return;
  }
  // The outgoing slab is fully empty (table invariant), so pool it before
  // taking the larger one — a same-tag successor can skip initialisation.
  lease_.release();
  lease_ = ws_->take<HashBucket>(n, "core.hash_scratch");
  data_ = lease_.data();
  cap_ = lease_.capacity();
  if (!lease_.recycled_same_tag()) {
    for (std::size_t i = 0; i < cap_; ++i) data_[i] = HashBucket{};
  }
}

NeighborCommunityTable::NeighborCommunityTable(HashTablePolicy policy,
                                               gpusim::SharedMemoryArena& arena,
                                               HashScratch& global_scratch,
                                               vid_t capacity_hint, std::uint64_t salt,
                                               gpusim::MemoryStats& stats)
    : policy_(policy), global_scratch_(global_scratch), salt_(salt), stats_(&stats),
      bank_model_(stats) {
  GALA_CHECK(capacity_hint > 0, "empty table");
  // Capacity sizing: ~2x distinct-key upper bound, power of two for cheap
  // modulo, as GPU hashtable implementations conventionally do.
  const std::uint32_t want = std::bit_ceil(static_cast<std::uint32_t>(capacity_hint) * 2);

  std::uint32_t s = 0;
  if (policy != HashTablePolicy::GlobalOnly) {
    const auto arena_max = static_cast<std::uint32_t>(arena.max_elements<HashBucket>());
    GALA_CHECK(arena_max > 0, "shared arena too small for any bucket");
    s = std::min(want, std::bit_floor(arena_max));
    shared_ = arena.allocate<HashBucket>(s);
  }
  // The global part must be able to absorb everything that misses shared.
  global_count_ = want;
  if (global_scratch_.size() < global_count_) {
    resilience::maybe_inject(resilience::FaultSite::ScratchGrow, to_string(policy));
    global_scratch_.ensure(global_count_);
  }
  GALA_ASSERT(global_scratch_.used().empty());
  global_scratch_.used().reserve(capacity_hint);
}

std::uint32_t NeighborCommunityTable::hash0(cid_t c) const {
  return static_cast<std::uint32_t>(splitmix64(static_cast<std::uint64_t>(c) ^ salt_) >> 32);
}

std::uint32_t NeighborCommunityTable::hash1(cid_t c) const {
  return static_cast<std::uint32_t>(
      splitmix64(static_cast<std::uint64_t>(c) * 0x9e3779b97f4a7c15ULL ^ ~salt_) >> 32);
}

NeighborCommunityTable::Slot NeighborCommunityTable::locate(cid_t c) {
  const std::uint32_t s = static_cast<std::uint32_t>(shared_.size());
  const std::uint32_t g = global_count_;
  constexpr std::uint64_t kBucketWords = sizeof(HashBucket) / 4;  // 4-byte bank words

  // One probe = one bucket touch; shared-bucket probes additionally feed the
  // warp-regrouped bank-conflict model (the probing lane's key-word access).
  std::uint64_t probes = 0;
  const auto probe = [&](Slot slot) {
    ++probes;
    charge_probe(slot);
    if (slot.in_shared) bank_model_.observe_word(slot.index * kBucketWords);
  };
  const auto found = [&](Slot slot) {
    stats_->record_probe_chain(probes);
    return slot;
  };

  switch (policy_) {
    case HashTablePolicy::GlobalOnly: {
      // Single hash over the global buckets, linear probing.
      std::uint32_t idx = hash1(c) & (g - 1);
      for (;;) {
        Slot slot{false, idx};
        probe(slot);  // atomicCAS probe on the key
        const HashBucket& b = const_bucket(slot);
        if (b.key == kInvalidCid || b.key == c) return found(slot);
        idx = (idx + 1) & (g - 1);
      }
    }
    case HashTablePolicy::Unified: {
      // One hash function over s + g buckets; [0, s) shared, [s, s+g) global.
      const std::uint32_t total = s + g;
      std::uint32_t idx = hash0(c) % total;
      for (;;) {
        Slot slot{idx < s, idx < s ? idx : idx - s};
        probe(slot);
        const HashBucket& b = const_bucket(slot);
        if (b.key == kInvalidCid || b.key == c) return found(slot);
        idx = (idx + 1) % total;
      }
    }
    case HashTablePolicy::Hierarchical: {
      // Shared first via h0 (one slot — a collision falls through to global
      // via h1 with linear probing; see Example 2 in the paper).
      if (s > 0) {
        Slot slot{true, hash0(c) & (s - 1)};
        probe(slot);
        const HashBucket& b = const_bucket(slot);
        if (b.key == kInvalidCid || b.key == c) return found(slot);
      }
      std::uint32_t idx = hash1(c) & (g - 1);
      for (;;) {
        Slot slot{false, idx};
        probe(slot);
        const HashBucket& b = const_bucket(slot);
        if (b.key == kInvalidCid || b.key == c) return found(slot);
        idx = (idx + 1) & (g - 1);
      }
    }
  }
  GALA_CHECK(false, "unreachable");
}

void NeighborCommunityTable::reset() {
  if (!retired_) {
    // First reset ends the table's lifetime for the profiler: close the
    // partially-filled warp of shared probes and sample the load factor.
    retired_ = true;
    bank_model_.flush();
    stats_->record_table_occupancy(size(),
                                   shared_.size() + static_cast<std::size_t>(global_count_));
  }
  std::vector<Slot>& used = global_scratch_.used();
  for (const Slot slot : used) bucket(slot) = HashBucket{};
  used.clear();
}

}  // namespace gala::core
