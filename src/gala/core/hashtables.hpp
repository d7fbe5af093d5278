// Neighbour-community hashtables for the hash-based kernel (paper §4.2).
//
// The hash kernel accumulates, for one vertex v, the map
//   H : community C -> (d_C(v), D_V(C))
// over v's neighbours. Three placement policies are compared in the paper:
//
//  - GlobalOnly   : every bucket in global memory (prior work [8,15,39]).
//  - Unified      : one hash function over s shared + g global buckets;
//                   an entry lands in shared memory only with probability
//                   s/(s+g) — shared and global are treated as equals.
//  - Hierarchical : GALA's design. h0 indexes the s shared buckets; only on
//                   a shared-bucket collision does the entry fall through to
//                   the global buckets via h1 with linear probing. Shared
//                   memory is always tried first on access, too.
//
// The table charges every probe/update to MemoryStats at the level of the
// bucket it touches and records where entries are *maintained* vs *accessed*
// (the Fig. 4 rates).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gala/common/error.hpp"
#include "gala/common/prng.hpp"
#include "gala/common/types.hpp"
#include "gala/exec/workspace.hpp"
#include "gala/gpusim/memory.hpp"
#include "gala/gpusim/shared_memory.hpp"

namespace gala::core {

enum class HashTablePolicy { GlobalOnly, Unified, Hierarchical };

std::string to_string(HashTablePolicy policy);

/// One bucket: community id, accumulated d_C(v), cached D_V(C).
struct HashBucket {
  cid_t key = kInvalidCid;
  wt_t weight = 0;
  wt_t community_total = 0;
};

/// The "global memory" bucket slab that absorbs entries missing the shared
/// part. Replaces the ad-hoc `std::vector<HashBucket>` scratch (and the
/// engine's thread_local copies, which retained peak-sized memory for the
/// life of the thread pool). Two modes:
///
///  - heap mode (default constructor): owns a private vector — a drop-in
///    for tests and benches that probe tables directly;
///  - workspace mode: slabs are checked out of an exec::Workspace under one
///    tag and returned on destruction, so memory is pool-recycled across
///    vertices, launches, and levels, and provably given back after a run.
///
/// Invariant: every bucket in [0, size()) is empty (key == kInvalidCid)
/// whenever no table is live on the scratch — NeighborCommunityTable::reset()
/// restores it on each table's retirement. That is what lets a workspace
/// checkout that recycles a same-tag slab skip re-initialisation, keeping
/// pooled runs bit-identical to fresh-allocation runs.
class HashScratch {
 public:
  HashScratch() = default;
  explicit HashScratch(exec::Workspace& ws) : ws_(&ws) {}

  /// Usable bucket count (>= every ensure() so far; never shrinks).
  std::size_t size() const { return cap_; }

  /// Grows to at least `n` empty buckets; existing buckets are preserved
  /// empty (growth only happens between tables, when all are empty).
  void ensure(std::size_t n);

  HashBucket& operator[](std::size_t i) { return data_[i]; }
  const HashBucket& operator[](std::size_t i) const { return data_[i]; }

  HashBucket* begin() { return data_; }
  HashBucket* end() { return data_ + cap_; }
  const HashBucket* begin() const { return data_; }
  const HashBucket* end() const { return data_ + cap_; }

 private:
  exec::Workspace* ws_ = nullptr;             // null = heap mode
  exec::Workspace::Lease<HashBucket> lease_;  // workspace mode storage
  std::vector<HashBucket> heap_;              // heap mode storage
  HashBucket* data_ = nullptr;
  std::size_t cap_ = 0;
};

/// A per-vertex neighbour-community table. The shared part lives in the
/// block's SharedMemoryArena; the global part in a caller-provided
/// HashScratch slab (reused across vertices, standing in for a
/// global-memory slab).
class NeighborCommunityTable {
 public:
  /// `capacity_hint` is an upper bound on distinct communities (the vertex
  /// degree). `shared_budget_buckets` limits how much of the arena the
  /// policy may claim (0 = as much as fits).
  NeighborCommunityTable(HashTablePolicy policy, gpusim::SharedMemoryArena& arena,
                         HashScratch& global_scratch, vid_t capacity_hint,
                         std::uint64_t salt, gpusim::MemoryStats& stats);

  /// Restores the scratch buffers so the next vertex starts from an empty
  /// table even if the caller forgets reset().
  ~NeighborCommunityTable() { reset(); }

  NeighborCommunityTable(const NeighborCommunityTable&) = delete;
  NeighborCommunityTable& operator=(const NeighborCommunityTable&) = delete;

  /// Adds `w` to community `c`'s entry, creating it if absent. On creation
  /// the caller-supplied loader provides D_V(c) (charged as one global read,
  /// as the kernel loads it from the community-total array).
  template <typename TotalLoader>
  void upsert(cid_t c, wt_t w, TotalLoader&& load_total) {
    const Slot slot = locate(c);
    HashBucket& b = bucket(slot);
    if (b.key == kInvalidCid) {
      b.key = c;
      b.weight = 0;
      stats_->global_reads += 1;  // load D_V(C[u]) into H (Alg. 3 line 9)
      b.community_total = load_total(c);
      charge_write(slot);
      charge_maintenance(slot);
      used_.push_back(slot);
    }
    // atomicAdd on the accumulated weight (Alg. 3 line 10).
    b.weight += w;
    charge_atomic(slot);
    charge_access(slot);
  }

  /// Iterates occupied buckets; f(key, weight, community_total).
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot slot : used_) {
      const HashBucket& b = const_bucket(slot);
      charge_read(slot);
      f(b.key, b.weight, b.community_total);
    }
  }

  std::size_t size() const { return used_.size(); }
  std::size_t shared_buckets() const { return shared_.size(); }
  std::size_t global_buckets() const { return global_count_; }

  /// Clears occupied buckets for reuse on the next vertex.
  void reset();

 private:
  struct Slot {
    bool in_shared;
    std::uint32_t index;
  };

  Slot locate(cid_t c);
  HashBucket& bucket(Slot s) { return s.in_shared ? shared_[s.index] : global_scratch_[s.index]; }
  const HashBucket& const_bucket(Slot s) const {
    return s.in_shared ? shared_[s.index] : global_scratch_[s.index];
  }

  std::uint32_t hash0(cid_t c) const;
  std::uint32_t hash1(cid_t c) const;

  void charge_probe(Slot s) const {
    s.in_shared ? ++stats_->shared_reads : ++stats_->global_reads;
  }
  void charge_read(Slot s) const { charge_probe(s); }
  void charge_write(Slot s) const {
    s.in_shared ? ++stats_->shared_writes : ++stats_->global_writes;
  }
  void charge_atomic(Slot s) const {
    s.in_shared ? ++stats_->shared_atomics : ++stats_->global_atomics;
  }
  void charge_maintenance(Slot s) const {
    s.in_shared ? ++stats_->ht_maintain_shared : ++stats_->ht_maintain_global;
  }
  void charge_access(Slot s) const {
    s.in_shared ? ++stats_->ht_access_shared : ++stats_->ht_access_global;
  }

  HashTablePolicy policy_;
  std::span<HashBucket> shared_;      // s buckets in the block arena
  HashScratch& global_scratch_;       // >= g buckets in "global memory"
  std::uint32_t global_count_ = 0;          // g
  std::uint64_t salt_;
  gpusim::MemoryStats* stats_;
  std::vector<Slot> used_;
  // Profiler diagnostics: shared-bucket probes regrouped into warp-wide
  // requests for bank-conflict accounting, and a once-per-table occupancy
  // sample recorded on the first reset().
  gpusim::BankConflictModel bank_model_;
  bool retired_ = false;
};

}  // namespace gala::core
