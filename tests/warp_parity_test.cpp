// The warp collectives, traffic diagnostics and shuffle kernel cost
// O(active lanes) on the host. Each must return exactly what its retired
// O(32^2) form returned and charge exactly the same MemoryStats. The
// retired forms are kept below verbatim (renamed reference_*) and swept
// against the live ones:
//  - primitives over empty, full, single-lane, sparse and dense masks; key
//    sets of 1, 2, 6 and 32 distinct values and negative keys; sorted,
//    unsorted and repeated addresses; broadcasting and conflicting words;
//  - shuffle_decide over random graphs with self-loops, degrees 1-96 (the
//    multi-chunk spill path of shuffle-only mode included) and few or many
//    communities;
//  - hash_decide under every placement policy, against counters recorded
//    with the retired BankConflictModel.
//
// The sweep seed rotates in CI (GALA_DIFF_SEED, derived from the commit
// SHA); every assertion names its trial. Re-run locally with
//   GALA_DIFF_SEED=<seed> ./warp_parity_test
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gala/common/prng.hpp"
#include "gala/core/kernels.hpp"
#include "gala/gpusim/shared_memory.hpp"
#include "gala/gpusim/warp.hpp"
#include "test_util.hpp"

namespace gala {
namespace {

using gpusim::kFullMask;
using gpusim::kWarpSize;
using gpusim::LaneMask;
using gpusim::MemoryStats;
using gpusim::WarpValues;
using testing::expect_same_stats;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("GALA_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20261017ULL;  // fixed default: local runs are reproducible as-is
}

// ---------------------------------------------------------------------------
// The retired primitives, verbatim.

template <typename T>
std::array<LaneMask, kWarpSize> reference_match_any(LaneMask active, const WarpValues<T>& values,
                                                    MemoryStats& stats) {
  std::array<LaneMask, kWarpSize> result{};
  for (int i = 0; i < kWarpSize; ++i) {
    if (!((active >> i) & 1u)) continue;
    LaneMask m = 0;
    for (int j = 0; j < kWarpSize; ++j) {
      if (((active >> j) & 1u) && values[j] == values[i]) m |= (1u << j);
    }
    result[i] = m;
  }
  stats.shuffle_ops += 1;
  stats.register_ops += static_cast<std::uint64_t>(std::popcount(active));
  gpusim::warp::charge_simt_issue(active, stats);
  return result;
}

template <typename T>
WarpValues<T> reference_segmented_reduce_add(LaneMask active,
                                             const std::array<LaneMask, kWarpSize>& masks,
                                             const WarpValues<T>& values, MemoryStats& stats) {
  WarpValues<T> result{};
  LaneMask seen = 0;
  int groups = 0;
  for (int i = 0; i < kWarpSize; ++i) {
    if (!((active >> i) & 1u)) continue;
    if ((seen >> i) & 1u) continue;  // group already reduced via its leader
    T sum{};
    for (int j = 0; j < kWarpSize; ++j) {
      if ((masks[i] >> j) & 1u) sum += values[j];
    }
    for (int j = 0; j < kWarpSize; ++j) {
      if ((masks[i] >> j) & 1u) result[j] = sum;
    }
    seen |= masks[i];
    ++groups;
  }
  stats.shuffle_ops += static_cast<std::uint64_t>(groups);
  stats.register_ops += static_cast<std::uint64_t>(std::popcount(active));
  gpusim::warp::charge_simt_issue(active, stats);
  return result;
}

template <typename T>
T reference_reduce_max(LaneMask active, const WarpValues<T>& values, MemoryStats& stats) {
  GALA_ASSERT(active != 0);
  bool first = true;
  T best{};
  for (int i = 0; i < kWarpSize; ++i) {
    if (!((active >> i) & 1u)) continue;
    if (first || values[i] > best) {
      best = values[i];
      first = false;
    }
  }
  stats.shuffle_ops += 1;
  stats.register_ops += static_cast<std::uint64_t>(std::popcount(active));
  gpusim::warp::charge_simt_issue(active, stats);
  return best;
}

template <typename T>
T reference_reduce_add(LaneMask active, const WarpValues<T>& values, MemoryStats& stats) {
  T sum{};
  for (int i = 0; i < kWarpSize; ++i) {
    if ((active >> i) & 1u) sum += values[i];
  }
  stats.shuffle_ops += 1;
  stats.register_ops += static_cast<std::uint64_t>(std::popcount(active));
  gpusim::warp::charge_simt_issue(active, stats);
  return sum;
}

template <typename Addr>
int reference_gather_transactions(LaneMask active, const WarpValues<Addr>& addresses,
                                  MemoryStats& stats) {
  std::uint64_t segments_seen[kWarpSize];
  int count = 0;
  for (int i = 0; i < kWarpSize; ++i) {
    if (!((active >> i) & 1u)) continue;
    const std::uint64_t segment = static_cast<std::uint64_t>(addresses[i]) / kWarpSize;
    bool seen = false;
    for (int j = 0; j < count; ++j) {
      if (segments_seen[j] == segment) {
        seen = true;
        break;
      }
    }
    if (!seen) segments_seen[count++] = segment;
  }
  stats.gather_requests += 1;
  stats.gather_transactions += static_cast<std::uint64_t>(count);
  gpusim::warp::charge_simt_issue(active, stats);
  return count;
}

template <typename Addr>
int reference_shared_transactions(LaneMask active, const WarpValues<Addr>& word_addrs,
                                  MemoryStats& stats) {
  std::uint64_t words_seen[kWarpSize];
  int distinct = 0;
  int per_bank[kWarpSize] = {};
  int waves = 0;
  for (int i = 0; i < kWarpSize; ++i) {
    if (!((active >> i) & 1u)) continue;
    const std::uint64_t word = static_cast<std::uint64_t>(word_addrs[i]);
    bool seen = false;
    for (int j = 0; j < distinct; ++j) {
      if (words_seen[j] == word) {
        seen = true;
        break;
      }
    }
    if (seen) continue;  // same-word access broadcasts
    words_seen[distinct++] = word;
    const int bank = static_cast<int>(word % kWarpSize);
    waves = std::max(waves, ++per_bank[bank]);
  }
  if (active == 0) return 0;
  stats.shared_requests += 1;
  stats.shared_waves += static_cast<std::uint64_t>(waves);
  gpusim::warp::charge_simt_issue(active, stats);
  return waves;
}

class ReferenceBankConflictModel {
 public:
  explicit ReferenceBankConflictModel(MemoryStats& stats) : stats_(&stats) {}
  ~ReferenceBankConflictModel() { flush(); }

  ReferenceBankConflictModel(const ReferenceBankConflictModel&) = delete;
  ReferenceBankConflictModel& operator=(const ReferenceBankConflictModel&) = delete;

  void observe_word(std::uint64_t word_index) {
    pending_[count_++] = word_index;
    if (count_ == gpusim::kSharedBanks) flush();
  }

  void flush() {
    if (count_ == 0) return;
    int per_bank[gpusim::kSharedBanks] = {};
    int waves = 0;
    int distinct = 0;
    for (int i = 0; i < count_; ++i) {
      bool seen = false;
      for (int j = 0; j < distinct; ++j) {
        if (pending_[j] == pending_[i]) {
          seen = true;
          break;
        }
      }
      if (seen) continue;  // broadcast
      std::swap(pending_[distinct], pending_[i]);
      const int bank = static_cast<int>(pending_[distinct] % gpusim::kSharedBanks);
      ++distinct;
      waves = std::max(waves, ++per_bank[bank]);
    }
    stats_->shared_requests += 1;
    stats_->shared_waves += static_cast<std::uint64_t>(std::max(waves, 1));
    count_ = 0;
  }

 private:
  MemoryStats* stats_;
  std::uint64_t pending_[gpusim::kSharedBanks];
  int count_ = 0;
};

// ---------------------------------------------------------------------------
// The retired shuffle_decide, verbatim over the retired primitives.

struct SpillEntry {
  cid_t community;
  wt_t weight;
};

core::Decision reference_shuffle_decide(const core::DecideInput& in, vid_t v,
                                        gpusim::SharedMemoryArena& spill_arena,
                                        MemoryStats& stats) {
  using core::BestTracker;
  using core::Decision;
  using core::move_score;
  const graph::Graph& g = *in.g;
  const cid_t curr = in.comm[v];
  const wt_t dv = g.degree(v);
  const auto nbrs = g.neighbors(v);
  const auto ws = g.weights(v);
  const std::size_t deg = nbrs.size();

  Decision result;
  wt_t e_curr = 0;
  BestTracker tracker;

  const bool multi_chunk = deg > static_cast<std::size_t>(kWarpSize);
  std::span<SpillEntry> spill;
  std::size_t spill_count = 0;
  if (multi_chunk) spill = spill_arena.allocate<SpillEntry>(deg);

  for (std::size_t base = 0; base < deg; base += kWarpSize) {
    const int lanes = static_cast<int>(std::min<std::size_t>(kWarpSize, deg - base));
    LaneMask active = gpusim::warp::first_lanes(lanes);
    WarpValues<cid_t> my_c{};
    WarpValues<wt_t> my_w{};
    for (int i = 0; i < lanes; ++i) {
      const vid_t u = nbrs[base + i];
      // Loads: neighbour id, edge weight, C[u] (Alg. 2 lines 2-4).
      stats.global_reads += 3;
      if (u == v) {
        active &= ~(LaneMask{1} << i);  // self-loops cancel out of every comparison
        continue;
      }
      my_c[i] = in.comm[u];
      my_w[i] = ws[base + i];
    }
    if (active == 0) continue;

    // Coalescing diagnostic: the C[u] lookups gather by neighbour id.
    {
      WarpValues<vid_t> addrs{};
      for (int i = 0; i < lanes; ++i) addrs[i] = nbrs[base + i];
      reference_gather_transactions(active, addrs, stats);
    }

    const auto masks = reference_match_any(active, my_c, stats);  // Alg. 2 line 5
    const auto sums = reference_segmented_reduce_add(active, masks, my_w, stats);  // line 6

    if (!multi_chunk) {
      // Score per group leader; __reduce_max_sync picks the winner (lines 7-9).
      WarpValues<wt_t> my_dq{};
      for (int i = 0; i < kWarpSize; ++i) my_dq[i] = std::numeric_limits<wt_t>::lowest();
      for (int i = 0; i < kWarpSize; ++i) {
        if (!((active >> i) & 1u)) continue;
        if (gpusim::warp::leader_lane(masks[i]) != i) continue;  // one lane per community
        const cid_t c = my_c[i];
        stats.global_reads += 1;  // D_V(C) load
        my_dq[i] = move_score(sums[i], in.comm_total[c], dv, in.two_m, c == curr, in.resolution);
        if (c == curr) e_curr = sums[i];
      }
      const wt_t max_dq = reference_reduce_max(active, my_dq, stats);
      // Winner election: among lanes achieving the max, the smallest
      // community id wins (a ballot + min-reduce on hardware).
      stats.shuffle_ops += 1;
      for (int i = 0; i < kWarpSize; ++i) {
        if (((active >> i) & 1u) && my_dq[i] == max_dq) tracker.offer(my_c[i], my_dq[i]);
      }
    } else {
      // Chunk leaders spill their (community, partial sum) pair to shared
      // memory for the cross-chunk merge. The leaders' stores form one
      // warp-wide shared request; consecutive spill slots keep it (mostly)
      // conflict-free, which the bank model verifies.
      constexpr std::uint64_t kSpillWords = sizeof(SpillEntry) / 4;
      LaneMask leaders = 0;
      WarpValues<std::uint64_t> spill_words{};
      for (int i = 0; i < kWarpSize; ++i) {
        if (!((active >> i) & 1u)) continue;
        if (gpusim::warp::leader_lane(masks[i]) != i) continue;
        GALA_ASSERT(spill_count < spill.size());
        leaders |= (LaneMask{1} << i);
        spill_words[i] = static_cast<std::uint64_t>(spill_count) * kSpillWords;
        spill[spill_count++] = {my_c[i], sums[i]};
        stats.shared_writes += 1;
      }
      if (leaders != 0) reference_shared_transactions(leaders, spill_words, stats);
    }
  }

  if (multi_chunk) {
    // Consolidate partial sums that belong to the same community across
    // chunks (in-place linear merge over the shared-memory spill list).
    std::size_t unique = 0;
    for (std::size_t j = 0; j < spill_count; ++j) {
      stats.shared_reads += 1;
      bool merged = false;
      for (std::size_t k = 0; k < unique; ++k) {
        stats.shared_reads += 1;
        if (spill[k].community == spill[j].community) {
          spill[k].weight += spill[j].weight;
          stats.shared_writes += 1;
          merged = true;
          break;
        }
      }
      if (!merged) {
        spill[unique] = spill[j];
        stats.shared_writes += 1;
        ++unique;
      }
    }
    for (std::size_t k = 0; k < unique; ++k) {
      stats.shared_reads += 1;
      stats.global_reads += 1;  // D_V(C) load
      const cid_t c = spill[k].community;
      const wt_t score = move_score(spill[k].weight, in.comm_total[c], dv, in.two_m, c == curr, in.resolution);
      stats.register_ops += 1;
      if (c == curr) e_curr = spill[k].weight;
      tracker.offer(c, score);
    }
  }

  result.weight_to_curr = e_curr;
  stats.global_reads += 1;  // D_V(C[v])
  result.curr_score = move_score(e_curr, in.comm_total[curr], dv, in.two_m, /*in_community=*/true, in.resolution);
  if (tracker.best == kInvalidCid) {
    result.best = curr;
    result.best_score = result.curr_score;
  } else {
    result.best = tracker.best;
    result.best_score = tracker.score;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Inputs.

/// Lane-mask shapes: empty, full, one lane, and sparse and dense random.
std::vector<LaneMask> sweep_masks(Xoshiro256& rng) {
  std::vector<LaneMask> masks = {0, kFullMask, 1u, 1u << 31};
  masks.push_back(LaneMask{1} << rng.next_below(kWarpSize));
  for (int i = 0; i < 4; ++i) {
    masks.push_back(static_cast<LaneMask>(rng() & rng() & rng()));  // sparse
    masks.push_back(static_cast<LaneMask>(rng() | rng() | rng()));  // dense
    masks.push_back(static_cast<LaneMask>(rng()));
  }
  return masks;
}

/// Keys taking exactly `distinct` values, each on at least one lane, in
/// random lane order; negative ones when `negative`.
template <typename T>
WarpValues<T> sweep_keys(Xoshiro256& rng, int distinct, bool negative) {
  std::vector<T> pool;
  for (int i = 0; i < distinct; ++i) {
    const auto base = static_cast<std::int64_t>(i * 40503 + rng.next_below(40503));
    pool.push_back(static_cast<T>(negative ? -1 - base : base));
  }
  WarpValues<T> keys{};
  for (int i = 0; i < kWarpSize; ++i) keys[i] = pool[i % distinct];
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

/// Doubles over ~60 binary orders of magnitude and both signs, so that a
/// sum taken in another order rounds differently.
WarpValues<double> sweep_values(Xoshiro256& rng) {
  WarpValues<double> v{};
  for (auto& x : v) {
    const int exp = static_cast<int>(rng.next_below(60)) - 30;
    x = std::ldexp(rng.next_double() + 0.5, exp) * (rng() & 1 ? -1.0 : 1.0);
  }
  return v;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Per-lane addresses: ascending (CSR rows), scattered, repeated segments.
template <typename Addr>
std::vector<WarpValues<Addr>> sweep_addresses(Xoshiro256& rng) {
  std::vector<WarpValues<Addr>> out;
  WarpValues<Addr> a{};
  // Ascending with gaps, the shape of a CSR row.
  Addr next = static_cast<Addr>(rng.next_below(4096));
  for (auto& x : a) {
    x = next;
    next = static_cast<Addr>(next + static_cast<Addr>(rng.next_below(48)));
  }
  out.push_back(a);
  // Scattered.
  for (auto& x : a) x = static_cast<Addr>(rng.next_below(1u << 24));
  out.push_back(a);
  // Few segments, repeated out of order.
  for (auto& x : a) x = static_cast<Addr>(rng.next_below(4) * 32 * 1000 + rng.next_below(32));
  out.push_back(a);
  // Descending.
  std::sort(out.front().begin(), out.front().end(), std::greater<>());
  out.push_back(out.front());
  // One address everywhere.
  a.fill(static_cast<Addr>(rng.next_below(1u << 16)));
  out.push_back(a);
  return out;
}

/// Shared-memory word patterns: broadcast, conflicting strides, random.
std::vector<WarpValues<std::uint64_t>> sweep_words(Xoshiro256& rng) {
  std::vector<WarpValues<std::uint64_t>> out;
  WarpValues<std::uint64_t> w{};
  w.fill(rng.next_below(1024));  // every lane the same word: one wave
  out.push_back(w);
  for (int i = 0; i < kWarpSize; ++i) w[i] = static_cast<std::uint64_t>(i);  // conflict-free
  out.push_back(w);
  for (const std::uint64_t stride : {2u, 4u, 32u, 33u}) {
    for (int i = 0; i < kWarpSize; ++i) w[i] = static_cast<std::uint64_t>(i) * stride;
    out.push_back(w);
  }
  for (auto& x : w) x = rng.next_below(96);  // broadcasts and conflicts mixed
  out.push_back(w);
  for (auto& x : w) x = rng();
  out.push_back(w);
  return out;
}

std::string trial(std::uint64_t seed, int round, LaneMask mask) {
  return "seed " + std::to_string(seed) + " round " + std::to_string(round) + " mask " +
         std::to_string(mask);
}

constexpr int kRounds = 64;

// ---------------------------------------------------------------------------
// Primitive parity.

template <typename T>
void check_match_and_reduce(LaneMask mask, const WarpValues<T>& keys,
                            const WarpValues<double>& vals, const std::string& where) {
  MemoryStats got, want;
  const auto masks = gpusim::warp::match_any(mask, keys, got);
  const auto ref_masks = reference_match_any(mask, keys, want);
  for (int i = 0; i < kWarpSize; ++i) {
    EXPECT_EQ(masks[i], ref_masks[i]) << "lane " << i << " " << where;
  }
  const auto sums = gpusim::warp::segmented_reduce_add(mask, masks, vals, got);
  const auto ref_sums = reference_segmented_reduce_add(mask, ref_masks, vals, want);
  for (int i = 0; i < kWarpSize; ++i) {
    EXPECT_TRUE(same_bits(sums[i], ref_sums[i]))
        << "lane " << i << " " << sums[i] << " vs " << ref_sums[i] << " " << where;
  }
  expect_same_stats(got, want, where);
}

TEST(WarpPrimitiveParity, MatchAnyAndSegmentedReduce) {
  const std::uint64_t seed = base_seed();
  Xoshiro256 rng(seed);
  for (int round = 0; round < kRounds; ++round) {
    for (const LaneMask mask : sweep_masks(rng)) {
      const std::string where = trial(seed, round, mask);
      const WarpValues<double> vals = sweep_values(rng);
      for (const int distinct : {1, 2, 6, 32}) {
        check_match_and_reduce(mask, sweep_keys<cid_t>(rng, distinct, false), vals,
                               where + " cid_t keys " + std::to_string(distinct));
        check_match_and_reduce(mask, sweep_keys<int>(rng, distinct, true), vals,
                               where + " negative keys " + std::to_string(distinct));
      }
      // Masks that do not partition the warp: every lane names a random set.
      std::array<LaneMask, kWarpSize> ragged{};
      for (auto& m : ragged) m = static_cast<LaneMask>(rng() & rng());
      MemoryStats got, want;
      const auto sums = gpusim::warp::segmented_reduce_add(mask, ragged, vals, got);
      const auto ref_sums = reference_segmented_reduce_add(mask, ragged, vals, want);
      for (int i = 0; i < kWarpSize; ++i) {
        EXPECT_TRUE(same_bits(sums[i], ref_sums[i])) << "ragged lane " << i << " " << where;
      }
      expect_same_stats(got, want, where + " ragged");
    }
  }
}

TEST(WarpPrimitiveParity, ReduceMaxAndAdd) {
  const std::uint64_t seed = base_seed() ^ 0x5eed;
  Xoshiro256 rng(seed);
  for (int round = 0; round < kRounds; ++round) {
    for (const LaneMask mask : sweep_masks(rng)) {
      const std::string where = trial(seed, round, mask);
      WarpValues<double> vals = sweep_values(rng);
      // Ties, signed zeros and a NaN decide which lane's bits win.
      vals[rng.next_below(kWarpSize)] = vals[rng.next_below(kWarpSize)];
      vals[rng.next_below(kWarpSize)] = 0.0;
      vals[rng.next_below(kWarpSize)] = -0.0;
      if (round % 3 == 0) {
        vals[rng.next_below(kWarpSize)] = std::numeric_limits<double>::quiet_NaN();
      }

      MemoryStats got, want;
      if (mask != 0) {
        EXPECT_TRUE(same_bits(gpusim::warp::reduce_max(mask, vals, got),
                              reference_reduce_max(mask, vals, want)))
            << where;
        const WarpValues<int> ints = sweep_keys<int>(rng, 6, round % 2 == 0);
        EXPECT_EQ(gpusim::warp::reduce_max(mask, ints, got), reference_reduce_max(mask, ints, want))
            << where;
      }
      EXPECT_TRUE(same_bits(gpusim::warp::reduce_add(mask, vals, got),
                            reference_reduce_add(mask, vals, want)))
          << where;
      expect_same_stats(got, want, where);
    }
  }
}

template <typename Addr>
void check_gathers(Xoshiro256& rng, std::uint64_t seed, int round, const char* type) {
  for (const LaneMask mask : sweep_masks(rng)) {
    for (const auto& addrs : sweep_addresses<Addr>(rng)) {
      const std::string where = trial(seed, round, mask) + " " + type;
      MemoryStats got, want;
      EXPECT_EQ(gpusim::warp::gather_transactions(mask, addrs, got),
                reference_gather_transactions(mask, addrs, want))
          << where;
      expect_same_stats(got, want, where);
    }
  }
}

TEST(WarpPrimitiveParity, GatherTransactions) {
  const std::uint64_t seed = base_seed() ^ 0x9a7e;
  Xoshiro256 rng(seed);
  for (int round = 0; round < kRounds; ++round) {
    check_gathers<vid_t>(rng, seed, round, "vid_t");
    check_gathers<std::uint64_t>(rng, seed, round, "u64");
    check_gathers<int>(rng, seed, round, "int");
  }
}

TEST(WarpPrimitiveParity, SharedTransactions) {
  const std::uint64_t seed = base_seed() ^ 0xba4c;
  Xoshiro256 rng(seed);
  for (int round = 0; round < kRounds; ++round) {
    for (const LaneMask mask : sweep_masks(rng)) {
      for (const auto& words : sweep_words(rng)) {
        const std::string where = trial(seed, round, mask);
        MemoryStats got, want;
        EXPECT_EQ(gpusim::warp::shared_transactions(mask, words, got),
                  reference_shared_transactions(mask, words, want))
            << where;
        expect_same_stats(got, want, where);
      }
    }
  }
}

TEST(WarpPrimitiveParity, BankConflictModelFlush) {
  const std::uint64_t seed = base_seed() ^ 0xf1a5;
  Xoshiro256 rng(seed);
  for (int round = 0; round < kRounds * 8; ++round) {
    // Strided upsert streams of any length, so partial warps are flushed.
    const std::size_t accesses = rng.next_below(100);
    const std::uint64_t range = 1 + rng.next_below(round % 2 == 0 ? 48 : 1u << 20);
    const std::uint64_t stride = 1 + rng.next_below(40);
    std::vector<std::uint64_t> words(accesses);
    for (std::size_t i = 0; i < accesses; ++i) {
      words[i] = round % 4 == 1 ? i * stride : rng.next_below(range);
    }
    MemoryStats got, want;
    {
      gpusim::BankConflictModel model(got);
      ReferenceBankConflictModel reference(want);
      for (std::size_t i = 0; i < accesses; ++i) {
        model.observe_word(words[i]);
        reference.observe_word(words[i]);
        if (i % 37 == 36) {  // an explicit mid-stream flush
          model.flush();
          reference.flush();
        }
      }
    }
    expect_same_stats(got, want,
                      "seed " + std::to_string(seed) + " round " + std::to_string(round));
  }
}

// ---------------------------------------------------------------------------
// Kernel parity.

/// A random graph whose vertices have 1-96 neighbour entries (paired
/// degree stubs; merged duplicates and an odd last stub may take a few
/// away), some with a self-loop, with fractional weights.
graph::Graph sweep_graph(Xoshiro256& rng, vid_t n) {
  std::vector<vid_t> stubs;
  for (vid_t v = 0; v < n; ++v) stubs.insert(stubs.end(), 1 + rng.next_below(96), v);
  std::shuffle(stubs.begin(), stubs.end(), rng);
  graph::GraphBuilder b(n);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    b.add_edge(stubs[i], stubs[i + 1], 0.25 + rng.next_double() * 3.0);
  }
  for (vid_t v = 0; v < n; ++v) {
    if (rng.next_below(5) == 0) b.add_edge(v, v, 0.5 + rng.next_double());
  }
  return b.build();
}

struct Assignment {
  std::vector<cid_t> comm;
  std::vector<wt_t> comm_total;
};

Assignment sweep_assignment(Xoshiro256& rng, const graph::Graph& g, cid_t distinct) {
  Assignment a;
  const vid_t n = g.num_vertices();
  a.comm.resize(n);
  // Ids spread over [0, n) so that many-community runs hash widely.
  std::vector<cid_t> ids(distinct);
  for (auto& id : ids) id = static_cast<cid_t>(rng.next_below(n));
  for (vid_t v = 0; v < n; ++v) a.comm[v] = ids[rng.next_below(distinct)];
  a.comm_total.assign(n, 0);
  for (vid_t v = 0; v < n; ++v) a.comm_total[a.comm[v]] += g.degree(v);
  return a;
}

void expect_same_decision(const core::Decision& got, const core::Decision& want,
                          const std::string& where) {
  EXPECT_EQ(got.best, want.best) << where;
  EXPECT_TRUE(same_bits(got.best_score, want.best_score)) << where;
  EXPECT_TRUE(same_bits(got.curr_score, want.curr_score)) << where;
  EXPECT_TRUE(same_bits(got.weight_to_curr, want.weight_to_curr)) << where;
}

TEST(WarpKernelParity, ShuffleDecideMatchesRetiredKernel) {
  const std::uint64_t seed = base_seed() ^ 0xdec1de;
  Xoshiro256 rng(seed);
  for (int round = 0; round < 12; ++round) {
    const graph::Graph g = sweep_graph(rng, 400);
    for (const cid_t distinct : {cid_t{3}, cid_t{12}, cid_t{400}}) {
      const Assignment a = sweep_assignment(rng, g, distinct);
      const core::DecideInput input{&g, a.comm, a.comm_total, g.two_m()};
      gpusim::SharedMemoryArena arena(48 * 1024), ref_arena(48 * 1024);
      // Shuffle-only mode: every vertex, multi-chunk rows included.
      MemoryStats total, ref_total;
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        const std::string where = "seed " + std::to_string(seed) + " round " +
                                  std::to_string(round) + " communities " +
                                  std::to_string(distinct) + " vertex " + std::to_string(v) +
                                  " degree " + std::to_string(g.out_degree(v));
        MemoryStats got, want;
        arena.reset();
        ref_arena.reset();
        expect_same_decision(core::shuffle_decide(input, v, arena, got),
                             reference_shuffle_decide(input, v, ref_arena, want), where);
        expect_same_stats(got, want, where);
        total += got;
        ref_total += want;
      }
      expect_same_stats(total, ref_total, "totals");
    }
  }
}

/// hash_decide under each placement policy over a fixed sweep, against the
/// counters the retired BankConflictModel (and everything else unchanged)
/// charged for it: the bank model is only reachable through the hash table.
TEST(WarpKernelParity, HashDecideStatsMatchRetiredBankModel) {
  Xoshiro256 rng(20261017ULL);  // fixed: the counters below were recorded from it
  const graph::Graph g = sweep_graph(rng, 160);
  const Assignment a = sweep_assignment(rng, g, 12);
  const core::DecideInput input{&g, a.comm, a.comm_total, g.two_m()};
  const std::pair<core::HashTablePolicy, MemoryStats> recorded[] = {
      {core::HashTablePolicy::GlobalOnly,
       MemoryStats{.global_reads = 26890, .global_writes = 1507, .global_atomics = 5850,
                   .shared_reads = 4756, .shared_writes = 1627, .register_ops = 1507,
                   .ht_maintain_global = 1507, .ht_access_global = 5850, .simt_lane_slots = 60640,
                   .simt_active_lanes = 6383, .shared_requests = 1895, .shared_waves = 1895,
                   .ht_lookups = 5850, .ht_probes = 6004, .ht_tables = 160,
                   .ht_probe_hist = {0, 5745, 56, 49},
                   .ht_occupancy_hist = {93, 38, 14, 11, 0, 4}}},
      {core::HashTablePolicy::Unified,
       MemoryStats{.global_reads = 22273, .global_writes = 560, .global_atomics = 2333,
                   .shared_reads = 9223, .shared_writes = 2574, .shared_atomics = 3517,
                   .register_ops = 1507, .ht_maintain_shared = 947, .ht_maintain_global = 560,
                   .ht_access_shared = 3517, .ht_access_global = 2333, .simt_lane_slots = 60640,
                   .simt_active_lanes = 6383, .shared_requests = 2103, .shared_waves = 2256,
                   .ht_lookups = 5850, .ht_probes = 5854, .ht_tables = 160,
                   .ht_probe_hist = {0, 5846, 4}, .ht_occupancy_hist = {131, 25, 4}}},
      {core::HashTablePolicy::Hierarchical,
       MemoryStats{.global_reads = 19429, .global_writes = 22, .global_atomics = 28,
                   .shared_reads = 12091, .shared_writes = 3112, .shared_atomics = 5822,
                   .register_ops = 1507, .ht_maintain_shared = 1485, .ht_maintain_global = 22,
                   .ht_access_shared = 5822, .ht_access_global = 28, .simt_lane_slots = 60640,
                   .simt_active_lanes = 6383, .shared_requests = 2154, .shared_waves = 2569,
                   .ht_lookups = 5850, .ht_probes = 5878, .ht_tables = 160,
                   .ht_probe_hist = {0, 5822, 28}, .ht_occupancy_hist = {131, 25, 4}}},
  };
  for (const auto& [policy, want] : recorded) {
    gpusim::SharedMemoryArena arena(48 * 1024);
    core::HashScratch scratch;
    MemoryStats got;
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      arena.reset();
      core::hash_decide(input, v, policy, arena, scratch, 99, got);
    }
    expect_same_stats(got, want, core::to_string(policy));
  }
}

}  // namespace
}  // namespace gala
