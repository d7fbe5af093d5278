// Memory-hierarchy accounting and the latency cost model.
//
// The simulator cannot reproduce A100 wall-clock, so every kernel charges
// its memory traffic to per-level counters, and a calibrated cost model
// converts the traffic into "modeled cycles". The benches report modeled
// time as the primary series (the paper's figures are about traffic shape,
// which this reproduces exactly) next to host wall-clock.
//
// Default latencies follow published A100 microbenchmarks (Jia et al. /
// Citadel-style numbers): ~4 cycles register/ALU, ~30 cycles shared memory,
// ~400 cycles global (DRAM) access, atomics roughly 2x their level.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace gala::gpusim {

/// Traffic counters for one kernel execution (or one block; they add).
struct MemoryStats {
  /// Probe-length histogram bound: index i in [1, 16) counts lookups that
  /// took exactly i probes; the last bucket absorbs 16-and-longer chains.
  static constexpr std::size_t kProbeBuckets = 17;
  /// Hashtable load-factor histogram: one bucket per occupancy decile, the
  /// last for exactly-full tables.
  static constexpr std::size_t kOccupancyBuckets = 11;

  std::uint64_t global_reads = 0;
  std::uint64_t global_writes = 0;
  std::uint64_t global_atomics = 0;
  std::uint64_t shared_reads = 0;
  std::uint64_t shared_writes = 0;
  std::uint64_t shared_atomics = 0;
  std::uint64_t register_ops = 0;  ///< per-lane arithmetic / register traffic
  std::uint64_t shuffle_ops = 0;   ///< warp-collective invocations

  // Hashtable placement accounting (Fig. 4): where entries were *maintained*
  // (inserted) and where lookups landed.
  std::uint64_t ht_maintain_shared = 0;
  std::uint64_t ht_maintain_global = 0;
  std::uint64_t ht_access_shared = 0;
  std::uint64_t ht_access_global = 0;

  // Coalescing diagnostics for warp gathers (scattered per-lane global
  // loads, e.g. C[u] lookups): how many warp-gather requests were issued
  // and how many 32-element memory transactions they decomposed into
  // (1 per request = perfectly coalesced, up to 32 = fully scattered).
  std::uint64_t gather_requests = 0;
  std::uint64_t gather_transactions = 0;

  // Branch-divergence diagnostics: every warp-wide issue (collective or
  // gather) occupies 32 lane slots; only the active lanes do useful work.
  // active/slots is nvprof's warp_execution_efficiency.
  std::uint64_t simt_lane_slots = 0;
  std::uint64_t simt_active_lanes = 0;

  // Shared-memory bank-conflict diagnostics: warp-wide shared accesses
  // group into requests; each request serialises into >= 1 conflict-free
  // waves over the 32 4-byte-wide banks (same-word access broadcasts,
  // distinct words in one bank conflict). waves/requests == 1 means
  // conflict-free; a full 32-way conflict yields 32.
  std::uint64_t shared_requests = 0;
  std::uint64_t shared_waves = 0;

  // Hashtable probe/occupancy diagnostics (per-launch scope; device launches
  // merge them like every other counter).
  std::uint64_t ht_lookups = 0;  ///< locate() calls
  std::uint64_t ht_probes = 0;   ///< total probes across all lookups
  std::uint64_t ht_tables = 0;   ///< tables retired (occupancy samples)
  std::array<std::uint64_t, kProbeBuckets> ht_probe_hist{};
  std::array<std::uint64_t, kOccupancyBuckets> ht_occupancy_hist{};

  bool operator==(const MemoryStats&) const = default;

  /// Records one hashtable lookup that needed `probes` bucket probes.
  void record_probe_chain(std::uint64_t probes) {
    ht_lookups += 1;
    ht_probes += probes;
    ht_probe_hist[std::min<std::uint64_t>(probes, kProbeBuckets - 1)] += 1;
  }

  /// Records the final load factor of a retired hashtable.
  void record_table_occupancy(std::uint64_t entries, std::uint64_t buckets) {
    if (buckets == 0) return;
    ht_tables += 1;
    const std::size_t decile = static_cast<std::size_t>(
        std::min<std::uint64_t>(kOccupancyBuckets - 1, entries * 10 / buckets));
    ht_occupancy_hist[decile] += 1;
  }

  MemoryStats& operator+=(const MemoryStats& o) {
    global_reads += o.global_reads;
    global_writes += o.global_writes;
    global_atomics += o.global_atomics;
    shared_reads += o.shared_reads;
    shared_writes += o.shared_writes;
    shared_atomics += o.shared_atomics;
    register_ops += o.register_ops;
    shuffle_ops += o.shuffle_ops;
    ht_maintain_shared += o.ht_maintain_shared;
    ht_maintain_global += o.ht_maintain_global;
    ht_access_shared += o.ht_access_shared;
    ht_access_global += o.ht_access_global;
    gather_requests += o.gather_requests;
    gather_transactions += o.gather_transactions;
    simt_lane_slots += o.simt_lane_slots;
    simt_active_lanes += o.simt_active_lanes;
    shared_requests += o.shared_requests;
    shared_waves += o.shared_waves;
    ht_lookups += o.ht_lookups;
    ht_probes += o.ht_probes;
    ht_tables += o.ht_tables;
    for (std::size_t i = 0; i < kProbeBuckets; ++i) ht_probe_hist[i] += o.ht_probe_hist[i];
    for (std::size_t i = 0; i < kOccupancyBuckets; ++i) {
      ht_occupancy_hist[i] += o.ht_occupancy_hist[i];
    }
    return *this;
  }

  /// Fraction of hashtable entries maintained in shared memory (Fig. 4).
  double maintenance_rate() const {
    const std::uint64_t total = ht_maintain_shared + ht_maintain_global;
    return total == 0 ? 0.0 : static_cast<double>(ht_maintain_shared) / static_cast<double>(total);
  }

  /// Mean memory transactions per warp gather (1 = perfectly coalesced).
  double transactions_per_gather() const {
    return gather_requests == 0
               ? 0.0
               : static_cast<double>(gather_transactions) / static_cast<double>(gather_requests);
  }

  /// Fraction of hashtable accesses that landed in shared memory (Fig. 4).
  double access_rate() const {
    const std::uint64_t total = ht_access_shared + ht_access_global;
    return total == 0 ? 0.0 : static_cast<double>(ht_access_shared) / static_cast<double>(total);
  }

  /// Achieved coalescing: ideal (1 transaction per gather) over actual.
  /// 1.0 = perfectly coalesced, 1/32 = fully scattered. The real-hardware
  /// analogue is nvprof's gld_efficiency.
  double coalescing_efficiency() const {
    return gather_transactions == 0
               ? 1.0
               : static_cast<double>(gather_requests) / static_cast<double>(gather_transactions);
  }

  /// Active-lane fraction over all warp-wide issues (nvprof
  /// warp_execution_efficiency). 1.0 when every issue had all 32 lanes on.
  double divergence_efficiency() const {
    return simt_lane_slots == 0
               ? 1.0
               : static_cast<double>(simt_active_lanes) / static_cast<double>(simt_lane_slots);
  }

  /// Serialisation factor of shared-memory requests (ncu-style
  /// shared_load_transactions_per_request). 1.0 = conflict-free.
  double bank_conflict_factor() const {
    return shared_requests == 0
               ? 1.0
               : static_cast<double>(shared_waves) / static_cast<double>(shared_requests);
  }

  /// Extra serialised waves beyond the conflict-free minimum.
  std::uint64_t bank_conflicts() const { return shared_waves - shared_requests; }

  /// Mean hashtable probe-chain length (1.0 = every lookup hit first try).
  double mean_probe_length() const {
    return ht_lookups == 0 ? 0.0
                           : static_cast<double>(ht_probes) / static_cast<double>(ht_lookups);
  }
};

/// Per-level decomposition of a kernel's modeled cycles (CostModel::breakdown).
/// Atomics are kept separate from plain traffic of their level so contention
/// cost is visible on its own.
struct CostBreakdown {
  double global = 0;     ///< plain global reads+writes
  double shared = 0;     ///< plain shared reads+writes
  double registers = 0;  ///< register/ALU ops
  double shuffle = 0;    ///< warp collectives
  double atomics = 0;    ///< global + shared atomics
  double total() const { return global + shared + registers + shuffle + atomics; }
};

/// Latency model converting traffic into modeled cycles.
struct CostModel {
  double register_cycles = 4;
  double shared_cycles = 30;
  double global_cycles = 400;
  double shared_atomic_cycles = 60;
  double global_atomic_cycles = 800;
  double shuffle_cycles = 8;

  /// Per-level cycle contributions; breakdown(s).total() == cycles(s).
  CostBreakdown breakdown(const MemoryStats& s) const {
    CostBreakdown b;
    b.global = static_cast<double>(s.global_reads + s.global_writes) * global_cycles;
    b.shared = static_cast<double>(s.shared_reads + s.shared_writes) * shared_cycles;
    b.registers = static_cast<double>(s.register_ops) * register_cycles;
    b.shuffle = static_cast<double>(s.shuffle_ops) * shuffle_cycles;
    b.atomics = static_cast<double>(s.global_atomics) * global_atomic_cycles +
                static_cast<double>(s.shared_atomics) * shared_atomic_cycles;
    return b;
  }

  double cycles(const MemoryStats& s) const { return breakdown(s).total(); }

  /// Modeled milliseconds assuming work spread over `parallel_lanes`
  /// concurrently-active lanes at `clock_ghz`.
  double milliseconds(const MemoryStats& s, double parallel_lanes = 108.0 * 2048.0,
                      double clock_ghz = 1.41) const {
    return cycles(s) / parallel_lanes / (clock_ghz * 1e6);
  }
};

}  // namespace gala::gpusim
