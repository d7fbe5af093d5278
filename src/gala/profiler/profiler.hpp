// Hardware-counter emulation: per-kernel profiles and the roofline report.
//
// `gala::gpusim` executes every memory access in software, so the counters a
// real profiler samples (achieved coalescing, warp divergence, shared-memory
// bank conflicts, per-block load balance, hashtable probe chains) can be
// emulated *exactly*. The raw events live in `MemoryStats`; this layer scopes
// them per kernel launch: `Device::launch` calls `record_launch` when the
// profiler is enabled, and the accumulated per-kernel profiles export as a
// roofline-style JSON report (the run report's "profile" section, bench
// sidecars).
//
// Cost discipline matches the tracer: disabled (the default), the only cost
// is one relaxed atomic load per launch. Enabled, the device additionally
// tracks per-block modeled cycles for the load-imbalance statistics.
//
// docs/observability.md defines every counter and its nvprof/ncu analogue.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gala/common/json.hpp"
#include "gala/gpusim/memory.hpp"

namespace gala::profiler {

/// Calibrated A100-SXM4 ceilings for the roofline report.
struct RooflineCeilings {
  double dram_gbps = 1555.0;   ///< HBM2e peak bandwidth, GB/s
  double peak_gops = 19500.0;  ///< FP32 peak, GFLOP/s (ops here are modeled register ops)
};

/// Aggregated profile of one kernel (all launches under the same name).
struct KernelProfile {
  std::string name;
  std::uint64_t launches = 0;
  std::uint64_t blocks = 0;
  gpusim::MemoryStats traffic;  ///< summed over launches
  double modeled_cycles = 0;
  double modeled_ms = 0;
  double wall_seconds = 0;

  // Load-imbalance statistics over per-block modeled cycles. max/mean and
  // Gini are computed per launch; the sums average over launches, the worst
  // keeps the most skewed launch seen.
  double max_over_mean_sum = 0;
  double worst_max_over_mean = 0;
  double gini_sum = 0;
  std::uint64_t imbalance_samples = 0;  ///< launches with >= 1 nonzero block

  double mean_max_over_mean() const {
    return imbalance_samples == 0 ? 1.0 : max_over_mean_sum / static_cast<double>(imbalance_samples);
  }
  double mean_gini() const {
    return imbalance_samples == 0 ? 0.0 : gini_sum / static_cast<double>(imbalance_samples);
  }
};

/// Gini coefficient of a work distribution (0 = perfectly balanced,
/// -> 1 = one block does everything). Sorts a copy; profiling-path only.
double gini(std::span<const double> values);

/// Modeled DRAM bytes of a traffic snapshot: 4 bytes per plain global word,
/// 8 per atomic (read-modify-write). Shared traffic never reaches DRAM.
double modeled_dram_bytes(const gpusim::MemoryStats& s);

/// Thread-safe per-kernel profile registry (one per RunScope, beside the
/// telemetry tracer).
class Profiler {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  RooflineCeilings ceilings() const;
  void set_ceilings(const RooflineCeilings& c);

  /// Folds one kernel launch into the profile named `name`. `block_cycles`
  /// (may be empty) holds per-block modeled cycles for load-imbalance
  /// statistics.
  void record_launch(std::string_view name, std::size_t num_blocks,
                     const gpusim::MemoryStats& traffic, double modeled_cycles,
                     double modeled_ms, double wall_seconds,
                     std::span<const double> block_cycles);

  /// Adds every kernel profile of `other` into this one (a bench folding
  /// the runs of its rows' scopes into one profile).
  void merge(const Profiler& other);

  /// Forgets all accumulated profiles (ceilings and the enabled flag stay).
  void reset();

  std::vector<KernelProfile> snapshot() const;

  /// Writes the "kernels" array and "ceilings"/"schema" members into an open
  /// JSON object (shared by the run report and the bench sidecars).
  void append_report(JsonWriter& w) const;

  /// Complete report document: {"profile_schema":1,"ceilings":{...},
  /// "kernels":[...]}.
  std::string report_json() const;

 private:
  void fold_locked(const KernelProfile& add);  // caller holds mutex_

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  RooflineCeilings ceilings_{};
  std::map<std::string, KernelProfile, std::less<>> kernels_;
};

}  // namespace gala::profiler
