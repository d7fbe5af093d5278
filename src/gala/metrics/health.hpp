// Algorithm-health diagnostics: convergence-trajectory analysis on top of
// the engines' per-iteration stats.
//
// The BSP engine reports *what* happened each iteration (moved counts,
// modularity, traffic); this layer judges *how healthy* the trajectory is:
//
//   - stall: the gain curve flat-lines (delta_q < stall_epsilon) while
//     vertices are still moving — work is burned without progress, usually a
//     resolution/theta mismatch or a pruning strategy reactivating a plateau.
//   - oscillation: a vertex returns to the community it left two iterations
//     ago (BSP flip-flop; the symmetric-swap pathology of simultaneous-move
//     Louvain). A few flip-flops are normal, a growing population is not.
//   - frontier decay: the active set of a healthy pruned run shrinks
//     geometrically (paper §3, Fig. 5); the fitted half-life quantifies the
//     decay, and a non-decaying frontier flags ineffective pruning.
//   - community churn: fraction of vertices changing community per
//     iteration; the peak/mean profile separates "big early consolidation"
//     (healthy) from "sustained thrash" (unhealthy).
//   - hashtable pressure: the trend of the mean probe-chain length across
//     iterations. Rising pressure means the per-iteration community
//     neighbourhoods are outgrowing the table policy mid-level.
//
// Two entry points share the analysis:
//
//   - analyze_iterations() works on recorded IterationStats alone (no
//     per-vertex history, so no oscillation detection) — used by benches.
//   - HealthMonitor hooks BspConfig::on_iteration / the distributed
//     engine's observer, tracks per-vertex two-deep community history for
//     flip-flop detection, and emits HealthStall / HealthOscillation flight
//     events (telemetry/flight_recorder.hpp) as levels close. A run has one
//     monitor: the CLI's, or under supervision the supervisor's, whose
//     verdicts also become advisory RecoveryEvents.
//
// The report is deterministic: every field derives from modeled, seeded
// state, so a fixed (graph, config, seed) yields a byte-identical document
// regardless of pooling, parallelism, or sync schedule.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "gala/common/types.hpp"
#include "gala/core/bsp_louvain.hpp"

namespace gala::metrics {

struct HealthConfig {
  /// A gain below this while vertices still move counts as a stalled
  /// iteration (matches the engines' default convergence theta).
  double stall_epsilon = 1e-6;
  /// Consecutive stalled iterations before the level is flagged stalled.
  int stall_window = 3;
};

/// Health verdict for one level's iteration trajectory.
struct LevelHealth {
  int level = 0;
  int iterations = 0;
  vid_t vertices = 0;
  double final_modularity = 0;
  /// Stall detection (gain flat-lines while moves continue).
  bool stalled = false;
  int first_stall = -1;     ///< iteration at which the stall window filled
  int stall_iterations = 0; ///< total iterations with delta_q < eps and moved > 0
  /// Oscillation (HealthMonitor only; zero from analyze_iterations).
  vid_t oscillating_vertices = 0;     ///< distinct vertices that flip-flopped
  std::uint64_t oscillation_moves = 0;///< total flip-flop events
  /// Active-frontier decay: half-life in iterations from a least-squares fit
  /// of ln(active) over the level (0 = frontier did not decay).
  double frontier_half_life = 0;
  /// Community churn = moved / V per iteration.
  double churn_peak = 0;
  double churn_mean = 0;
  /// Slope of the mean hash-probe length across iterations (pressure trend;
  /// positive = tables are degrading as the level progresses).
  double ht_probe_trend = 0;
  /// Per-iteration series (columnar, index = iteration).
  std::vector<double> modularity;
  std::vector<double> delta_q;
  std::vector<vid_t> active;
  std::vector<vid_t> moved;
  std::vector<vid_t> flip_flops;
  std::vector<double> ht_mean_probe_length;
};

struct HealthReport {
  HealthConfig config;
  std::vector<LevelHealth> levels;

  /// Cross-level rollups.
  int total_iterations() const;
  int stalled_levels() const;
  int first_stall_level() const;  ///< -1 when no level stalled
  vid_t oscillating_vertices() const;
  std::uint64_t oscillation_moves() const;
  /// Level-0 frontier half-life — the full-graph decay rate (Fig. 5's
  /// subject); 0 when no decay was measured.
  double frontier_half_life() const;

  /// {"health_schema":1,"config":{...},"levels":[...],"summary":{...}}.
  std::string json() const;
};

/// Stats-only analysis of one level's recorded iterations. No per-vertex
/// history is available, so oscillation fields stay zero.
LevelHealth analyze_iterations(std::span<const core::IterationStats> iterations, vid_t vertices,
                               const HealthConfig& config = {});

/// Incremental monitor for live runs. Feed it every iteration (it detects
/// level boundaries by the iteration index resetting to 0) and collect the
/// report at the end. Not thread-safe: call from one observer thread.
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig config = {});

  /// IterationCallback-compatible hook (core/bsp_louvain.hpp): iteration
  /// index within the level, its stats, active/moved flags, post-iteration
  /// community assignment.
  void observe(int iter, const core::IterationStats& stats, std::span<const std::uint8_t> active,
               std::span<const std::uint8_t> moved, std::span<const cid_t> comm);

  /// Adapter: a copyable callback bound to this monitor (the monitor must
  /// outlive the engine run).
  core::IterationCallback callback();

  /// Tags the next level observed as pipeline level `level`. An in-flight
  /// trajectory already tagged `level` belongs to an aborted attempt at that
  /// level and is dropped without a verdict, so a retried level is recorded
  /// once.
  void begin_level(int level);

  /// Finalizes the in-flight level and returns the accumulated report.
  /// Callable repeatedly; observation may continue afterwards.
  HealthReport report();

 private:
  void finalize_level();

  HealthConfig config_;
  std::vector<LevelHealth> done_;
  // In-flight level state.
  bool open_ = false;
  int level_index_ = -1;
  LevelHealth cur_;
  std::vector<cid_t> h1_;  // community one iteration ago
  std::vector<cid_t> h2_;  // community two iterations ago
  std::vector<std::uint8_t> osc_mask_;
};

}  // namespace gala::metrics
