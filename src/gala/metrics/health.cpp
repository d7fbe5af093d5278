#include "gala/metrics/health.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gala/common/json.hpp"
#include "gala/scope/run_scope.hpp"

namespace gala::metrics {

namespace {

/// Least-squares slope of y over x = 0..n-1. Points where `use` is false are
/// skipped (their x positions still advance, so gaps do not compress the
/// axis). Returns 0 with fewer than two usable points.
template <class Y, class Use>
double ls_slope(const std::vector<Y>& y, Use use) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (!use(y[i])) continue;
    const double xi = static_cast<double>(i);
    const double yi = static_cast<double>(y[i]);
    sx += xi;
    sy += yi;
    sxx += xi * xi;
    sxy += xi * yi;
    ++n;
  }
  if (n < 2) return 0;
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (denom == 0) return 0;
  return (static_cast<double>(n) * sxy - sx * sy) / denom;
}

/// Computes every series-derived field of `lv` (stall, churn, frontier
/// decay, hashtable trend). Oscillation fields are left as accumulated.
void derive(LevelHealth& lv, const HealthConfig& cfg) {
  lv.iterations = static_cast<int>(lv.delta_q.size());

  lv.stalled = false;
  lv.first_stall = -1;
  lv.stall_iterations = 0;
  int run = 0;
  for (int i = 0; i < lv.iterations; ++i) {
    const bool flat = lv.delta_q[static_cast<std::size_t>(i)] < cfg.stall_epsilon &&
                      lv.moved[static_cast<std::size_t>(i)] > 0;
    if (!flat) {
      run = 0;
      continue;
    }
    ++lv.stall_iterations;
    if (++run >= cfg.stall_window && !lv.stalled) {
      lv.stalled = true;
      lv.first_stall = i;
    }
  }

  lv.churn_peak = 0;
  lv.churn_mean = 0;
  if (lv.vertices > 0 && lv.iterations > 0) {
    double sum = 0;
    for (vid_t m : lv.moved) {
      const double churn = static_cast<double>(m) / static_cast<double>(lv.vertices);
      lv.churn_peak = std::max(lv.churn_peak, churn);
      sum += churn;
    }
    lv.churn_mean = sum / lv.iterations;
  }

  // Fit ln(active) against the iteration index; a geometric frontier decays
  // along a straight line whose slope gives the half-life directly.
  // Iterations whose frontier already hit 0 are masked out (NaN) so they do
  // not drag the fit toward -inf.
  std::vector<double> log_active(lv.active.size(), 0);
  for (std::size_t i = 0; i < lv.active.size(); ++i) {
    log_active[i] = lv.active[i] > 0 ? std::log(static_cast<double>(lv.active[i]))
                                     : std::numeric_limits<double>::quiet_NaN();
  }
  const double decay = ls_slope(log_active, [](double v) { return !std::isnan(v); });
  lv.frontier_half_life = decay < 0 ? std::log(2.0) / -decay : 0;

  lv.ht_probe_trend = ls_slope(lv.ht_mean_probe_length, [](double) { return true; });
}

void write_level(JsonWriter& w, const LevelHealth& lv) {
  w.begin_object();
  w.key("level").value(lv.level);
  w.key("vertices").value(static_cast<std::uint64_t>(lv.vertices));
  w.key("iterations").value(lv.iterations);
  w.key("final_modularity").value(lv.final_modularity);
  w.key("stalled").value(lv.stalled);
  w.key("first_stall").value(lv.first_stall);
  w.key("stall_iterations").value(lv.stall_iterations);
  w.key("oscillating_vertices").value(static_cast<std::uint64_t>(lv.oscillating_vertices));
  w.key("oscillation_moves").value(static_cast<std::uint64_t>(lv.oscillation_moves));
  w.key("frontier_half_life").value(lv.frontier_half_life);
  w.key("churn_peak").value(lv.churn_peak);
  w.key("churn_mean").value(lv.churn_mean);
  w.key("ht_probe_trend").value(lv.ht_probe_trend);
  w.key("series").begin_object();
  w.key("modularity").begin_array();
  for (double v : lv.modularity) w.value(v);
  w.end_array();
  w.key("delta_q").begin_array();
  for (double v : lv.delta_q) w.value(v);
  w.end_array();
  w.key("active").begin_array();
  for (vid_t v : lv.active) w.value(static_cast<std::uint64_t>(v));
  w.end_array();
  w.key("moved").begin_array();
  for (vid_t v : lv.moved) w.value(static_cast<std::uint64_t>(v));
  w.end_array();
  w.key("flip_flops").begin_array();
  for (vid_t v : lv.flip_flops) w.value(static_cast<std::uint64_t>(v));
  w.end_array();
  w.key("ht_mean_probe_length").begin_array();
  for (double v : lv.ht_mean_probe_length) w.value(v);
  w.end_array();
  w.end_object();
  w.end_object();
}

}  // namespace

int HealthReport::total_iterations() const {
  int total = 0;
  for (const LevelHealth& lv : levels) total += lv.iterations;
  return total;
}

int HealthReport::stalled_levels() const {
  int total = 0;
  for (const LevelHealth& lv : levels) total += lv.stalled;
  return total;
}

int HealthReport::first_stall_level() const {
  for (const LevelHealth& lv : levels)
    if (lv.stalled) return lv.level;
  return -1;
}

vid_t HealthReport::oscillating_vertices() const {
  vid_t total = 0;
  for (const LevelHealth& lv : levels) total += lv.oscillating_vertices;
  return total;
}

std::uint64_t HealthReport::oscillation_moves() const {
  std::uint64_t total = 0;
  for (const LevelHealth& lv : levels) total += lv.oscillation_moves;
  return total;
}

double HealthReport::frontier_half_life() const {
  return levels.empty() ? 0 : levels.front().frontier_half_life;
}

std::string HealthReport::json() const {
  JsonWriter w;
  w.begin_object();
  w.key("health_schema").value(1);
  w.key("config").begin_object();
  w.key("stall_epsilon").value(config.stall_epsilon);
  w.key("stall_window").value(config.stall_window);
  w.end_object();
  w.key("levels").begin_array();
  for (const LevelHealth& lv : levels) write_level(w, lv);
  w.end_array();
  w.key("summary").begin_object();
  w.key("levels").value(static_cast<int>(levels.size()));
  w.key("total_iterations").value(total_iterations());
  w.key("stalled_levels").value(stalled_levels());
  w.key("first_stall_level").value(first_stall_level());
  w.key("oscillating_vertices").value(static_cast<std::uint64_t>(oscillating_vertices()));
  w.key("oscillation_moves").value(oscillation_moves());
  w.key("frontier_half_life").value(frontier_half_life());
  w.end_object();
  w.end_object();
  return w.str();
}

LevelHealth analyze_iterations(std::span<const core::IterationStats> iterations, vid_t vertices,
                               const HealthConfig& config) {
  LevelHealth lv;
  lv.vertices = vertices;
  for (const core::IterationStats& it : iterations) {
    lv.modularity.push_back(it.modularity);
    lv.delta_q.push_back(it.delta_q);
    lv.active.push_back(it.active);
    lv.moved.push_back(it.moved);
    lv.flip_flops.push_back(0);
    lv.ht_mean_probe_length.push_back(it.ht_mean_probe_length);
    lv.final_modularity = it.modularity;
  }
  derive(lv, config);
  return lv;
}

HealthMonitor::HealthMonitor(HealthConfig config) : config_(config) {}

void HealthMonitor::observe(int iter, const core::IterationStats& stats,
                            std::span<const std::uint8_t> /*active*/,
                            std::span<const std::uint8_t> /*moved*/,
                            std::span<const cid_t> comm) {
  if (iter == 0) {
    finalize_level();
    ++level_index_;
    open_ = true;
    cur_ = LevelHealth{};
    cur_.level = level_index_;
    cur_.vertices = static_cast<vid_t>(comm.size());
    h1_.resize(comm.size());
    h2_.resize(comm.size());
    osc_mask_.assign(comm.size(), 0);
    // The pre-iteration state of every level is the singleton partition
    // (community id == vertex id), so it seeds the two-deep history: a
    // vertex that moves away at iteration 0 and returns at iteration 1 is
    // the earliest detectable flip-flop.
    for (std::size_t v = 0; v < comm.size(); ++v) {
      h2_[v] = static_cast<cid_t>(v);
      h1_[v] = comm[v];
    }
    cur_.flip_flops.push_back(0);
  } else {
    vid_t flips = 0;
    const std::size_t n = std::min(comm.size(), h1_.size());
    for (std::size_t v = 0; v < n; ++v) {
      const cid_t c = comm[v];
      const cid_t one_ago = h1_[v];
      const cid_t two_ago = h2_[v];
      if (c == two_ago && c != one_ago) {
        ++flips;
        if (!osc_mask_[v]) {
          osc_mask_[v] = 1;
          ++cur_.oscillating_vertices;
        }
      }
      h2_[v] = one_ago;
      h1_[v] = c;
    }
    cur_.oscillation_moves += flips;
    cur_.flip_flops.push_back(flips);
  }

  cur_.modularity.push_back(stats.modularity);
  cur_.delta_q.push_back(stats.delta_q);
  cur_.active.push_back(stats.active);
  cur_.moved.push_back(stats.moved);
  cur_.ht_mean_probe_length.push_back(stats.ht_mean_probe_length);
  cur_.final_modularity = stats.modularity;
}

core::IterationCallback HealthMonitor::callback() {
  return [this](int iter, const core::IterationStats& stats, std::span<const std::uint8_t> active,
                std::span<const std::uint8_t> moved, std::span<const cid_t> comm) {
    observe(iter, stats, active, moved, comm);
  };
}

void HealthMonitor::begin_level(int level) {
  if (open_ && cur_.level == level) {
    cur_ = LevelHealth{};
    open_ = false;
  }
  level_index_ = level - 1;
}

void HealthMonitor::finalize_level() {
  if (!open_) return;
  derive(cur_, config_);
  if (cur_.stalled) {
    telemetry::flight(telemetry::FlightKind::HealthStall, static_cast<double>(cur_.level),
                      static_cast<double>(cur_.first_stall));
  }
  if (cur_.oscillating_vertices > 0) {
    telemetry::flight(telemetry::FlightKind::HealthOscillation, static_cast<double>(cur_.level),
                      static_cast<double>(cur_.oscillating_vertices));
  }
  done_.push_back(std::move(cur_));
  cur_ = LevelHealth{};
  open_ = false;
}

HealthReport HealthMonitor::report() {
  finalize_level();
  HealthReport rep;
  rep.config = config_;
  rep.levels = done_;
  return rep;
}

}  // namespace gala::metrics
