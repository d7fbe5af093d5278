#include "gala/profiler/profiler.hpp"

#include <algorithm>
#include <cmath>

namespace gala::profiler {

double gini(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double total = 0, weighted = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    total += sorted[i];
    weighted += static_cast<double>(i + 1) * sorted[i];
  }
  if (total <= 0) return 0.0;
  return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

double modeled_dram_bytes(const gpusim::MemoryStats& s) {
  return 4.0 * static_cast<double>(s.global_reads + s.global_writes) +
         8.0 * static_cast<double>(s.global_atomics);
}

RooflineCeilings Profiler::ceilings() const {
  std::lock_guard lock(mutex_);
  return ceilings_;
}

void Profiler::set_ceilings(const RooflineCeilings& c) {
  std::lock_guard lock(mutex_);
  ceilings_ = c;
}

void Profiler::record_launch(std::string_view name, std::size_t num_blocks,
                             const gpusim::MemoryStats& traffic, double modeled_cycles,
                             double modeled_ms, double wall_seconds,
                             std::span<const double> block_cycles) {
  KernelProfile launch{.name = std::string(name),
                       .launches = 1,
                       .blocks = num_blocks,
                       .traffic = traffic,
                       .modeled_cycles = modeled_cycles,
                       .modeled_ms = modeled_ms,
                       .wall_seconds = wall_seconds};
  if (!block_cycles.empty()) {
    double sum = 0, max = 0;
    for (const double c : block_cycles) {
      sum += c;
      max = std::max(max, c);
    }
    if (sum > 0) {
      launch.max_over_mean_sum = max / (sum / static_cast<double>(block_cycles.size()));
      launch.worst_max_over_mean = launch.max_over_mean_sum;
      launch.gini_sum = gini(block_cycles);
      launch.imbalance_samples = 1;
    }
  }
  {
    std::lock_guard lock(mutex_);
    fold_locked(launch);
  }

  // Surface the launch through the telemetry registry so the metrics report and
  // registry consumers see the same counters without a profile export.
  registry_.counter("profiler.gather_requests").add(traffic.gather_requests);
  registry_.counter("profiler.gather_transactions").add(traffic.gather_transactions);
  registry_.counter("profiler.simt_lane_slots").add(traffic.simt_lane_slots);
  registry_.counter("profiler.simt_active_lanes").add(traffic.simt_active_lanes);
  registry_.counter("profiler.shared_requests").add(traffic.shared_requests);
  registry_.counter("profiler.bank_conflicts").add(traffic.bank_conflicts());
  if (traffic.ht_lookups > 0) {
    auto& hist = registry_.histogram("profiler.ht_probe_length");
    for (std::size_t len = 1; len < gpusim::MemoryStats::kProbeBuckets; ++len) {
      if (traffic.ht_probe_hist[len] > 0) hist.observe_n(len, traffic.ht_probe_hist[len]);
    }
  }
}

void Profiler::merge(const Profiler& other) {
  for (const KernelProfile& k : other.snapshot()) {
    std::lock_guard lock(mutex_);
    fold_locked(k);
  }
}

void Profiler::fold_locked(const KernelProfile& add) {
  KernelProfile& k = kernels_.try_emplace(add.name).first->second;
  k.name = add.name;
  k.launches += add.launches;
  k.blocks += add.blocks;
  k.traffic += add.traffic;
  k.modeled_cycles += add.modeled_cycles;
  k.modeled_ms += add.modeled_ms;
  k.wall_seconds += add.wall_seconds;
  k.max_over_mean_sum += add.max_over_mean_sum;
  k.worst_max_over_mean = std::max(k.worst_max_over_mean, add.worst_max_over_mean);
  k.gini_sum += add.gini_sum;
  k.imbalance_samples += add.imbalance_samples;
}

void Profiler::reset() {
  std::lock_guard lock(mutex_);
  kernels_.clear();
}

std::vector<KernelProfile> Profiler::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<KernelProfile> out;
  out.reserve(kernels_.size());
  for (const auto& [name, k] : kernels_) out.push_back(k);
  return out;
}

namespace {

void append_counters(JsonWriter& w, const gpusim::MemoryStats& s) {
  w.key("counters").begin_object();
  w.key("global_reads").value(s.global_reads);
  w.key("global_writes").value(s.global_writes);
  w.key("global_atomics").value(s.global_atomics);
  w.key("shared_reads").value(s.shared_reads);
  w.key("shared_writes").value(s.shared_writes);
  w.key("shared_atomics").value(s.shared_atomics);
  w.key("register_ops").value(s.register_ops);
  w.key("shuffle_ops").value(s.shuffle_ops);
  w.key("gather_requests").value(s.gather_requests);
  w.key("gather_transactions").value(s.gather_transactions);
  w.key("simt_lane_slots").value(s.simt_lane_slots);
  w.key("simt_active_lanes").value(s.simt_active_lanes);
  w.key("shared_requests").value(s.shared_requests);
  w.key("shared_waves").value(s.shared_waves);
  w.key("bank_conflicts").value(s.bank_conflicts());
  w.end_object();
}

void append_hashtable(JsonWriter& w, const gpusim::MemoryStats& s) {
  w.key("hashtable").begin_object();
  w.key("lookups").value(s.ht_lookups);
  w.key("probes").value(s.ht_probes);
  w.key("tables").value(s.ht_tables);
  w.key("mean_probe_length").value(s.mean_probe_length());
  w.key("maintenance_rate").value(s.maintenance_rate());
  w.key("access_rate").value(s.access_rate());
  w.key("probe_hist").begin_array();
  for (std::size_t len = 1; len < gpusim::MemoryStats::kProbeBuckets; ++len) {
    if (s.ht_probe_hist[len] == 0) continue;
    w.begin_object();
    w.key("len").value(static_cast<std::uint64_t>(len));
    w.key("count").value(s.ht_probe_hist[len]);
    w.end_object();
  }
  w.end_array();
  w.key("occupancy_hist").begin_array();
  for (std::size_t d = 0; d < gpusim::MemoryStats::kOccupancyBuckets; ++d) {
    if (s.ht_occupancy_hist[d] == 0) continue;
    w.begin_object();
    w.key("lo_pct").value(static_cast<std::uint64_t>(d * 10));
    w.key("count").value(s.ht_occupancy_hist[d]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void append_roofline(JsonWriter& w, const KernelProfile& k, const RooflineCeilings& c) {
  const double bytes = modeled_dram_bytes(k.traffic);
  const double ops = static_cast<double>(k.traffic.register_ops);
  const double ai = bytes > 0 ? ops / bytes : 0.0;  // ops per DRAM byte
  const double attainable_gops = std::min(c.peak_gops, ai * c.dram_gbps);
  const double achieved_gops = k.modeled_ms > 0 ? ops / (k.modeled_ms * 1e6) : 0.0;
  w.key("roofline").begin_object();
  w.key("dram_bytes").value(bytes);
  w.key("ops").value(ops);
  w.key("arithmetic_intensity").value(ai);
  w.key("achieved_gops").value(achieved_gops);
  w.key("attainable_gops").value(attainable_gops);
  w.key("roof_fraction").value(attainable_gops > 0 ? achieved_gops / attainable_gops : 0.0);
  w.key("bound").value(ai * c.dram_gbps < c.peak_gops ? "memory" : "compute");
  w.end_object();
}

}  // namespace

void Profiler::append_report(JsonWriter& w) const {
  RooflineCeilings ceilings;
  std::vector<KernelProfile> kernels;
  {
    std::lock_guard lock(mutex_);
    ceilings = ceilings_;
    kernels.reserve(kernels_.size());
    for (const auto& [name, k] : kernels_) kernels.push_back(k);
  }
  w.key("profile_schema").value(1);
  w.key("ceilings").begin_object();
  w.key("dram_gbps").value(ceilings.dram_gbps);
  w.key("peak_gops").value(ceilings.peak_gops);
  w.end_object();
  w.key("kernels").begin_array();
  for (const KernelProfile& k : kernels) {
    w.begin_object();
    w.key("name").value(k.name);
    w.key("launches").value(k.launches);
    w.key("blocks").value(k.blocks);
    w.key("modeled_cycles").value(k.modeled_cycles);
    w.key("modeled_ms").value(k.modeled_ms);
    w.key("wall_seconds").value(k.wall_seconds);
    append_counters(w, k.traffic);
    w.key("coalescing_efficiency").value(k.traffic.coalescing_efficiency());
    w.key("transactions_per_gather").value(k.traffic.transactions_per_gather());
    w.key("divergence_efficiency").value(k.traffic.divergence_efficiency());
    w.key("bank_conflict_factor").value(k.traffic.bank_conflict_factor());
    w.key("load_imbalance").begin_object();
    w.key("mean_max_over_mean").value(k.mean_max_over_mean());
    w.key("worst_max_over_mean").value(k.worst_max_over_mean);
    w.key("mean_gini").value(k.mean_gini());
    w.key("samples").value(k.imbalance_samples);
    w.end_object();
    if (k.traffic.ht_lookups > 0 || k.traffic.ht_tables > 0) append_hashtable(w, k.traffic);
    append_roofline(w, k, ceilings);
    w.end_object();
  }
  w.end_array();
}

std::string Profiler::report_json() const {
  JsonWriter w;
  w.begin_object();
  append_report(w);
  w.end_object();
  return w.str();
}

}  // namespace gala::profiler
