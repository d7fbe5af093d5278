// Figure 4: the shared-memory maintenance rate and access rate of the
// unified vs hierarchical hashtable per iteration on the LiveJournal
// stand-in (hash kernel forced for all vertices).
//
// Expected shape (paper): hierarchical beats unified by a wide margin
// (~4.7x access rate), its rates *rise* as iterations proceed (fewer
// communities -> better shared-memory fit) while unified stays flat, and
// access rate >= maintenance rate.
#include "bench_util.hpp"
#include "gala/core/bsp_louvain.hpp"

int main() {
  using namespace gala;
  const double scale = bench::scale_from_env();
  bench::print_header("Shared-memory maintenance/access rates of hashtables",
                      "Figure 4 — LiveJournal", scale);

  const auto g = graph::make_standin("LJ", scale);
  std::printf("graph LJ: %s\n", graph::summary(g).c_str());
  // A small shared budget makes placement contention visible at stand-in
  // scale, as the 48 KiB budget does at the paper's scale.
  const std::size_t shared_bytes = 24 * sizeof(core::HashBucket);
  std::printf("shared budget per block: %zu buckets\n\n", shared_bytes / sizeof(core::HashBucket));

  struct Series {
    std::vector<double> maintenance, access;
  };
  auto run = [&](core::HashTablePolicy policy) {
    core::BspConfig cfg;
    cfg.kernel = core::KernelMode::HashOnly;
    cfg.hashtable = policy;
    cfg.device.shared_bytes_per_block = shared_bytes;
    Series series;
    cfg.on_iteration = [&](int, const core::IterationStats& s, auto, auto, auto) {
      series.maintenance.push_back(s.ht_maintenance_rate);
      series.access.push_back(s.ht_access_rate);
    };
    core::bsp_phase1(g, cfg);
    return series;
  };

  const Series unified = run(core::HashTablePolicy::Unified);
  const Series hier = run(core::HashTablePolicy::Hierarchical);

  TextTable table({"iteration", "unified:maint%", "unified:access%", "hier:maint%",
                   "hier:access%"});
  const std::size_t iters = std::min(unified.maintenance.size(), hier.maintenance.size());
  for (std::size_t i = 0; i < iters; ++i) {
    table.row()
        .cell(i)
        .cell(100.0 * unified.maintenance[i], 1)
        .cell(100.0 * unified.access[i], 1)
        .cell(100.0 * hier.maintenance[i], 1)
        .cell(100.0 * hier.access[i], 1);
  }
  table.print();

  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  std::printf("\nmean access rate: hierarchical %.1f%% vs unified %.1f%% (%.1fx; paper: 4.7x)\n",
              100.0 * mean(hier.access), 100.0 * mean(unified.access),
              mean(unified.access) > 0 ? mean(hier.access) / mean(unified.access) : 0.0);
  return 0;
}
