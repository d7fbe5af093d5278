// Figure 1(b): proportion of pruned (inactive) and unmoved vertices per
// iteration of phase 1 on the LiveJournal stand-in, under MG pruning.
//
// The paper's observation: as iterations progress, most vertices remain
// unmoved (up to 95%), and MG marks an increasing share of them inactive
// (up to 69%) while never pruning a vertex that would move.
#include "bench_util.hpp"
#include "gala/core/bsp_louvain.hpp"

int main() {
  using namespace gala;
  const double scale = bench::scale_from_env();
  bench::print_header("Pruned (inactive) and unmoved vertices per iteration",
                      "Figure 1(b) — LiveJournal", scale);

  const auto g = graph::make_standin("LJ", scale);
  std::printf("graph LJ (%s): %s\n\n", graph::standin_full_name("LJ").c_str(),
              graph::summary(g).c_str());

  core::BspConfig cfg;
  cfg.pruning = core::PruningStrategy::ModularityGain;

  TextTable table({"iteration", "inactive%", "unmoved%", "moved", "modularity"});
  const double n = g.num_vertices();
  cfg.on_iteration = [&](int iter, const core::IterationStats& s,
                         std::span<const std::uint8_t> active, auto, auto) {
    std::size_t inactive = 0;
    for (const auto a : active) inactive += a == 0;
    table.row()
        .cell(iter)
        .cell(100.0 * static_cast<double>(inactive) / n, 1)
        .cell(100.0 * (n - s.moved) / n, 1)
        .cell(s.moved)
        .cell(s.modularity, 5);
  };
  const auto result = core::bsp_phase1(g, cfg);
  table.print();

  double peak_inactive = 0;
  for (const auto& it : result.iterations) {
    // inactive share = 1 - active/n
    peak_inactive = std::max(peak_inactive, 1.0 - static_cast<double>(it.active) / n);
  }
  std::printf("\npeak inactive rate: %.1f%% (paper reports up to 69%% on LiveJournal)\n",
              100.0 * peak_inactive);
  std::printf("final modularity: %.5f over %zu iterations\n", result.modularity,
              result.iterations.size());
  return 0;
}
