// Figure 7: inactive (pruned) proportion per iteration for SM, RM, PM, MG
// and the combined MG+RM on four representative graphs (FR, LJ, TW, UK).
//
// Expected shape (paper): SM prunes almost nothing; RM and PM are
// competitive with MG; MG+RM prunes the most (up to ~92%); all curves rise
// as iterations proceed; PM terminates earliest (aggressive pruning).
#include "bench_util.hpp"
#include "gala/core/bsp_louvain.hpp"

int main() {
  using namespace gala;
  const double scale = bench::scale_from_env();
  bench::print_header("Pruned proportion (inactive rate) per iteration", "Figure 7", scale);

  const std::vector<std::string> graphs = {"FR", "LJ", "TW", "UK"};
  const std::vector<core::PruningStrategy> strategies = {
      core::PruningStrategy::Strict, core::PruningStrategy::Relaxed,
      core::PruningStrategy::Probabilistic, core::PruningStrategy::ModularityGain,
      core::PruningStrategy::MgPlusRelaxed};

  for (const auto& [abbr, g] : bench::load_suite(scale, graphs)) {
    std::printf("--- %s (%s) ---\n", abbr.c_str(), graph::summary(g).c_str());
    // Collect per-iteration inactive rates per strategy.
    std::vector<std::vector<double>> series(strategies.size());
    std::vector<double> final_q(strategies.size());
    const double n = g.num_vertices();
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      core::BspConfig cfg;
      cfg.pruning = strategies[s];
      cfg.on_iteration = [&](int, const core::IterationStats& st, auto, auto, auto) {
        series[s].push_back(100.0 * (n - st.active) / n);
      };
      final_q[s] = core::bsp_phase1(g, cfg).modularity;
    }

    TextTable table({"iteration", "SM%", "RM%", "PM%", "MG%", "MG+RM%"});
    std::size_t iters = 0;
    for (const auto& sv : series) iters = std::max(iters, sv.size());
    for (std::size_t i = 0; i < iters; ++i) {
      auto& row = table.row().cell(i);
      for (const auto& sv : series) {
        if (i < sv.size()) {
          row.cell(sv[i], 1);
        } else {
          row.cell("-");  // strategy already terminated
        }
      }
    }
    table.print();
    std::printf("final modularity: SM %.5f  RM %.5f  PM %.5f  MG %.5f  MG+RM %.5f\n\n",
                final_q[0], final_q[1], final_q[2], final_q[3], final_q[4]);
  }
  std::printf("paper shape: SM prunes <4%% on average; MG+RM reaches up to ~92%%; PM terminates "
              "earliest at a modularity cost.\n");
  return 0;
}
