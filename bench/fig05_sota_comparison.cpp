// Figure 5: end-to-end comparison of GALA against cuGraph, Gunrock, nido,
// Grappolo (GPU), Grappolo (GPU)* and Grappolo (CPU) on phase 1 of round 1.
//
// Modeled time is the primary series (DESIGN.md §1); host wall-clock is
// reported alongside. Expected shape (paper): GALA fastest everywhere, with
// average speedups of 17x (cuGraph), 53x (Gunrock), 21x (nido), 22x
// (Grappolo GPU), 6x (Grappolo GPU*), 222x (Grappolo CPU). All systems
// converge to identical modularity (§5.1): the bench exits 1 when any row's
// modularity differs from GALA's by more than 1e-9.
#include <cmath>

#include "bench_util.hpp"
#include "gala/baselines/baseline.hpp"

int main() {
  using namespace gala;
  const double scale = bench::scale_from_env();
  bench::print_header("Comparison with the state of the art", "Figure 5", scale);

  const auto suite = bench::load_suite(scale);
  baselines::BaselineOptions opts;

  std::vector<std::string> system_names;
  int parity_failures = 0;
  std::vector<double> speedup_logsum;  // geometric-mean accumulator
  TextTable table({"Graph", "System", "modeled ms", "wall s", "iters", "modularity", "GALA speedup"});

  for (const auto& [abbr, g] : suite) {
    const auto results = baselines::run_all_systems(g, opts);
    const auto& gala_row = results.back();  // GALA is last
    if (system_names.empty()) {
      for (const auto& r : results) system_names.push_back(r.name);
      speedup_logsum.assign(results.size(), 0.0);
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      const double speedup = r.modeled_ms / gala_row.modeled_ms;
      speedup_logsum[i] += std::log(speedup);
      table.row()
          .cell(abbr)
          .cell(r.name)
          .cell(r.modeled_ms, 3)
          .cell(r.wall_seconds, 2)
          .cell(r.iterations)
          .cell(r.modularity, 5)
          .cell(speedup, 2);
      // §5.1 parity: every system runs GALA's phase-1 driver with its own
      // decide step, so modularity must equal GALA's.
      if (std::abs(r.modularity - gala_row.modularity) > 1e-9) {
        std::printf("FAIL: %s modularity %.12f differs from GALA %.12f on %s\n", r.name.c_str(),
                    r.modularity, gala_row.modularity, abbr.c_str());
        ++parity_failures;
      }
    }
  }
  table.print();

  std::printf("\ngeometric-mean speedup of GALA (paper: cuGraph 17x, Gunrock 53x, nido 21x, "
              "Grappolo-GPU 22x, Grappolo-GPU* 6x, Grappolo-CPU 222x):\n");
  for (std::size_t i = 0; i < system_names.size(); ++i) {
    std::printf("  vs %-16s %.1fx\n", system_names[i].c_str(),
                std::exp(speedup_logsum[i] / static_cast<double>(suite.size())));
  }
  return parity_failures == 0 ? 0 : 1;
}
