// §5.6's closing experiment: phase 1 of round 1 on the largest graph the
// setup can hold, on 8 devices (the paper runs uk-2007-02, 3.4B edges, in
// 43 s on 8 A100s). The stand-in is the biggest FR-class graph this bench
// is allowed to build (GALA_BENCH_SCALE scales it); the code path —
// distributed phase 1 with adaptive sync — is identical.
#include "bench_util.hpp"
#include "gala/multigpu/dist_louvain.hpp"

int main() {
  using namespace gala;
  const double scale = bench::scale_from_env();
  bench::print_header("Largest-graph run on 8 devices", "Section 5.6 (uk-2007-02 analogue)",
                      scale);

  // The uk-2007 analogue: web-graph character (UK) at 4x the usual size.
  const auto g = graph::make_standin("UK", 4.0 * scale);
  std::printf("graph: %s\n", graph::summary(g).c_str());

  multigpu::DistributedConfig cfg;
  cfg.num_gpus = 8;
  cfg.device.model_parallel_lanes = 2048;
  const auto r = multigpu::distributed_phase1(g, cfg);

  std::printf("phase 1 of round 1 on 8 devices: %zu iterations, modularity %.5f\n",
              r.phase1.iterations.size(), r.phase1.modularity);
  std::printf("modeled: %.3f ms total (compute %.3f, comm %.3f) | host wall: %.2f s\n",
              r.modeled_ms(), r.max_compute_modeled_ms(), r.max_comm_modeled_ms(),
              r.phase1.wall_seconds);
  std::uint64_t bytes = 0;
  int sparse = 0;
  for (const auto& it : r.iteration_log) {
    bytes += it.sync_bytes;
    sparse += it.sparse_sync;
  }
  std::printf("sync: %.2f MB total, %d/%zu iterations sparse\n", static_cast<double>(bytes) / 1e6,
              sparse, r.iteration_log.size());
  std::printf("paper: 3.4B-edge uk-2007-02 completes in 43 s on 8 A100s — the same code path "
              "at ~%.0fx smaller scale.\n",
              3.4e9 / static_cast<double>(g.num_edges()));
  return 0;
}
