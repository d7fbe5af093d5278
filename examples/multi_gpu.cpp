// Scaling community detection across multiple (simulated) GPUs.
//
// Demonstrates the §4.3 distributed engine: 1-D vertex partitioning, the
// dense/sparse/adaptive synchronisation choice, and how to read the
// per-device compute/communication breakdown. On a real deployment the
// simulated NCCL layer maps 1:1 onto ncclAllGather/ncclAllReduce calls.
#include <cstdio>

#include "gala/common/table.hpp"
#include "gala/graph/standin.hpp"
#include "gala/multigpu/dist_louvain.hpp"

int main() {
  using namespace gala;

  const graph::Graph g = graph::make_standin("OR", 0.5);
  std::printf("graph (com-Orkut stand-in): %s\n\n", graph::summary(g).c_str());

  TextTable table({"GPUs", "sync", "iters", "modularity", "compute ms", "comm ms", "total ms",
                   "sync MB"});
  for (const std::size_t gpus : {1, 2, 4, 8}) {
    multigpu::DistributedConfig config;
    config.num_gpus = gpus;
    config.sync = multigpu::SyncMode::Adaptive;
    config.device.model_parallel_lanes = 2048;  // device scaled to the stand-in

    const multigpu::DistributedResult r = multigpu::distributed_phase1(g, config);
    std::uint64_t sync_bytes = 0;
    for (const auto& it : r.iteration_log) sync_bytes += it.sync_bytes;
    table.row()
        .cell(gpus)
        .cell(to_string(config.sync))
        .cell(r.phase1.iterations.size())
        .cell(r.phase1.modularity, 5)
        .cell(r.max_compute_modeled_ms(), 3)
        .cell(r.max_comm_modeled_ms(), 3)
        .cell(r.modeled_ms(), 3)
        .cell(static_cast<double>(sync_bytes) / 1e6, 2);
  }
  table.print();

  std::printf("\nnote: modularity is identical at every device count — the BSP iteration is\n"
              "deterministic and the sync keeps replicas exact, so multi-GPU changes only\n"
              "where work happens, never the result.\n");
  return 0;
}
