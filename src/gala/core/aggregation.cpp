#include "gala/core/aggregation.hpp"

#include <algorithm>

#include "gala/common/error.hpp"
#include "gala/core/modularity.hpp"
#include "gala/scope/run_scope.hpp"

namespace gala::core {
namespace {

/// renumber_communities with the dense fast path's remap table drawn from
/// the workspace — same algorithm, same output, pooled scratch.
vid_t renumber_pooled(std::span<cid_t> community, exec::Workspace* ws) {
  const std::size_t n = community.size();
  const bool dense_ids =
      std::all_of(community.begin(), community.end(), [n](cid_t c) { return c < n; });
  if (ws == nullptr || !dense_ids) return renumber_communities(community);
  auto remap_lease = ws->take<cid_t>(n, "phase2.renumber");
  const std::span<cid_t> remap = remap_lease.span();
  std::fill(remap.begin(), remap.end(), kInvalidCid);
  cid_t next = 0;
  for (auto& c : community) {
    if (remap[c] == kInvalidCid) remap[c] = next++;
    c = remap[c];
  }
  return next;
}

}  // namespace

AggregationResult fold(std::span<const cid_t> community, exec::Workspace* workspace) {
  AggregationResult result;
  result.fine_to_coarse.assign(community.begin(), community.end());
  result.num_communities = renumber_pooled(result.fine_to_coarse, workspace);
  return result;
}

AggregationResult aggregate(const graph::Graph& g, std::span<const cid_t> community,
                            exec::Workspace* workspace, const blas::Tuning& tuning,
                            blas::SpgemmStats* stats, ThreadPool* pool) {
  GALA_CHECK(community.size() == g.num_vertices(), "assignment size mismatch");
  AggregationResult result = fold(community, workspace);
  result.coarse = blas::contract_csr(g, result.fine_to_coarse, result.num_communities, workspace,
                                     tuning, stats, pool);
  memtrace::set_resident("graph.contraction", result.coarse.memory_bytes());
  return result;
}

AggregationResult aggregate(const graph::Graph& g, std::span<const cid_t> community,
                            exec::Workspace* workspace) {
  return aggregate(g, community, workspace, blas::Tuning{}, nullptr);
}

std::vector<cid_t> compose_assignment(std::span<const cid_t> fine_to_coarse,
                                      std::span<const cid_t> coarse_assignment) {
  std::vector<cid_t> out(fine_to_coarse.size());
  for (std::size_t v = 0; v < fine_to_coarse.size(); ++v) {
    GALA_CHECK(fine_to_coarse[v] < coarse_assignment.size(), "coarse id out of range");
    out[v] = coarse_assignment[fine_to_coarse[v]];
  }
  return out;
}

}  // namespace gala::core
