#include "gala/core/dendrogram.hpp"

#include <numeric>

#include "gala/core/aggregation.hpp"
#include "gala/core/modularity.hpp"

namespace gala::core {

std::vector<cid_t> Dendrogram::cut(std::size_t depth) const {
  GALA_CHECK(depth <= levels_.size(), "cut depth " << depth << " > " << levels_.size());
  std::vector<cid_t> assignment(num_vertices_);
  std::iota(assignment.begin(), assignment.end(), 0);
  for (std::size_t i = 0; i < depth; ++i) {
    assignment = compose_assignment(assignment, levels_[i].contraction);
  }
  return assignment;
}

std::vector<cid_t> Dendrogram::cut_at_most(vid_t max_communities) const {
  // Cuts get coarser with depth; take the shallowest cut under the bound.
  for (std::size_t depth = 0; depth <= levels_.size(); ++depth) {
    const vid_t k = depth == 0 ? num_vertices_ : levels_[depth - 1].num_communities;
    if (k <= max_communities) return cut(depth);
  }
  return cut(levels_.size());
}

Dendrogram build_dendrogram(const graph::Graph& g, const GalaConfig& config) {
  GalaResult run = run_louvain(g, config);
  Dendrogram dendrogram(g.num_vertices());
  std::vector<cid_t> cut(g.num_vertices());
  std::iota(cut.begin(), cut.end(), 0);
  for (GalaLevel& lv : run.levels) {
    const vid_t communities = count_communities(lv.fold);
    // Under refinement a level may fold the refined partition instead of
    // phase 1's, so audit the folded cut.
    wt_t q = lv.modularity;
    if (config.refine) {
      cut = compose_assignment(cut, lv.fold);
      q = modularity(g, cut, config.bsp.resolution);
    }
    dendrogram.push_level({std::move(lv.fold), q, communities});
  }
  return dendrogram;
}

}  // namespace gala::core
