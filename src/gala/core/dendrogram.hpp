// Dendrogram: the full Louvain hierarchy, queryable at any level.
//
// run_louvain flattens the hierarchy to its final partition; analysts often
// want intermediate granularities ("give me ~500 communities"). Dendrogram
// keeps every folded level's contraction map, read off the run's
// GalaLevel::fold, and exposes cuts:
//
//   Dendrogram d = build_dendrogram(g);
//   auto final  = d.cut(d.num_levels());       // the run's partition
//   auto finer  = d.cut(1);                    // first-level communities
//   auto k500   = d.cut_at_most(500);          // finest cut with <= 500
#pragma once

#include <vector>

#include "gala/core/gala.hpp"

namespace gala::core {

class Dendrogram {
 public:
  struct Level {
    /// Maps a level-(i) vertex to its level-(i+1) community (dense ids).
    std::vector<cid_t> contraction;
    /// Modularity of the cut this level folds: phase 1's Q, or under
    /// refinement the audited Q of the folded (refined) cut.
    wt_t modularity = 0;
    vid_t num_communities = 0;
  };

  explicit Dendrogram(vid_t num_vertices) : num_vertices_(num_vertices) {}

  void push_level(Level level) { levels_.push_back(std::move(level)); }

  std::size_t num_levels() const { return levels_.size(); }
  vid_t num_vertices() const { return num_vertices_; }
  const Level& level(std::size_t i) const {
    GALA_CHECK(i < levels_.size(), "level " << i << " out of range");
    return levels_[i];
  }

  /// Assignment of original vertices after the first `depth` levels
  /// (depth 0 = singletons; depth num_levels() = final partition).
  std::vector<cid_t> cut(std::size_t depth) const;

  /// The deepest cut with at most `max_communities` communities; falls back
  /// to the final partition if every cut is coarser-bounded than requested.
  std::vector<cid_t> cut_at_most(vid_t max_communities) const;

 private:
  vid_t num_vertices_;
  std::vector<Level> levels_;
};

/// Runs run_louvain(g, config) and keeps every folded level, so the final
/// cut is the run's partition (up to community ids).
Dendrogram build_dendrogram(const graph::Graph& g, const GalaConfig& config = {});

}  // namespace gala::core
