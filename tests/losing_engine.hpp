// A LouvainBackend whose phase 1 loses modularity at one level, for pinning
// the level loop's stop rule (core/gala.hpp) without relying on a graph on
// which synchronous moves happen to regress.
#pragma once

#include <memory>
#include <numeric>
#include <vector>

#include "gala/core/backend.hpp"
#include "gala/core/modularity.hpp"

namespace gala::testing {

/// The BSP engine, except that phase 1 of level `losing_level` puts every
/// vertex in one community: modularity 0, below any start with structure
/// (singletons, or the warm start the level was given).
class LosingEngine final : public core::LouvainBackend {
 public:
  explicit LosingEngine(int losing_level) : losing_level_(losing_level) {}

  const char* name() const override { return "losing"; }

  core::Phase1Result run_level(const graph::Graph& g, const core::BspConfig& config,
                               std::span<const cid_t> initial) override {
    if (level_++ != losing_level_) return real_->run_level(g, config, initial);
    std::vector<cid_t> start(initial.begin(), initial.end());
    if (start.empty()) {
      start.resize(g.num_vertices());
      std::iota(start.begin(), start.end(), cid_t{0});
    }
    core::Phase1Result phase1;
    phase1.community.assign(g.num_vertices(), 0);
    phase1.modularity = core::modularity(g, phase1.community, config.resolution);
    phase1.start_modularity = core::modularity(g, start, config.resolution);
    phase1.num_communities = 1;
    return phase1;
  }

  core::AggregationResult contract(const graph::Graph& g, std::span<const cid_t> community,
                                   exec::Workspace* workspace, ThreadPool* pool) override {
    return real_->contract(g, community, workspace, pool);
  }

 private:
  int losing_level_;
  int level_ = 0;
  std::unique_ptr<core::LouvainBackend> real_ = core::make_backend(core::Backend::Bsp);
};

}  // namespace gala::testing
