// ExecutionContext — the one handle a pipeline run owns.
//
// Bundles the resources every layer used to construct privately: the
// simulated device (bound to the context's Workspace so kernel launches draw
// arena pages and profiling buffers from the pool), the pooled Workspace
// itself, the host thread pool, and the run's PRNG seed. The context's pool
// is the pool every launch and parallel loop of an engine with
// `parallel = true` uses (the engine picks a size-1 pool otherwise); it
// defaults to ThreadPool::global(). The observers (telemetry, memory,
// governor, profiler, fault injector) belong to the RunScope current on the
// thread that runs the engine (gala/scope/run_scope.hpp), not to the
// context; the context only registers its workspace with the governor of
// the scope it was built under, which must outlive it.
//
// Ownership rules:
//  - run_louvain creates one context per pipeline and calls
//    workspace().reset_level() between levels, so level N+1 reuses level N's
//    slabs instead of reallocating.
//  - BspConfig::context lets callers share a context across engines (the
//    multi-level pipeline, warm-started incremental runs). When it is null
//    the engine creates a private one, preserving the old behaviour.
//  - The distributed engine gives each rank its own context: workspaces are
//    thread-safe, but rank-private workspaces avoid cross-thread contention
//    and keep per-device accounting separable. Ranks run on a size-1 pool.
//
// Every buffer checked out of the workspace is returned before the context
// dies; the context must outlive every engine constructed against it.
#pragma once

#include <cstdint>

#include "gala/common/thread_pool.hpp"
#include "gala/exec/workspace.hpp"
#include "gala/gpusim/device.hpp"
#include "gala/scope/run_scope.hpp"

namespace gala::exec {

class ExecutionContext {
 public:
  explicit ExecutionContext(const gpusim::DeviceConfig& device_config = {},
                            std::uint64_t seed = 7, bool pooling = true,
                            ThreadPool* pool = nullptr)
      : workspace_(pooling), device_(device_config, workspace_), seed_(seed),
        pool_(pool != nullptr ? pool : &ThreadPool::global()),
        governor_(&RunScope::current().governor()) {
    // Rung 1 of the governor's degradation ladder trims idle pooled slabs;
    // each context volunteers its workspace (trim() is thread-safe and only
    // touches free lists, never outstanding leases).
    governor_->register_reclaimer(
        this, [this] { return static_cast<std::uint64_t>(workspace_.trim()); });
  }

  ~ExecutionContext() { governor_->unregister_reclaimer(this); }

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  Workspace& workspace() { return workspace_; }
  const Workspace& workspace() const { return workspace_; }
  gpusim::Device& device() { return device_; }
  const gpusim::Device& device() const { return device_; }
  ThreadPool& pool() { return *pool_; }
  std::uint64_t seed() const { return seed_; }

  /// Marks a level boundary: records the level's buffer high-water mark and
  /// invalidates any lease that (incorrectly) straddles it.
  void reset_level() { workspace_.reset_level(); }

 private:
  Workspace workspace_;
  gpusim::Device device_;  // bound to workspace_: arena pages come from the pool
  std::uint64_t seed_;
  ThreadPool* pool_;  // not owned
  governor::Governor* governor_;  // holds this context's reclaimer; not owned
};

}  // namespace gala::exec
