// The backend-neutral engine seam: phase 1 (decide-and-move to convergence)
// and phase 2 (contraction) as an interface, with the BSP kernels and the
// gala::blas linear-algebra formulation as the two implementations.
//
// The pipeline (run_louvain) programs against this seam only — it picks an
// engine once from GalaConfig::backend and drives every level through it.
// Both backends share the move rule, the phase-1 driver (pruning, guard,
// bookkeeping, convergence test; phase1.hpp) and the SpGEMM contraction,
// which is what pins their trajectories together (see blas_louvain.hpp for
// the parity argument).
#pragma once

#include <memory>
#include <string>

#include "gala/blas/blas.hpp"
#include "gala/core/aggregation.hpp"
#include "gala/core/bsp_louvain.hpp"

namespace gala::core {

enum class Backend : std::uint8_t { Bsp, Blas };
std::string to_string(Backend backend);

class LouvainBackend {
 public:
  virtual ~LouvainBackend() = default;

  virtual const char* name() const = 0;

  /// Phase 1: run one level's move loop to convergence from `initial`
  /// (community ids in [0, V)), or from singletons when it is empty.
  virtual Phase1Result run_level(const graph::Graph& g, const BspConfig& config,
                                 std::span<const cid_t> initial = {}) = 0;

  /// Phase 2: contract `g` by `community` (ids need not be dense).
  virtual AggregationResult contract(const graph::Graph& g, std::span<const cid_t> community,
                                     exec::Workspace* workspace) = 0;
};

/// Builds the engine for `backend`. `tuning` parameterises the blas engine
/// (accumulator, pull/push threshold); the BSP engine ignores it except for
/// the contraction accumulator, which both backends draw from the shared
/// SpGEMM.
std::unique_ptr<LouvainBackend> make_backend(Backend backend, const blas::Tuning& tuning = {});

}  // namespace gala::core
