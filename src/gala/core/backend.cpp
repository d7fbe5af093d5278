#include "gala/core/backend.hpp"

#include "gala/core/blas_louvain.hpp"

namespace gala::core {
namespace {

/// Both backends run the phase-1 driver and contract through the shared
/// SpGEMM; they differ only in the engine whose primitives the driver runs.
class EngineBackend final : public LouvainBackend {
 public:
  EngineBackend(Backend backend, const blas::Tuning& tuning)
      : backend_(backend), tuning_(tuning) {}

  const char* name() const override { return backend_ == Backend::Blas ? "blas" : "bsp"; }

  Phase1Result run_level(const graph::Graph& g, const BspConfig& config,
                         std::span<const cid_t> initial) override {
    return backend_ == Backend::Blas ? blas_phase1(g, config, tuning_, nullptr, initial)
                                     : bsp_phase1(g, config, initial);
  }

  AggregationResult contract(const graph::Graph& g, std::span<const cid_t> community,
                             exec::Workspace* workspace) override {
    return aggregate(g, community, workspace, tuning_);
  }

 private:
  Backend backend_;
  blas::Tuning tuning_;
};

}  // namespace

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::Bsp:
      return "bsp";
    case Backend::Blas:
      return "blas";
  }
  return "?";
}

std::unique_ptr<LouvainBackend> make_backend(Backend backend, const blas::Tuning& tuning) {
  return std::make_unique<EngineBackend>(backend, tuning);
}

}  // namespace gala::core
