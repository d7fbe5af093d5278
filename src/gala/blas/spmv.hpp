// Masked SpMV: the neighbour-community weight gather as a linear-algebra
// kernel (GraphBLAST's formulation of the Louvain scoring sweep).
//
// For every unmasked row v the kernel accumulates
//     w(v, c) = sum of A[v][u] over u != v with comm[u] == c
// into a block-local sparse accumulator (SPA) and hands the touched columns
// to the row visitor — which is where the engine scores candidates. The SPA
// sums in adjacency encounter order, matching the BSP hash kernel's upsert
// order bit-for-bit (see blas.hpp, determinism contract).
//
// Direction-optimization (Gunrock): Pull streams all rows and tests the
// mask; Push takes a pre-compacted frontier and touches only active rows.
// Both evaluate exactly the rows the mask selects — the visitor sees the
// same rows with the same sums — so direction is a pure cost knob, chosen
// per launch from frontier density (choose_direction).
//
// The SPA is the launch's kernel scratch (Device::launch<Scratch>): each
// pool chunk checks one out of the device's workspace (tags "blas.spa_*")
// and every row of every block in the chunk reuses it. The mark array keeps
// an all-zeros-on-release invariant: each row clears exactly the entries it
// touched, so a same-tag recycled slab skips re-initialisation
// (Lease::recycled_same_tag) and the steady state allocates nothing.
//
// masked_dot is the one-column case: each masked row needs only the weight
// to its own column, so it sums that column directly and needs no SPA.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>

#include "gala/blas/blas.hpp"
#include "gala/common/types.hpp"
#include "gala/gpusim/device.hpp"
#include "gala/graph/csr.hpp"

namespace gala::blas {

/// Per-row result hook: row id, the touched columns (community ids, in
/// first-touch order), the dense value array indexed by column, and the
/// block's traffic counter to charge scoring loads to. Values are valid
/// only for the touched columns and only during the call.
using RowVisitor =
    std::function<void(vid_t, std::span<const cid_t>, const wt_t*, gpusim::MemoryStats&)>;

struct GatherStats {
  Direction direction = Direction::Pull;
  std::uint64_t rows = 0;  ///< rows evaluated (== active rows)
  gpusim::LaunchStats launch;
};

/// One gather launch over `g` with columns relabelled by `comm` (size V;
/// values bound the SPA, so they must be < V). Pull mode reads `mask`
/// (size V, nonzero = evaluate); Push mode reads `frontier` (active row
/// ids, any order) and ignores `mask`. The blocks run on `device`, which
/// must be workspace-bound, over `pool`.
GatherStats masked_gather(const graph::Graph& g, std::span<const cid_t> comm,
                          std::span<const std::uint8_t> mask, std::span<const vid_t> frontier,
                          Direction dir, const gpusim::Device& device, ThreadPool& pool,
                          const RowVisitor& visit, std::string_view kernel_name);

/// One masked single-community dot launch: for every row v flagged in `mask`
/// (size V), out[v] = sum of A[v][u] over u != v with comm[u] == comm[v],
/// summed from 0 in adjacency order. On positive weights that is bit for bit
/// the value masked_gather's SPA holds for column comm[v] (first touch, then
/// adds in the same order). Unflagged rows of `out` are left as they are.
/// Streams every row (pull); `rows` counts the flagged ones.
GatherStats masked_dot(const graph::Graph& g, std::span<const cid_t> comm,
                       std::span<const std::uint8_t> mask, std::span<wt_t> out,
                       const gpusim::Device& device, ThreadPool& pool,
                       std::string_view kernel_name);

}  // namespace gala::blas
